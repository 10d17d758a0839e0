// Fig. 7: weak scaling of the G(n,m) generators — m/P edges per PE with
// n = m/2^4, directed and undirected. Paper scale: P up to 2^15 MPI ranks,
// m/P in {2^22, 2^26}. Here: P up to 16 simulated PEs (threads), m/P in
// {2^18, 2^20}.
//
// Expected shape (paper §8.3): directed stays flat (near-perfect weak
// scaling); undirected rises by up to 2x at small P (redundant chunk
// generation, bounded by 2m) and then flattens.
#include "bench_common.hpp"

namespace {

using namespace kagen;

void Weak_Directed(benchmark::State& state) {
    const u64 pes      = static_cast<u64>(state.range(0));
    const u64 m_per_pe = u64{1} << state.range(1);
    const u64 m        = m_per_pe * pes;
    const u64 n        = m / 16;
    bench::engine_scaling_run(state, {.model = Model::GnmDirected, .n = n, .m = m}, pes);
}

void Weak_Undirected(benchmark::State& state) {
    const u64 pes      = static_cast<u64>(state.range(0));
    const u64 m_per_pe = u64{1} << state.range(1);
    const u64 m        = m_per_pe * pes;
    const u64 n        = m / 16;
    bench::engine_scaling_run(state, {.model = Model::GnmUndirected, .n = n, .m = m}, pes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_m : {18, 20}) {
        for (const int pes : {1, 2, 4, 8, 16}) b->Args({pes, log_m});
    }
    b->UseManualTime()->Iterations(2)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Weak_Directed)->Apply(args);
BENCHMARK(Weak_Undirected)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 7 — weak scaling G(n,m) (m/P fixed, n = m/16).\n"
    "# Args: {P, log2 m/P}. Paper: P<=2^15 MPI ranks; here P<=16 thread-"
    "simulated PEs, manual-time = makespan.")
