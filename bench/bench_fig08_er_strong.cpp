// Fig. 8: strong scaling of the G(n,m) generators — total m fixed, P grows.
// Paper scale: m in {2^34..2^38}, P = 2^10..2^15. Here: m in {2^22, 2^24},
// P = 1..16.
//
// Expected shape: time ~ 1/P (directed); undirected carries the constant 2x
// redundancy overhead but scales the same way.
#include "bench_common.hpp"

namespace {

using namespace kagen;

void Strong_Directed(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 m   = u64{1} << state.range(1);
    const u64 n   = m / 16;
    bench::engine_scaling_run(state, {.model = Model::GnmDirected, .n = n, .m = m}, pes);
}

void Strong_Undirected(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 m   = u64{1} << state.range(1);
    const u64 n   = m / 16;
    bench::engine_scaling_run(state, {.model = Model::GnmUndirected, .n = n, .m = m}, pes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_m : {22, 24}) {
        for (const int pes : {1, 2, 4, 8, 16}) b->Args({pes, log_m});
    }
    b->UseManualTime()->Iterations(2)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Strong_Directed)->Apply(args);
BENCHMARK(Strong_Undirected)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 8 — strong scaling G(n,m) (m fixed, n = m/16).\n"
    "# Args: {P, log2 m}. Expected: time ~ 1/P.")
