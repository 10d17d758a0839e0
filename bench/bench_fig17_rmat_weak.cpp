// Fig. 17: weak scaling of the R-MAT baseline — m/P edges per PE,
// n = m/2^4, Graph500 parameters. Paper scale: P up to 2^15, m/P in
// {2^22, 2^26}. Here: P up to 16, m/P in {2^18, 2^20}.
//
// Expected shape (paper §8.6.1): a slow O(log n) rise with P (each edge
// needs log2(n) variates), and an absolute edge rate roughly an order of
// magnitude below the ER/sRHG generators (compare Fig. 7/15 outputs).
#include "bench_common.hpp"

namespace {

using namespace kagen;

void Weak_Rmat(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 m   = (u64{1} << state.range(1)) * pes;
    // n = m/16, rounded up to a power of two by the model.
    bench::engine_scaling_run(state, {.model = Model::Rmat, .n = m / 16, .m = m}, pes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_m : {18, 20}) {
        for (const int pes : {1, 2, 4, 8, 16}) b->Args({pes, log_m});
    }
    b->UseManualTime()->Iterations(2)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Weak_Rmat)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 17 — weak scaling R-MAT (m/P fixed, n = m/16, Graph500 "
    "parameters a=0.57 b=0.19 c=0.19).\n"
    "# Args: {P, log2 m/P}. Compare Medges/s against Fig. 7/15 binaries.")
