// Fig. 18: strong scaling of the R-MAT baseline — m fixed, P grows.
// Paper scale: m in 2^32..2^36, P >= 2^10. Here: m in {2^22, 2^24}, P = 1..16.
//
// Expected shape: time ~ 1/P (the generator is embarrassingly parallel too;
// it is the constant factor that separates it from the paper's generators).
#include "bench_common.hpp"

namespace {

using namespace kagen;

void Strong_Rmat(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 m   = u64{1} << state.range(1);
    // n = m/16, rounded up to a power of two by the model.
    bench::engine_scaling_run(state, {.model = Model::Rmat, .n = m / 16, .m = m}, pes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_m : {22, 24}) {
        for (const int pes : {1, 2, 4, 8, 16}) b->Args({pes, log_m});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Strong_Rmat)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 18 — strong scaling R-MAT (m fixed, n = m/16).\n"
    "# Args: {P, log2 m}. Expected: time ~ 1/P.")
