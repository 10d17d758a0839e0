// Fig. 11: strong scaling of the RGG generators — n fixed, P grows,
// r = 0.55 * (ln n / n)^(1/d). Paper scale: n in {2^26..2^34}, P >= 2^10.
// Here: n in {2^18, 2^20}, P = 1..16.
//
// Expected shape: time ~ 1/P once the border-recomputation constant is paid.
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace kagen;

template <int D>
void Strong_Rgg(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 n   = u64{1} << state.range(1);
    const double r =
        0.55 * std::pow(std::log(static_cast<double>(n)) / static_cast<double>(n),
                        1.0 / D);
    const Model model = D == 2 ? Model::Rgg2D : Model::Rgg3D;
    bench::engine_scaling_run(state, {.model = model, .n = n, .r = r}, pes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_n : {18, 20}) {
        for (const int pes : {1, 2, 4, 8, 16}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Strong_Rgg<2>)->Apply(args);
BENCHMARK(Strong_Rgg<3>)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 11 — strong scaling RGG 2D/3D (n fixed).\n"
    "# Args: {P, log2 n}; r = 0.55*(ln n/n)^(1/d). Expected: time ~ 1/P.")
