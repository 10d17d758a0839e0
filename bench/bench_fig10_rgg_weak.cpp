// Fig. 10: weak scaling of the RGG generators (2D and 3D), n/P fixed,
// r = 0.55 * (ln n / n)^(1/d) / sqrt(P). Paper scale: P up to 2^15, n/P in
// {2^18, 2^22}. Here: P up to 16, n/P in {2^14, 2^16}.
//
// Expected shape: an initial rise of up to ~2x while the redundant border
// layers appear (0 neighbours at P=1, up to 8/26 at larger P), then flat.
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace kagen;

template <int D>
double radius_for(u64 n, u64 pes) {
    return 0.55 *
           std::pow(std::log(static_cast<double>(n)) / static_cast<double>(n),
                    1.0 / D) /
           std::sqrt(static_cast<double>(pes));
}

template <int D>
void Weak_Rgg(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 n   = (u64{1} << state.range(1)) * pes;
    const Model model = D == 2 ? Model::Rgg2D : Model::Rgg3D;
    bench::engine_scaling_run(
        state, {.model = model, .n = n, .r = radius_for<D>(n, pes)}, pes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_n : {14, 16}) {
        for (const int pes : {1, 2, 4, 8, 16}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(2)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Weak_Rgg<2>)->Apply(args);
BENCHMARK(Weak_Rgg<3>)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 10 — weak scaling RGG 2D/3D (n/P fixed).\n"
    "# Args: {P, log2 n/P}; r = 0.55*(ln n/n)^(1/d)/sqrt(P).")
