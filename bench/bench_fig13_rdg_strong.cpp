// Fig. 13: strong scaling of the RDG generators — n fixed, P grows.
// Paper scale: n in {2^26..2^32}, P >= 2^10. Here: n in {2^14, 2^16} (2D) /
// {2^13, 2^15} (3D), P = 1..8.
//
// Expected shape: time ~ 1/P.
#include "bench_common.hpp"

namespace {

using namespace kagen;

template <int D>
void Strong_Rdg(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 n   = u64{1} << state.range(1);
    const Model model = D == 2 ? Model::Rdg2D : Model::Rdg3D;
    bench::engine_scaling_run(state, {.model = model, .n = n}, pes);
}

void args2d(benchmark::internal::Benchmark* b) {
    for (const int log_n : {14, 16}) {
        for (const int pes : {1, 2, 4, 8}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

void args3d(benchmark::internal::Benchmark* b) {
    for (const int log_n : {13, 15}) {
        for (const int pes : {1, 2, 4, 8}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Strong_Rdg<2>)->Apply(args2d);
BENCHMARK(Strong_Rdg<3>)->Apply(args3d);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 13 — strong scaling RDG 2D/3D (n fixed, periodic Delaunay).\n"
    "# Args: {P, log2 n}. Expected: time ~ 1/P.")
