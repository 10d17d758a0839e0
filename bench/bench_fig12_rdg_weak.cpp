// Fig. 12: weak scaling of the RDG generators (2D and 3D), n/P fixed.
// Paper scale: P up to 2^15, n/P in {2^16..2^22}. Here: P up to 8, n/P in
// {2^12, 2^14} (2D) / {2^11, 2^13} (3D) — Bowyer-Watson in long double is
// the substituted CGAL backend, see DESIGN.md.
//
// Expected shape: a small rise at low P (the adjacent halo layer appears),
// then near-constant time — the halo rarely grows beyond one layer.
#include "bench_common.hpp"

namespace {

using namespace kagen;

template <int D>
void Weak_Rdg(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 n   = (u64{1} << state.range(1)) * pes;
    const Model model = D == 2 ? Model::Rdg2D : Model::Rdg3D;
    bench::engine_scaling_run(state, {.model = model, .n = n}, pes);
}

void args2d(benchmark::internal::Benchmark* b) {
    for (const int log_n : {12, 14}) {
        for (const int pes : {1, 2, 4, 8}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

void args3d(benchmark::internal::Benchmark* b) {
    for (const int log_n : {11, 13}) {
        for (const int pes : {1, 2, 4, 8}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Weak_Rdg<2>)->Apply(args2d);
BENCHMARK(Weak_Rdg<3>)->Apply(args3d);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 12 — weak scaling RDG 2D/3D (n/P fixed, periodic Delaunay).\n"
    "# Args: {P, log2 n/P}. Expected: near-constant after the halo constant.")
