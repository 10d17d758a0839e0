// Fig. 14: RHG generator comparison — NkGen-like baseline vs RHG (in-memory)
// vs sRHG (streaming; HyperGen's algorithmic sibling, see DESIGN.md), as a
// function of n for gamma in {2.2, 3.0} and average degree in {16, 64}.
// Paper scale: n up to 10^9 on 39 threads, degree up to 256. Here: n up to
// 2^16 on 8 simulated PEs, degree up to 64.
//
// Expected shape (paper §8.6): NkGen-like slowest per edge (raw
// trigonometric distance tests, unstructured scans), RHG in the middle,
// sRHG fastest; the gap widens with the edge count.
#include "baselines/nkgen_like.hpp"
#include "bench_common.hpp"

namespace {

using namespace kagen;

constexpr u64 kPes = 8;

Config config_for(const benchmark::State& state, Model model) {
    return {.model   = model,
            .n       = u64{1} << state.range(0),
            .avg_deg = static_cast<double>(state.range(1)),
            .gamma   = static_cast<double>(state.range(2)) / 10.0};
}

// The baseline has no Model: each PE builds its EdgeList as NkGen would and
// hands it to the engine, so the row still pays for materialisation.
void NkGenLike(benchmark::State& state) {
    const Config cfg = config_for(state, Model::Rhg);
    const hyp::Params params{cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed};
    bench::engine_scaling_run(state, cfg, kPes,
                              [&](u64 rank, u64 size, EdgeSink& sink) {
                                  const EdgeList edges =
                                      baselines::nkgen_like_generate(params, rank, size);
                                  sink.deliver(edges.data(), edges.size());
                              });
}

void Rhg_InMemory(benchmark::State& state) {
    bench::engine_scaling_run(state, config_for(state, Model::Rhg), kPes);
}

void Srhg_Streaming(benchmark::State& state) {
    bench::engine_scaling_run(state, config_for(state, Model::RhgStreaming), kPes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int gamma10 : {22, 30}) {
        for (const int deg : {16, 64}) {
            for (const int log_n : {12, 14, 16}) b->Args({log_n, deg, gamma10});
        }
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(NkGenLike)->Apply(args);
BENCHMARK(Rhg_InMemory)->Apply(args);
BENCHMARK(Srhg_Streaming)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 14 — RHG comparison: NkGen-like vs RHG vs sRHG.\n"
    "# Args: {log2 n, avg_deg, gamma*10}. Expected ranking: NkGen-like > RHG "
    "> sRHG in time.")
