// Fig. 15: weak scaling of the RHG generators (non-streaming and streaming),
// n/P fixed, average degree 16, gamma = 3. Paper scale: P up to 2^15, n/P
// in 2^16..2^24. Here: P up to 16, n/P in {2^13, 2^15}.
//
// Expected shape (paper §8.6): the in-memory generator's time rises with P
// (inward recomputation of high-degree vertices); the streaming generator
// stays much flatter and is several times faster.
#include "bench_common.hpp"

namespace {

using namespace kagen;

void Weak_Rhg_InMemory(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const Config cfg{.model   = Model::Rhg,
                     .n       = (u64{1} << state.range(1)) * pes,
                     .avg_deg = 16.0,
                     .gamma   = 3.0};
    bench::engine_scaling_run(state, cfg, pes);
}

void Weak_Srhg_Streaming(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const Config cfg{.model   = Model::RhgStreaming,
                     .n       = (u64{1} << state.range(1)) * pes,
                     .avg_deg = 16.0,
                     .gamma   = 3.0};
    bench::engine_scaling_run(state, cfg, pes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_n : {13, 15}) {
        for (const int pes : {1, 2, 4, 8, 16}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Weak_Rhg_InMemory)->Apply(args);
BENCHMARK(Weak_Srhg_Streaming)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 15 — weak scaling RHG(n, dbar=16, gamma=3): in-memory vs "
    "streaming.\n"
    "# Args: {P, log2 n/P}. Expected: streaming flatter and faster.")
