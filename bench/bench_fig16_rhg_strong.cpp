// Fig. 16: strong scaling of the RHG generators — n fixed, P grows,
// average degree 16, gamma = 3. Paper scale: n in 2^28..2^36, P >= 2^10.
// Here: n in {2^16, 2^18}, P = 1..16.
//
// Expected shape: time ~ 1/P, with the streaming generator strictly below
// the in-memory one.
#include "bench_common.hpp"

namespace {

using namespace kagen;

void Strong_Rhg_InMemory(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const Config cfg{.model   = Model::Rhg,
                     .n       = u64{1} << state.range(1),
                     .avg_deg = 16.0,
                     .gamma   = 3.0};
    bench::engine_scaling_run(state, cfg, pes);
}

void Strong_Srhg_Streaming(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const Config cfg{.model   = Model::RhgStreaming,
                     .n       = u64{1} << state.range(1),
                     .avg_deg = 16.0,
                     .gamma   = 3.0};
    bench::engine_scaling_run(state, cfg, pes);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_n : {16, 18}) {
        for (const int pes : {1, 2, 4, 8, 16}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Strong_Rhg_InMemory)->Apply(args);
BENCHMARK(Strong_Srhg_Streaming)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 16 — strong scaling RHG(n, dbar=16, gamma=3): in-memory vs "
    "streaming.\n"
    "# Args: {P, log2 n}. Expected: time ~ 1/P, streaming below in-memory.")
