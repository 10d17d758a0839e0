/// \file bench_common.hpp
/// \brief Shared helpers for the per-figure benchmark binaries.
///
/// Conventions:
///  * Every generator row goes through the one entry point,
///    kagen::generate. Scaling benchmarks use manual timing: one
///    "iteration" is a `generate_chunked` run with one chunk per simulated
///    PE, streamed into a counting sink, and records the makespan — the
///    quantity an MPI job reports as its running time.
///  * Each binary prints a header mapping it to the paper figure it
///    regenerates and the scale substitutions (see EXPERIMENTS.md for the
///    recorded outcomes).
///  * Counters: "edges" = total edges the run streamed across PEs (including
///    intentional cross-PE duplicates), "Medges/s" = edges / makespan.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "kagen.hpp"
#include "obs/trace.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

namespace kagen::bench {

/// The scaling helper: per iteration, runs the graph `cfg` describes as one
/// chunk per simulated PE (`pes` of them, cfg.chunks_per_pe = 1 unless the
/// caller pins more) through `generate_chunked` into a CountingSink, and
/// records the engine's makespan. Edges stream and are discarded; no
/// EdgeList is built. A baseline row passes `baseline`: its chunks run that
/// function on the same engine and pool instead of kagen::generate, so a
/// baseline that materialises its per-PE EdgeList still pays for it.
/// Returns the last iteration's makespan.
inline double engine_scaling_run(benchmark::State& state, const Config& cfg, u64 pes,
                                 const pe::ChunkFn& baseline = nullptr) {
    const auto run = [&](EdgeSink& sink) {
        if (!baseline) return generate_chunked(cfg, pes, sink);
        pe::ChunkOptions opt;
        opt.num_pes       = pes;
        opt.chunks_per_pe = cfg.chunks_per_pe;
        opt.total_chunks  = cfg.total_chunks;
        return pe::run_chunked(opt, baseline, sink);
    };
    {
        CountingSink warmup; // untimed: pool spin-up, page faults
        run(warmup);
    }
    double makespan = 0.0;
    u64 edges       = 0;
    u64 chunks      = 0;
    for (auto _ : state) {
        CountingSink sink;
        const ChunkStats stats = run(sink);
        sink.finish();
        makespan = stats.seconds;
        edges    = sink.num_edges();
        chunks   = stats.num_chunks;
        state.SetIterationTime(stats.seconds);
    }
    state.counters["PEs"]    = static_cast<double>(pes);
    state.counters["chunks"] = static_cast<double>(chunks);
    state.counters["edges"]  = static_cast<double>(edges);
    state.counters["Medges/s"] = benchmark::Counter(
        static_cast<double>(edges) / 1e6, benchmark::Counter::kIsIterationInvariantRate);
    return makespan;
}

} // namespace kagen::bench

namespace kagen::bench {

/// KAGEN_OBS_FORCE=1 arms the trace recorder for the whole benchmark
/// process. Running the same binary twice — once bare, once with the env
/// var — and diffing the two JSON files with bench_delta.py --fail-above
/// measures the telemetry overhead on the identical workload (the CI
/// perf-smoke job gates this at 3%; DESIGN.md §13).
inline void arm_telemetry_from_env() {
    const char* force = std::getenv("KAGEN_OBS_FORCE");
    if (force != nullptr && force[0] != '\0' && force[0] != '0') {
        obs::TraceRecorder::global().enable(true);
        std::fputs("telemetry: trace recorder armed (KAGEN_OBS_FORCE)\n",
                   stderr);
    }
}

} // namespace kagen::bench

/// Defines main(): prints the figure banner, then runs the benchmarks.
/// The banner goes to stderr so `--benchmark_format=json > out.json`
/// (the CI dist-bench artifact) stays machine-parseable.
#define KAGEN_BENCH_MAIN(banner)                                   \
    int main(int argc, char** argv) {                              \
        std::fputs(banner "\n", stderr);                           \
        kagen::bench::arm_telemetry_from_env();                    \
        benchmark::Initialize(&argc, argv);                        \
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) {  \
            return 1;                                              \
        }                                                          \
        benchmark::RunSpecifiedBenchmarks();                       \
        benchmark::Shutdown();                                     \
        return 0;                                                  \
    }
