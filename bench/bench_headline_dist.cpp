// Distributed vs in-process headline: the same whole-graph file-sink run,
// once through the in-process chunked engine and once through the
// multi-process backend at 1/2/4 ranks. Because workers are real processes
// with private address spaces, this is the repo's closest stand-in for the
// paper's multi-node setting: per-rank generation is embarrassingly
// parallel, and everything the coordinator adds — fork, the socketpair
// reports, rank files, the rank-order merge — is the measured "distribution tax". The
// merged output is byte-identical to the in-process run (tests/test_dist),
// so the comparison is strictly like for like. Recorded outcomes live in
// EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace kagen;

Config bench_config() {
    Config cfg;
    cfg.model         = Model::GnmUndirected;
    cfg.n             = u64{1} << 17;
    cfg.m             = 16 * cfg.n;
    cfg.seed          = 3;
    cfg.chunks_per_pe = 4;
    cfg.total_chunks  = 16; // pinned: identical graph at every rank count
    return cfg;
}

/// ranks == 0: in-process generate_chunked baseline (same decomposition).
void DistributedVsInProcess(benchmark::State& state) {
    const u64 ranks       = static_cast<u64>(state.range(0));
    const Config cfg      = bench_config();
    const std::string out = "/tmp/kagen_bench_dist_" + std::to_string(ranks) + ".bin";

    double seconds = 0.0; // generation makespan (slowest rank)
    double wall    = 0.0; // full coordinator wall time incl. fork + merge
    u64 edges      = 0;
    if (ranks == 0) {
        CountingSink warmup;
        generate_chunked(cfg, 4, warmup);
    }
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        if (ranks == 0) {
            BinaryFileSink sink(out);
            const ChunkStats stats = generate_chunked(cfg, 4, sink);
            sink.finish();
            seconds = stats.seconds;
            edges   = sink.num_edges();
        } else {
            dist::DistOptions opts;
            opts.num_ranks   = ranks;
            opts.num_pes     = 4;
            opts.output_path = out;
            const dist::DistResult res = generate_distributed(cfg, opts);
            seconds = res.seconds;
            edges   = res.edges_written;
        }
        wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
        state.SetIterationTime(wall);
    }
    std::remove(out.c_str());
    state.counters["ranks"]          = static_cast<double>(ranks);
    state.counters["edges"]          = static_cast<double>(edges);
    state.counters["generation_s"]   = seconds;
    state.counters["coordinator_s"]  = wall;
    state.counters["distribution_tax_s"] = wall - seconds;
    state.counters["Medges/s_wall"] =
        static_cast<double>(edges) / wall / 1e6;
}

BENCHMARK(DistributedVsInProcess)
    ->Arg(0) // in-process baseline
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

} // namespace

KAGEN_BENCH_MAIN(
    "# Distributed headline — identical gnm_undirected file-sink run "
    "(n=2^17, m=2^21, 16 pinned chunks) through the in-process engine "
    "(ranks=0) and the multi-process backend at 1/2/4 forked ranks. "
    "generation_s is the slowest rank's makespan, coordinator_s the full "
    "wall time; their difference is the fork + report + rank-file-merge "
    "tax. Outputs are byte-identical across all rows, so rates compare "
    "like for like. On multi-core hosts ranks>1 should beat ranks=1 on "
    "generation_s; recorded outcomes in EXPERIMENTS.md.")
