/// \file runner.hpp
/// \brief Multi-process distributed backend: communication-free generation
///        across address spaces.
///
/// The paper's headline claim is that every PE generates its partition with
/// *zero* communication. The chunked engine (pe/pe.hpp) already validates
/// that in-process — every chunk is a pure function of (chunk, C, seed,
/// params) — but all "PEs" shared one address space, so nothing proved the
/// claim survives real process isolation. This runner makes it literal:
///
///  * `run_distributed` forks `num_ranks` worker *processes*, one
///    socketpair(2) each, and hands its ends to the one coordinator of
///    net/coordinator.hpp — the same core a TCP run uses. That core assigns
///    each rank a contiguous range of the canonical `C = total_chunks` (or
///    K·P) decomposition, the same `block_begin` split the in-process
///    scheduler uses for participants.
///  * Each child runs the TCP worker's session (net/worker.hpp): it runs
///    `execute_rank_job` over its chunk range into a per-rank binary edge
///    file plus local statistics sinks. Ranks share **nothing**: no memory
///    writes, no locks, no messages — the only bytes that cross a process
///    boundary are the job and one end-of-run report per rank
///    (dist/ipc.hpp: serialized `pe::ChunkRunStats` + the mergeable sink
///    summaries of sink/sinks.hpp).
///  * The coordinator joins the per-rank files in canonical rank order with
///    copy_file_range and merges the summaries. Because rank r's stream is
///    exactly the [block_begin(C,R,r), block_begin(C,R,r+1)) slice of the
///    canonical chunk stream, the merged file is **byte-identical** to a
///    single-process `generate_chunked` run into a `BinaryFileSink` — for
///    every (ranks, P, K) combination and under both edge semantics
///    (exact-once output stays exact-once: the ownership filters are
///    per-chunk pure functions and never cared which process runs them).
///
/// Failure containment: a rank that throws reports the message and exits
/// nonzero; a rank that crashes reads as EOF on its socket. Either way
/// `generate_distributed` kills and reaps every other child, throws a
/// descriptive error naming the rank and its wait status, removes every
/// partial rank/output file, and never hangs. See DESIGN.md §8 and
/// tests/test_dist.cpp.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/ipc.hpp"

namespace kagen {

struct Config; // kagen.hpp (which includes this header after defining it)

namespace dist {

/// Execution shape of a distributed run.
struct DistOptions {
    u64 num_ranks = 0;        ///< worker processes; 0 = 1 here — the
                              ///< `kagen::generate_distributed` facade maps
                              ///< 0 to `Config::num_processes` before calling
    u64 num_pes   = 0;        ///< simulated PEs P of the decomposition
                              ///< (C = chunks_per_pe·P unless total_chunks
                              ///< pins it); 0 = num_ranks. The graph depends
                              ///< only on C — identical to a single-process
                              ///< run with the same (P, K).
    u64 threads_per_rank = 1; ///< pool threads inside each worker (each
                              ///< worker builds its own private pool; the
                              ///< forked child never touches the parent's)

    std::string output_path;  ///< merged binary edge file (graph/io format);
                              ///< empty = stats-only run, no files at all
    std::string scratch_dir;  ///< per-rank file location; empty = $TMPDIR
    bool keep_rank_files = false; ///< keep the per-rank files after the merge
                                  ///< (they live in scratch_dir / $TMPDIR as
                                  ///< kagen_dist.<pid>.<run>.rank<r>.bin; see
                                  ///< DistResult::ranks for what each holds)

    bool degree_stats = false; ///< also collect + merge per-vertex degrees
                               ///< (O(n) per worker and per frame)

    std::string dedup_path;   ///< non-empty: run em::sort_dedup_file over the
                              ///< merged output into this file (canonical
                              ///< deduplicated edge set for as_generated runs)
    u64 sort_memory = u64{64} << 20; ///< memory budget of that dedup sort

    /// Test instrumentation: invoked inside each worker process right after
    /// the fork, before any generation. Lets tests inject rank-targeted
    /// faults (throw, _exit, raise) to pin the failure-propagation contract.
    /// Inherited across fork by memory image; must not rely on threads.
    std::function<void(u64 rank)> rank_hook;
};

/// One rank file of a partitioned (manifest-mode) TCP run.
struct ManifestEntry {
    u64 rank = 0;
    std::string peer; ///< worker address as seen by the coordinator
    std::string path; ///< rank-file path on the worker's machine
    u64 chunk_begin = 0;
    u64 chunk_end   = 0;
    u64 edges       = 0;
    u64 bytes       = 0; ///< on-disk size (8-byte header + 16 per edge)
};

/// Coordinator-side view of a finished distributed run, forked or TCP.
struct DistResult {
    u64 n          = 0; ///< global vertex count
    u64 num_chunks = 0; ///< canonical chunks C of the decomposition
    u64 num_ranks  = 0; ///< ranks: worker processes forked, or TCP workers

    double seconds          = 0.0; ///< slowest rank's makespan (the
                                   ///< distributed job's critical path)
    u64 peak_buffered_bytes = 0;   ///< max over ranks
    u64 spilled_chunks      = 0;   ///< summed over ranks
    u64 spilled_bytes       = 0;   ///< summed over ranks
    u64 buffers_recycled    = 0;   ///< summed over ranks (chunk-buffer pool)

    u64 edges_written = 0; ///< edges in the merged output file (0 = none,
                           ///< also for a manifest run)
    u64 dedup_edges   = 0; ///< unique edges after the optional dedup pass

    // Coordinator merge accounting (DESIGN.md §9): how the rank files'
    // payload bytes reached the merged output.
    u64 merged_bytes          = 0; ///< rank-file payload bytes concatenated
    u64 copy_file_range_bytes = 0; ///< of those, moved kernel-side via
                                   ///< copy_file_range (a local join; the
                                   ///< rest went through read/write, and a
                                   ///< TCP gather streams every byte)

    /// Whether the kernel-side zero-copy path carried the whole merge.
    bool copy_file_range_used() const {
        return merged_bytes > 0 && copy_file_range_bytes == merged_bytes;
    }

    CountingSummary count;       ///< merged counting summary (all ranks)
    bool has_degrees = false;    ///< degree summary collected and merged
    DegreeStatsSummary degrees;

    std::vector<RankReport> ranks;       ///< per-rank reports, rank order
    std::vector<ManifestEntry> manifest; ///< manifest-mode TCP runs only
};

/// Runs `cfg`'s graph across `opts.num_ranks` forked worker processes and
/// merges their outputs; see the file comment for the protocol and the
/// byte-identity guarantee. Throws std::invalid_argument on invalid options
/// before any fork, and std::runtime_error on any rank failure
/// (descriptive, no hang, no partial files left behind).
DistResult run_distributed(const Config& cfg, const DistOptions& opts);

/// One rank's share of a distributed run: everything a worker needs to know
/// to execute its chunk range, as decoded from the job message by
/// net/worker.cpp.
struct RankJob {
    u64 rank        = 0;
    u64 num_chunks  = 0; ///< canonical chunk count C of the decomposition
    u64 chunk_begin = 0; ///< contiguous range [chunk_begin, chunk_end) to run
    u64 chunk_end   = 0;
    u64 threads     = 1; ///< pool threads inside the worker (own pool)
    bool degree_stats = false;   ///< also collect the O(n) degree summary
    std::string rank_path;       ///< binary edge file to write; empty = stats only
};

/// Executes one rank job: runs `pe::run_chunked` over the job's chunk range
/// into the rank file (when requested) plus local statistics sinks, and
/// returns the finished RankReport (ok == true). The rank-execution core
/// of the worker session both transports run. Throws on any failure; the
/// caller owns turning that into a failure report.
RankReport execute_rank_job(const Config& cfg, const RankJob& job);

} // namespace dist
} // namespace kagen
