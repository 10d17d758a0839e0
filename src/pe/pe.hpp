/// \file pe.hpp
/// \brief Chunked execution engine: the thread pool and `run_chunked` behind
///        kagen::generate_chunked, plus the per-PE union oracles tests use.
///
/// The paper's generators are communication-free: each MPI rank computes its
/// part of the graph as a pure function of (rank, P, seed, parameters).
/// There is one entry point for that function, `kagen::generate(cfg, rank,
/// size[, sink])` (kagen.hpp); this engine is how a whole graph runs on one
/// machine. `run_chunked` invokes a chunk function once per *logical chunk*
/// (same rank-splitting math as PEs — a chunk id simply plays the rank role)
/// and schedules K·P chunks over a persistent thread pool. Finer chunks
/// mean better load balancing at identical output: chunk results are
/// delivered to the sink in canonical chunk order, so the edge stream is
/// bit-identical whether the run used 1 thread or 64, 1 chunk per PE or 16.
/// DESIGN.md §1 argues why this preserves the paper's behaviour, §5 has the
/// chunking argument.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/edge_list.hpp"
#include "sink/edge_sink.hpp"

namespace kagen::pe {

class SlabArena; // pe/arena.hpp (slabs behind the ordered path's chunk buffers)

/// Deduplicated, canonicalized union of all per-PE undirected outputs.
EdgeList union_undirected(const std::vector<EdgeList>& per_pe);

/// Deduplicated, sorted union of directed outputs.
EdgeList union_directed(const std::vector<EdgeList>& per_pe);

// ---------------------------------------------------------------------------
// Persistent thread pool with ascending ticket dispatch
// ---------------------------------------------------------------------------

/// Fixed-size pool whose workers persist across parallel sections (thread
/// spin-up would otherwise dominate chunk-granular scheduling). Participants
/// draw tickets from one shared counter, and ticket k is the k-th group of
/// adjacent tasks in ascending order: tasks start in canonical order, so
/// they also complete close to it, and an idle participant simply draws
/// the next ticket — no per-participant ranges, no stealing. `parallel_for`
/// is not reentrant from worker threads; nested calls degrade to inline
/// sequential execution.
class ThreadPool {
public:
    /// \param num_threads worker threads in addition to the caller;
    ///        0 = hardware_concurrency() - 1.
    explicit ThreadPool(u64 num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&)            = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Maximum participants of a parallel section (workers + caller).
    u64 num_threads() const;

    /// Executes fn(task) for every task in [0, num_tasks), using at most
    /// `max_workers` participants (0 = all). Returns when every task has
    /// completed. Deterministic per task; completion order is not.
    ///
    /// A ticket covers a group of `deal_granularity` consecutive tasks
    /// (0/1 = one task), and a whole group runs on the participant that
    /// drew its ticket — the affinity knob the chunked engine uses to keep
    /// a simulated PE's Morton-contiguous chunk block on one worker (see
    /// ChunkOptions::deal_granularity). `deal_phase` shifts the group grid:
    /// group starts sit at task == deal_phase (mod deal_granularity), so
    /// the first group is the partial [0, deal_phase) for callers whose
    /// task 0 maps to a mid-group absolute id (a distributed rank's chunk
    /// subrange). The makespan cost of grouping is at most one group.
    void parallel_for(u64 num_tasks, u64 max_workers, const std::function<void(u64)>& fn,
                      u64 deal_granularity = 1, u64 deal_phase = 0);

    /// Lazily constructed process-wide pool (hardware_concurrency threads).
    static ThreadPool& global();

private:
    struct Impl;
    Impl* impl_;
};

// ---------------------------------------------------------------------------
// Chunked execution engine
// ---------------------------------------------------------------------------

/// Execution shape of a chunked run.
struct ChunkOptions {
    u64 num_pes       = 1; ///< simulated PEs P (worker-parallelism cap)
    u64 chunks_per_pe = 1; ///< K: logical chunks per PE
    u64 total_chunks  = 0; ///< canonical chunk count; 0 = K·P. Pinning this
                           ///< makes the output independent of P and K.
    u64 threads       = 0; ///< worker cap; 0 = min(P, hardware threads)
    ThreadPool* pool  = nullptr; ///< pool to run on; null = global()

    /// Ordered-delivery byte budget: chunks that complete ahead of the
    /// delivery cursor may hold at most this many resident edge bytes
    /// before further out-of-window chunks spill to disk (sink/spill.hpp)
    /// and are replayed in canonical order. 0 = unbounded (no spilling).
    /// Output is byte-identical either way; peak resident chunk-buffer
    /// memory is bounded by `max_buffered_bytes` + one chunk.
    u64 max_buffered_bytes = 0;

    /// Spill scratch file location; empty = anonymous temp file under
    /// $TMPDIR. Only used when `max_buffered_bytes` > 0.
    std::string spill_path;

    /// Canonical chunk subrange [chunk_begin, chunk_end) to execute;
    /// `chunk_end == 0` means "through the last chunk". The decomposition
    /// itself is untouched — `fn` still receives (chunk, num_chunks) against
    /// the full canonical chunk count — so the edge stream of a subrange run
    /// is exactly the corresponding slice of the whole-graph stream. This is
    /// what lets a distributed rank (dist/runner.hpp) generate its
    /// contiguous share of the decomposition in isolation: concatenating the
    /// per-rank streams in rank order reproduces the single-process output
    /// byte for byte, with zero communication.
    u64 chunk_begin = 0;
    u64 chunk_end   = 0;

    /// External chunk arena to run on; null = a per-run arena of
    /// SlabArena::kDefaultSlabBytes slabs. Passing one keeps slab mappings
    /// warm across runs (the steady-state zero-allocation property then
    /// spans runs, not just chunks) — the future daemon's mode, and what
    /// the allocation-gate test drives — and is how a caller picks another
    /// slab size (tests force multi-slab chunks with 4 KiB slabs).
    SlabArena* arena = nullptr;

    /// Affinity-aware dispatch: each pool ticket covers a group of this
    /// many consecutive chunks, run whole by one worker. The
    /// geometric models map consecutive chunk ids to contiguous Morton cell
    /// ranges, so a granularity of K = chunks_per_pe keeps each simulated
    /// PE's spatially compact chunk block on one worker — adjacent chunks
    /// share split-tree ancestry and halo cells, so the worker's caches
    /// stay warm across its whole block (ROADMAP "NUMA / affinity"). 0/1 =
    /// one chunk per ticket. Scheduling only: the output stream is
    /// byte-identical for every value.
    u64 deal_granularity = 1;
};

/// Generator body of one logical chunk: stream chunk `chunk` of
/// `num_chunks` into `sink`. Must be pure in (chunk, num_chunks).
using ChunkFn = std::function<void(u64 chunk, u64 num_chunks, EdgeSink& sink)>;

struct ChunkRunStats {
    u64 num_chunks = 0;    ///< canonical chunks executed
    u64 workers    = 0;    ///< parallel participants used
    double seconds = 0.0;  ///< wall clock of the parallel section (makespan)

    // Ordered-delivery accounting (all zero for unordered sinks and for
    // single-worker runs, which stream chunks straight into the sink with
    // no chunk buffers at all — DESIGN.md §9).
    u64 peak_buffered_bytes = 0; ///< max resident chunk-buffer bytes
                                 ///< (parked + in-flight) at any instant
    u64 spilled_chunks = 0;      ///< chunks parked on disk
    u64 spilled_bytes  = 0;      ///< edge bytes written to the spill file

    // The chunk arena's accounting (slab reuse, fresh slabs, chains) lives
    // only in the metrics registry: run_chunked adds this run's deltas to
    // the `pe.arena.*` counters (DESIGN.md §13).
};

/// Runs every canonical chunk through `fn` and streams the results into
/// `sink`. Ordered sinks receive chunks in canonical order (bit-identical
/// output for any thread count). With one effective worker the engine
/// streams each chunk *directly* into the sink — canonical order is
/// automatic, so no chunk is ever materialized (zero chunk buffers, zero
/// copies; DESIGN.md §9). With several workers, each chunk is generated
/// straight into a chain of arena slabs (pe/arena.hpp) and parks there —
/// or, past `max_buffered_bytes`, on disk. A worker that finds the chunk
/// at the delivery cursor ready becomes the single drainer (one CAS on a
/// flag; there is no lock) and streams the contiguous ready prefix into
/// the sink, while the other workers keep generating and never wait on
/// sink I/O. Unordered sinks (`ordered() == false`) get concurrent
/// delivery with O(buffer) memory per worker. The caller is responsible
/// for `sink.finish()`.
ChunkRunStats run_chunked(const ChunkOptions& opt, const ChunkFn& fn, EdgeSink& sink);

} // namespace kagen::pe
