// Hot-path scheduling + slab recycling (DESIGN.md §9, §14): chunk buffers
// over a SlabArena, recycled multi-worker ordered delivery
// (byte-identical to sequential, recycling engaged — including in
// bounded-memory mode, where released slabs decommit instead of the pool
// switching off), ascending ticket dispatch (tasks start in canonical
// order; a group runs whole on one thread), and affinity-aware deal
// granularity (every task exactly once, identical output).
// ctest label: pool (re-run under ASan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "kagen.hpp"
#include "obs/metrics.hpp"
#include "pe/arena.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

namespace kagen {
namespace {

EdgeList some_edges(u64 count, u64 salt = 0) {
    EdgeList edges;
    edges.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        edges.emplace_back((i * 7 + salt) % 101, (i * 31 + salt * 13 + 5) % 97);
    }
    return edges;
}

// ---------------------------------------------------------------------------
// Chunk buffers over a SlabArena (the slab-level freelist, decommit and
// fallback cases live in test_arena.cpp)
// ---------------------------------------------------------------------------

TEST(ArenaChunkBuffers, RecyclesSlabsAndCountsHits) {
    pe::SlabArena arena;

    pe::ChunkBuffer a(&arena);
    EXPECT_EQ(arena.slabs_reserved(), 0u) << "no slab until first write";

    const EdgeList src = some_edges(1000);
    a.append(src.data(), src.size());
    EXPECT_EQ(arena.slabs_reserved(), 1u);
    EXPECT_EQ(arena.freelist_hits(), 0u);
    const Edge* data = nullptr;
    a.for_each_segment([&](EdgeSpan seg) { data = seg.data; });
    ASSERT_NE(data, nullptr);
    a.release();
    EXPECT_EQ(arena.freelist_size(), 1u);

    pe::ChunkBuffer b(&arena);
    b.append(src.data(), src.size());
    EXPECT_EQ(arena.freelist_hits(), 1u);
    EXPECT_EQ(arena.slabs_reserved(), 1u) << "reuse must not map a new slab";
    const Edge* data2 = nullptr;
    b.for_each_segment([&](EdgeSpan seg) { data2 = seg.data; });
    EXPECT_EQ(data2, data) << "freelist must hand back the same slab";
}

TEST(ArenaChunkBuffers, FreelistHoldsAllReleasedSlabs) {
    // The arena has no retention cap: a released slab keeps its mapping on
    // the freelist for the lifetime of the arena (bounded-memory runs
    // decommit the payload pages instead of unmapping).
    pe::SlabArena arena;
    const EdgeList src = some_edges(16);
    std::vector<pe::ChunkBuffer> bufs;
    for (int i = 0; i < 5; ++i) {
        pe::ChunkBuffer b(&arena);
        b.append(src.data(), src.size());
        bufs.push_back(std::move(b));
    }
    for (auto& b : bufs) b.release();
    EXPECT_EQ(arena.freelist_size(), 5u);
    EXPECT_EQ(arena.slabs_reserved(), 5u);
}

TEST(ArenaChunkBuffers, UntouchedBuffersHoldNoSlab) {
    pe::SlabArena arena;
    pe::ChunkBuffer b(&arena);
    EXPECT_EQ(b.slabs_held(), 0u);
    b.release(); // nothing to hand back
    EXPECT_EQ(arena.freelist_size(), 0u);
    EXPECT_EQ(arena.slabs_reserved(), 0u);
}

// ---------------------------------------------------------------------------
// Recycled ordered delivery through pe::run_chunked
// ---------------------------------------------------------------------------

/// A `pe.arena.*` registry counter; run_chunked adds each run's delta.
u64 arena_counter(const char* name) {
    return obs::Registry::global().counter(name).value();
}

pe::ChunkFn chunk_fn() {
    return [](u64 chunk, u64 /*num_chunks*/, EdgeSink& sink) {
        for (const auto& e : some_edges(200 + (chunk * 53) % 300, chunk)) {
            sink.emit(e);
        }
    };
}

TEST(RecycledDelivery, MultiWorkerOutputMatchesSequentialAndRecycles) {
    constexpr u64 kChunks = 24;
    pe::ThreadPool pool(3);

    MemorySink ref_sink;
    pe::ChunkOptions seq;
    seq.num_pes      = kChunks;
    seq.total_chunks = kChunks;
    seq.threads      = 1;
    seq.pool         = &pool;
    pe::run_chunked(seq, chunk_fn(), ref_sink);
    const EdgeList reference = ref_sink.take();

    // Whoever delivers chunk 0 releases its slab before acquiring one for
    // its next chunk, so a run recycles unless that participant happened to
    // execute no further chunk — a schedule so extreme that three
    // attempts hitting it in a row indicates a real regression.
    u64 recycled = 0;
    for (int attempt = 0; attempt < 3 && recycled == 0; ++attempt) {
        pe::ChunkOptions opt = seq;
        opt.threads          = 4;
        const u64 hits0      = arena_counter("pe.arena.freelist_hits");
        const u64 reserved0  = arena_counter("pe.arena.slabs_reserved");
        const u64 chains0    = arena_counter("pe.arena.chains");
        MemorySink sink;
        pe::run_chunked(opt, chunk_fn(), sink);
        EXPECT_EQ(sink.take(), reference);
        recycled           = arena_counter("pe.arena.freelist_hits") - hits0;
        const u64 reserved = arena_counter("pe.arena.slabs_reserved") - reserved0;
        // Every chunk here fits one slab, so exactly one slab per chunk.
        EXPECT_EQ(recycled + reserved, kChunks) << "every chunk binds exactly one slab";
        EXPECT_EQ(arena_counter("pe.arena.chains"), chains0);
    }
    EXPECT_GT(recycled, 0u) << "arena never recycled a slab";
}

TEST(RecycledDelivery, BoundedMemoryModeKeepsRecyclingAndPeakBound) {
    // Regression for the PR-5 special case this arena removed: bounded
    // runs used to disable the pool because retained vector capacity was
    // resident memory the budget accounting could not see. Slabs decommit
    // their payload pages on release instead (pe/arena.hpp), so recycling
    // stays on AND the documented budget + one-chunk peak bound still
    // holds exactly.
    constexpr u64 kChunks = 16;
    pe::ThreadPool pool(3);

    pe::ChunkOptions opt;
    opt.num_pes            = kChunks;
    opt.total_chunks       = kChunks;
    opt.threads            = 4;
    opt.pool               = &pool;
    opt.max_buffered_bytes = 64;

    MemorySink ref_sink;
    pe::ChunkOptions seq = opt;
    seq.threads          = 1;
    seq.max_buffered_bytes = 0;
    pe::run_chunked(seq, chunk_fn(), ref_sink);
    const EdgeList reference = ref_sink.take();

    u64 max_chunk_bytes = 0;
    for (u64 c = 0; c < kChunks; ++c) {
        max_chunk_bytes =
            std::max<u64>(max_chunk_bytes, (200 + (c * 53) % 300) * sizeof(Edge));
    }

    u64 recycled = 0;
    for (int attempt = 0; attempt < 3 && recycled == 0; ++attempt) {
        const u64 hits0 = arena_counter("pe.arena.freelist_hits");
        MemorySink sink;
        const auto stats = pe::run_chunked(opt, chunk_fn(), sink);
        EXPECT_EQ(sink.take(), reference);
        EXPECT_LE(stats.peak_buffered_bytes,
                  opt.max_buffered_bytes + max_chunk_bytes)
            << "budget + one chunk bound violated";
        recycled = arena_counter("pe.arena.freelist_hits") - hits0;
    }
    EXPECT_GT(recycled, 0u) << "bounded mode must keep slab recycling on";
}

TEST(RecycledDelivery, SingleWorkerStreamsWithoutChunkBuffers) {
    // workers == 1 takes the direct-streaming path: no chunk buffers at
    // all, so the arena counters do not move and the buffered-bytes peak
    // stays zero.
    pe::ThreadPool pool(3);
    pe::ChunkOptions opt;
    opt.num_pes      = 8;
    opt.total_chunks = 8;
    opt.threads      = 1;
    opt.pool         = &pool;
    const u64 hits0     = arena_counter("pe.arena.freelist_hits");
    const u64 reserved0 = arena_counter("pe.arena.slabs_reserved");
    MemorySink sink;
    const auto stats = pe::run_chunked(opt, chunk_fn(), sink);
    EXPECT_EQ(stats.workers, 1u);
    EXPECT_EQ(arena_counter("pe.arena.freelist_hits"), hits0);
    EXPECT_EQ(arena_counter("pe.arena.slabs_reserved"), reserved0);
    EXPECT_EQ(stats.peak_buffered_bytes, 0u);
    EXPECT_EQ(sink.edges().size(), [&] {
        u64 total = 0;
        for (u64 c = 0; c < 8; ++c) total += 200 + (c * 53) % 300;
        return total;
    }());
}

// ---------------------------------------------------------------------------
// Ascending ticket dispatch
// ---------------------------------------------------------------------------

/// Uneven busy work, so participants drift apart in time.
void spin(u64 task) {
    volatile u64 sink = 0;
    for (u64 i = 0; i < 2000 + (task * 7919) % 20000; ++i) sink = sink + i;
}

TEST(Pool, TicketsRunGroupsInAscendingOrder) {
    pe::ThreadPool pool(3);
    const u64 W = pool.num_threads();

    // Granularity 1: tasks 0..t-1 were all claimed before task t, and each
    // of the other W-1 participants holds at most one of them unfinished,
    // so at least t-W+1 have completed — under any timing. A contiguous
    // deal breaks this at once (participant 1 starts task n/W first).
    constexpr u64 kTasks = 400;
    std::atomic<u64> completed{0};
    std::atomic<u64> violations{0};
    pool.parallel_for(kTasks, 0, [&](u64 t) {
        if (t >= W && completed.load() < t - W + 1) violations.fetch_add(1);
        spin(t);
        completed.fetch_add(1);
    });
    EXPECT_EQ(completed.load(), kTasks);
    EXPECT_EQ(violations.load(), 0u) << "a task started ahead of its ticket order";

    // Granularity G with a nonzero phase: groups are [0, phase) and then
    // [phase + kG, phase + (k+1)G). Each group runs contiguously on one
    // thread, and each thread's tasks (hence its groups) ascend.
    for (const u64 phase : {u64{0}, u64{3}}) {
        constexpr u64 kGroupTasks = 103;
        constexpr u64 G           = 5;
        std::mutex m;
        std::map<std::thread::id, std::vector<u64>> per_thread;
        std::vector<std::thread::id> owner(kGroupTasks);
        pool.parallel_for(kGroupTasks, 0, [&](u64 t) {
            {
                std::lock_guard<std::mutex> lock(m);
                per_thread[std::this_thread::get_id()].push_back(t);
                owner[t] = std::this_thread::get_id();
            }
            spin(t);
        }, G, phase);
        const auto group_of = [&](u64 t) {
            return phase == 0 ? t / G : (t < phase ? 0 : 1 + (t - phase) / G);
        };
        for (u64 t = 1; t < kGroupTasks; ++t) {
            if (group_of(t) == group_of(t - 1)) {
                EXPECT_EQ(owner[t], owner[t - 1])
                    << "group " << group_of(t) << " split at task " << t
                    << " (phase " << phase << ")";
            }
        }
        u64 seen = 0;
        for (const auto& [id, tasks] : per_thread) {
            EXPECT_TRUE(std::is_sorted(tasks.begin(), tasks.end()))
                << "a thread's groups must ascend (phase " << phase << ")";
            seen += tasks.size();
        }
        EXPECT_EQ(seen, kGroupTasks);
    }
}

// ---------------------------------------------------------------------------
// Affinity-aware deal granularity
// ---------------------------------------------------------------------------

TEST(AffinityDeal, EveryTaskRunsExactlyOnceForAnyGranularityAndPhase) {
    pe::ThreadPool pool(3);
    for (const u64 tasks : {u64{1}, u64{7}, u64{24}, u64{100}}) {
        for (const u64 granularity : {u64{0}, u64{1}, u64{3}, u64{4}, u64{64}}) {
            for (const u64 phase : {u64{0}, u64{1}, u64{2}}) {
                std::vector<std::atomic<u64>> hits(tasks);
                for (auto& h : hits) h.store(0);
                pool.parallel_for(
                    tasks, 0, [&](u64 t) { hits[t].fetch_add(1); }, granularity,
                    phase);
                for (u64 t = 0; t < tasks; ++t) {
                    EXPECT_EQ(hits[t].load(), 1u)
                        << "task " << t << " tasks=" << tasks
                        << " granularity=" << granularity << " phase=" << phase;
                }
            }
        }
    }
}

TEST(AffinityDeal, SubrangeRunsAnchorGroupsToAbsoluteChunkIds) {
    // A distributed rank's chunk subrange may start mid-group; the engine
    // must shift the task-space group grid so groups still align to
    // absolute chunk-id multiples of the granularity — and the output is
    // the exact slice either way.
    constexpr u64 kChunks = 30;
    pe::ThreadPool pool(3);

    MemorySink ref_sink;
    pe::ChunkOptions seq;
    seq.num_pes      = kChunks;
    seq.total_chunks = kChunks;
    seq.threads      = 1;
    seq.pool         = &pool;
    seq.chunk_begin  = 5; // not a multiple of the granularity below
    seq.chunk_end    = 29;
    pe::run_chunked(seq, chunk_fn(), ref_sink);

    pe::ChunkOptions opt = seq;
    opt.threads          = 4;
    opt.deal_granularity = 4;
    MemorySink sink;
    pe::run_chunked(opt, chunk_fn(), sink);
    EXPECT_EQ(sink.take(), ref_sink.take());
}

TEST(AffinityDeal, GranularityPreservesOrderedOutput) {
    constexpr u64 kChunks = 30;
    pe::ThreadPool pool(3);

    MemorySink ref_sink;
    pe::ChunkOptions seq;
    seq.num_pes      = kChunks;
    seq.total_chunks = kChunks;
    seq.threads      = 1;
    seq.pool         = &pool;
    pe::run_chunked(seq, chunk_fn(), ref_sink);
    const EdgeList reference = ref_sink.take();

    for (const u64 granularity : {u64{2}, u64{5}, u64{30}}) {
        pe::ChunkOptions opt  = seq;
        opt.threads           = 4;
        opt.deal_granularity  = granularity;
        MemorySink sink;
        pe::run_chunked(opt, chunk_fn(), sink);
        EXPECT_EQ(sink.take(), reference) << "granularity=" << granularity;
    }
}

TEST(AffinityDeal, GeometricModelsRequestChunkGroupDeal) {
    Config cfg;
    cfg.model         = Model::Rgg2D;
    cfg.chunks_per_pe = 4;
    EXPECT_EQ(chunk_deal_granularity(cfg), 4u);
    cfg.model = Model::Rdg3D;
    EXPECT_EQ(chunk_deal_granularity(cfg), 4u);
    cfg.model = Model::GnmDirected;
    EXPECT_EQ(chunk_deal_granularity(cfg), 1u)
        << "non-spatial models keep the plain deal";
    cfg.model         = Model::Rgg3D;
    cfg.chunks_per_pe = 0;
    EXPECT_EQ(chunk_deal_granularity(cfg), 1u);
}

} // namespace
} // namespace kagen
