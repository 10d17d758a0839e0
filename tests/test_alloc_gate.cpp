// Steady-state allocation gate (DESIGN.md §14): the arena-backed chunk
// pipeline must perform ZERO malloc/free per chunk and per edge in the
// emit→deliver→write loop. Counting absolute allocations is brittle (the
// registry mirror and per-run scaffolding make a small constant number of
// allocations per *run*), so the gate asserts the sharp property instead:
// with a warm external arena, the interposed global-new count is
// **independent of the chunk count and of the edge count** — i.e. the
// per-chunk and per-edge marginal allocation cost is exactly zero.
//
// Measurement: all operator new/delete variants are interposed in this
// binary. Counts are compared as the MAX over several samples per config,
// with a small fixed schedule slack: the one legitimate per-run variance is
// `ParticipantStats::flush` (pe.cpp), which builds a handful of heap string
// temporaries per *flushing participant*, and which of the 3 participants
// flush depends on the schedule — at most ~7 allocations × 3
// participants of jitter, independent of chunk and edge counts. The slack
// (kScheduleSlack) covers that full span; a real per-chunk leak costs at
// least one allocation per added chunk (84 across the 12→96 sweep), an
// order of magnitude above it.
//
// Generator internals are out of the pipeline's scope (some models allocate
// per chunk inside `generate`); the model runs suppress counting inside the
// generator call only — emit/consume/deliver on the worker threads outside
// it stay measured. The synthetic run uses an allocation-free ChunkFn with
// no suppression at all, gating the full engine end to end; so does the
// R-MAT run, whose generator makes no heap allocation.
//
// Skipped under ASan/TSan: sanitizer runtimes replace operator new and
// allocate internally, so interposition counts would measure the sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "er/er.hpp"
#include "kagen.hpp"
#include "pe/arena.hpp"
#include "pe/pe.hpp"
#include "sampling/sampling.hpp"
#include "sink/sinks.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KAGEN_ALLOC_GATE_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#ifndef KAGEN_ALLOC_GATE_DISABLED
#define KAGEN_ALLOC_GATE_DISABLED 1
#endif
#endif
#endif

namespace alloc_gate {

std::atomic<unsigned long long> g_count{0};
std::atomic<bool> g_armed{false};
thread_local bool t_suppress = false;

inline void note() {
    if (g_armed.load(std::memory_order_relaxed) && !t_suppress) {
        g_count.fetch_add(1, std::memory_order_relaxed);
    }
}

/// Scopes out generator-internal allocations on the calling thread.
struct SuppressGuard {
    SuppressGuard() { t_suppress = true; }
    ~SuppressGuard() { t_suppress = false; }
};

} // namespace alloc_gate

#ifndef KAGEN_ALLOC_GATE_DISABLED

void* operator new(std::size_t size) {
    alloc_gate::note();
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    alloc_gate::note();
    return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
    return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
    alloc_gate::note();
    const std::size_t a =
        std::max(static_cast<std::size_t>(align), sizeof(void*));
    void* p = nullptr;
    if (posix_memalign(&p, a, size ? size : a) != 0) throw std::bad_alloc();
    return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

#endif // !KAGEN_ALLOC_GATE_DISABLED

namespace kagen {
namespace {

#ifdef KAGEN_ALLOC_GATE_DISABLED
#define KAGEN_ALLOC_GATE_SKIP() \
    GTEST_SKIP() << "allocation interposition disabled under sanitizers"
#else
#define KAGEN_ALLOC_GATE_SKIP() (void)0
#endif

constexpr int kSamples = 8;

/// Permitted per-run jitter from the participant-stats flush (see file
/// comment): ≤ ~7 string temporaries × 3 participants, rounded up.
constexpr unsigned long long kScheduleSlack = 24;

::testing::AssertionResult counts_close(unsigned long long a,
                                        unsigned long long b) {
    const unsigned long long diff = a > b ? a - b : b - a;
    if (diff <= kScheduleSlack) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " vs " << b << " differ by " << diff
           << " allocations (> schedule slack " << kScheduleSlack << ")";
}

/// Pre-reserves `slabs` arena slabs (unarmed), so armed runs never take the
/// fresh-mapping path: every acquire is a freelist hit and the arena's
/// bookkeeping vector never grows mid-measurement.
void prewarm_arena(pe::SlabArena& arena, u64 slabs) {
    std::vector<pe::Slab*> held;
    held.reserve(slabs);
    for (u64 i = 0; i < slabs; ++i) held.push_back(arena.acquire());
    for (pe::Slab* s : held) arena.release(s);
}

/// One armed run on the warm external arena: P=4, K=3, threads=3 per the
/// gate's pinned configuration; `total_chunks` scales the chunk count
/// without touching anything else.
unsigned long long armed_run(pe::ThreadPool& pool, pe::SlabArena& arena,
                             u64 total_chunks, const pe::ChunkFn& fn,
                             EdgeSink& sink) {
    pe::ChunkOptions opt;
    opt.num_pes       = 4;
    opt.chunks_per_pe = 3;
    opt.total_chunks  = total_chunks;
    opt.threads       = 3;
    opt.pool          = &pool;
    opt.arena         = &arena;
    alloc_gate::g_count.store(0);
    alloc_gate::g_armed.store(true);
    pe::run_chunked(opt, fn, sink);
    alloc_gate::g_armed.store(false);
    return alloc_gate::g_count.load();
}

/// Deterministic all-participants-flushed ceiling for one configuration.
template <typename MakeSinkFn>
unsigned long long max_count(pe::ThreadPool& pool, pe::SlabArena& arena,
                             u64 total_chunks, const pe::ChunkFn& fn,
                             MakeSinkFn&& make_sink) {
    unsigned long long best = 0;
    for (int i = 0; i < kSamples; ++i) {
        auto sink = make_sink();
        best      = std::max(best, armed_run(pool, arena, total_chunks, fn, *sink));
        sink->finish();
    }
    return best;
}

/// Ordered sink with no per-batch work but a data dependency on the
/// delivered payload (so delivery cannot be elided).
class OrderedTouchSink final : public EdgeSink {
public:
    u64 checksum = 0;

protected:
    void consume(const Edge* edges, std::size_t count) override {
        for (std::size_t i = 0; i < count; ++i) {
            checksum += edges[i].first ^ edges[i].second;
        }
    }
};

/// ChunkFn wrapping the real generators with generator-internal
/// allocations suppressed (see file comment).
pe::ChunkFn model_fn(Config cfg) {
    return [cfg](u64 chunk, u64 num_chunks, EdgeSink& sink) {
        alloc_gate::SuppressGuard guard;
        generate(cfg, chunk, num_chunks, sink);
    };
}

TEST(AllocGate, SyntheticPipelineZeroMarginalAllocations) {
    KAGEN_ALLOC_GATE_SKIP();
    pe::ThreadPool pool(2); // 3 participants = opt.threads
    pe::SlabArena arena;
    prewarm_arena(arena, 128);

    // Allocation-free body, NOT suppressed: the armed count covers the
    // whole engine including emit/consume on the worker threads.
    const pe::ChunkFn fn = [](u64 chunk, u64 /*num_chunks*/, EdgeSink& sink) {
        const u64 n = 300 + (chunk * 97) % 500;
        for (u64 i = 0; i < n; ++i) {
            sink.emit((chunk * 1315423911ull + i) % 4096,
                      (i * 2654435761ull + chunk) % 4096);
        }
    };
    const auto make_sink = [] { return std::make_unique<OrderedTouchSink>(); };

    // Warm-up at the largest scale (slabs mapped, registry keys interned,
    // worker TLS up), unarmed.
    {
        OrderedTouchSink warm;
        pe::ChunkOptions opt;
        opt.num_pes       = 4;
        opt.chunks_per_pe = 3;
        opt.total_chunks  = 96;
        opt.threads       = 3;
        opt.pool          = &pool;
        opt.arena         = &arena;
        pe::run_chunked(opt, fn, warm);
        warm.finish();
    }

    const auto small = max_count(pool, arena, 12, fn, make_sink);
    const auto big   = max_count(pool, arena, 96, fn, make_sink);
    EXPECT_TRUE(counts_close(small, big))
        << "8x the chunks changed the allocation count: the pipeline "
           "allocates per chunk (steady state must be zero)";
    const auto again = max_count(pool, arena, 96, fn, make_sink);
    EXPECT_TRUE(counts_close(big, again))
        << "allocation count must be reproducible";
}

TEST(AllocGate, GnmPipelineIndependentOfChunksAndEdges) {
    KAGEN_ALLOC_GATE_SKIP();
    pe::ThreadPool pool(2);
    pe::SlabArena arena;
    prewarm_arena(arena, 128);

    const std::string path = std::string("/tmp/kagen_alloc_gate_") +
                             std::to_string(::getpid()) + ".bin";
    const auto make_sink = [&path] {
        return std::make_unique<BinaryFileSink>(path);
    };

    for (const SamplerVersion version : {SamplerVersion::v1, SamplerVersion::v2}) {
        SCOPED_TRACE(version == SamplerVersion::v1 ? "sampler v1" : "sampler v2");
        Config cfg;
        cfg.model           = Model::GnmUndirected;
        cfg.n               = 4000;
        cfg.m               = 16000;
        cfg.seed            = 7;
        cfg.sampler_version = version;
        Config cfg4m = cfg;
        cfg4m.m      = 64000;

        const pe::ChunkFn fn    = model_fn(cfg);
        const pe::ChunkFn fn_4m = model_fn(cfg4m);

        { // warm-up at the largest scale, unarmed
            BinaryFileSink warm(path);
            pe::ChunkOptions opt;
            opt.num_pes       = 4;
            opt.chunks_per_pe = 3;
            opt.total_chunks  = 48;
            opt.threads       = 3;
            opt.pool          = &pool;
            opt.arena         = &arena;
            pe::run_chunked(opt, fn_4m, warm);
            warm.finish();
        }

        const auto base        = max_count(pool, arena, 12, fn, make_sink);
        const auto more_chunks = max_count(pool, arena, 48, fn, make_sink);
        const auto more_edges  = max_count(pool, arena, 12, fn_4m, make_sink);
        EXPECT_TRUE(counts_close(base, more_chunks))
            << "G(n,m): allocations scale with chunks";
        EXPECT_TRUE(counts_close(base, more_edges))
            << "G(n,m): allocations scale with edges";
    }
    std::remove(path.c_str());
}

TEST(AllocGate, SamplerV2MakesNoHeapAllocation) {
    // The G(n,m) run above suppresses counting inside the generator; this
    // gates the v2 sampler itself, unsuppressed: the halving recursion,
    // the stack-resident leaves (sparse, with duplicate top-ups, and
    // Method A) and universes past the 2^50 leaf cap.
    KAGEN_ALLOC_GATE_SKIP();
    struct Shape {
        u64 universe, k;
    };
    const Shape shapes[] = {{u64{1} << 40, u64{1} << 16}, {14 * 4096, 4096},
                            {100000, 40000}, {u64{1} << 60, 5000}};
    u64 checksum = 0;
    alloc_gate::g_count.store(0);
    alloc_gate::g_armed.store(true);
    for (const Shape& s : shapes) {
        Rng rng(s.universe ^ s.k);
        sorted_sample(rng, s.universe, s.k, [&](u64 x) { checksum += x; },
                      SamplerVersion::v2);
    }
    alloc_gate::g_armed.store(false);
    EXPECT_EQ(alloc_gate::g_count.load(), 0u);
    EXPECT_NE(checksum, 0u);
}

TEST(AllocGate, RowDecoderBlockPathMakesNoHeapAllocation) {
    // The G(n,m)/G(n,p) emit path, unsuppressed: every engine's position
    // blocks (v2 leaves with and without top-ups, v2 dense leaves, v1's
    // stack block, the Bernoulli stream) through the row decoder into a
    // sink's inline buffer. The sink's buffer is allocated before arming.
    KAGEN_ALLOC_GATE_SKIP();
    CountingSink sink;
    const u64 width = (u64{1} << 20) - 1;
    const er::RowDecoder rows(width, 0, 0, true, sink);
    alloc_gate::g_count.store(0);
    alloc_gate::g_armed.store(true);
    struct Shape {
        u64 universe, k;
    };
    for (const Shape s : {Shape{width << 10, u64{1} << 16}, Shape{14 * 4096, 4000},
                          Shape{40000, 4000}}) {
        for (const SamplerVersion v : {SamplerVersion::v1, SamplerVersion::v2}) {
            Rng rng(s.universe ^ s.k);
            sorted_sample_blocks(rng, s.universe, s.k, rows, v);
        }
    }
    Rng rng(3);
    bernoulli_sample_blocks(rng, width << 10, 1.0 / 4096, rows);
    sink.flush();
    alloc_gate::g_armed.store(false);
    EXPECT_EQ(alloc_gate::g_count.load(), 0u);
    EXPECT_GT(sink.num_edges(), 2 * (u64{1} << 16));
}

TEST(AllocGate, RmatPipelineIndependentOfChunksAndEdges) {
    KAGEN_ALLOC_GATE_SKIP();
    pe::ThreadPool pool(2);
    pe::SlabArena arena;
    prewarm_arena(arena, 128);

    Config cfg;
    cfg.model = Model::Rmat;
    cfg.n     = 4096;
    cfg.m     = 16000;
    cfg.seed  = 7;
    Config cfg4m = cfg;
    cfg4m.m      = 64000;

    const std::string path = std::string("/tmp/kagen_alloc_gate_rmat_") +
                             std::to_string(::getpid()) + ".bin";
    const auto make_sink = [&path] {
        return std::make_unique<BinaryFileSink>(path);
    };

    // Not suppressed: R-MAT keeps its alias table on the stack, so the
    // generator itself is under the gate, not only the pipeline around it.
    const auto unsuppressed = [](Config c) -> pe::ChunkFn {
        return [c](u64 chunk, u64 num_chunks, EdgeSink& sink) {
            generate(c, chunk, num_chunks, sink);
        };
    };
    const pe::ChunkFn fn    = unsuppressed(cfg);
    const pe::ChunkFn fn_4m = unsuppressed(cfg4m);

    { // warm-up at the largest scale, unarmed
        BinaryFileSink warm(path);
        pe::ChunkOptions opt;
        opt.num_pes       = 4;
        opt.chunks_per_pe = 3;
        opt.total_chunks  = 48;
        opt.threads       = 3;
        opt.pool          = &pool;
        opt.arena         = &arena;
        pe::run_chunked(opt, fn_4m, warm);
        warm.finish();
    }

    const auto base        = max_count(pool, arena, 12, fn, make_sink);
    const auto more_chunks = max_count(pool, arena, 48, fn, make_sink);
    const auto more_edges  = max_count(pool, arena, 12, fn_4m, make_sink);
    EXPECT_TRUE(counts_close(base, more_chunks))
        << "R-MAT: allocations scale with chunks";
    EXPECT_TRUE(counts_close(base, more_edges))
        << "R-MAT: allocations scale with edges";
    std::remove(path.c_str());
}

TEST(AllocGate, Rgg2DPipelineIndependentOfChunks) {
    KAGEN_ALLOC_GATE_SKIP();
    pe::ThreadPool pool(2);
    pe::SlabArena arena;
    prewarm_arena(arena, 128);

    Config cfg;
    cfg.model = Model::Rgg2D;
    cfg.n     = 3000;
    cfg.r     = 0.02;
    cfg.seed  = 11;

    const std::string path = std::string("/tmp/kagen_alloc_gate_rgg_") +
                             std::to_string(::getpid()) + ".bin";
    const auto make_sink = [&path] {
        return std::make_unique<BinaryFileSink>(path);
    };
    const pe::ChunkFn fn = model_fn(cfg);

    { // warm-up at the largest scale, unarmed
        BinaryFileSink warm(path);
        pe::ChunkOptions opt;
        opt.num_pes       = 4;
        opt.chunks_per_pe = 3;
        opt.total_chunks  = 48;
        opt.threads       = 3;
        opt.pool          = &pool;
        opt.arena         = &arena;
        pe::run_chunked(opt, fn, warm);
        warm.finish();
    }

    const auto base        = max_count(pool, arena, 12, fn, make_sink);
    const auto more_chunks = max_count(pool, arena, 48, fn, make_sink);
    const auto again       = max_count(pool, arena, 12, fn, make_sink);
    EXPECT_TRUE(counts_close(base, more_chunks))
        << "RGG2D: allocations scale with chunks";
    EXPECT_TRUE(counts_close(base, again))
        << "RGG2D: allocation count must be reproducible";
    std::remove(path.c_str());
}

} // namespace
} // namespace kagen
