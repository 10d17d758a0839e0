// Edge sinks + chunked execution engine: sink semantics, thread-pool
// correctness, engine-vs-per-rank bit-identity, chunked-vs-sequential
// determinism across PE counts and chunks-per-PE, and sink/stats agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

namespace kagen {
namespace {

// ---------------------------------------------------------------------------
// Sink units
// ---------------------------------------------------------------------------

EdgeList some_edges(u64 count) {
    EdgeList edges;
    edges.reserve(count);
    for (u64 i = 0; i < count; ++i) edges.emplace_back(i % 97, (i * 31 + 5) % 89);
    return edges;
}

TEST(MemorySink, CollectsAcrossBufferBoundaries) {
    // 2500 edges straddles multiple internal flushes (buffer is 1024).
    const EdgeList expected = some_edges(2500);
    MemorySink sink;
    for (const auto& e : expected) sink.emit(e);
    EXPECT_EQ(sink.take(), expected);
}

TEST(MemorySink, AppendsIntoExternalList) {
    EdgeList out{{7, 8}};
    MemorySink sink(&out);
    sink.emit(1, 2);
    sink.finish();
    EXPECT_EQ(out, (EdgeList{{7, 8}, {1, 2}}));
}

TEST(CountingSink, CountsEdgesAndSelfLoops) {
    CountingSink sink;
    sink.emit(0, 1);
    sink.emit(2, 2);
    sink.emit(3, 4);
    sink.emit(5, 5);
    sink.finish();
    EXPECT_EQ(sink.num_edges(), 4u);
    EXPECT_EQ(sink.num_self_loops(), 2u);
}

TEST(CountingSink, CountsSelfLoopsExactly) {
    // Batch sizes around the four-way unrolled count: empty, shorter than
    // one round, and one past the default buffer, with self loops at both
    // ends of each batch and every seventh edge in between.
    for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                   std::size_t{4097}}) {
        EdgeList batch;
        u64 loops = 0;
        for (std::size_t i = 0; i < size; ++i) {
            const bool loop = i == 0 || i + 1 == size || i % 7 == 3;
            batch.emplace_back(i, loop ? i : i + 1);
            loops += loop;
        }
        CountingSink delivered;
        delivered.deliver(batch.data(), batch.size());
        EXPECT_EQ(delivered.num_edges(), size) << "size " << size;
        EXPECT_EQ(delivered.num_self_loops(), loops) << "size " << size;

        CountingSink emitted;
        for (const auto& e : batch) emitted.emit(e);
        emitted.finish();
        EXPECT_EQ(emitted.num_edges(), size) << "size " << size;
        EXPECT_EQ(emitted.num_self_loops(), loops) << "size " << size;
    }
}

/// Records every batch `consume` receives, over a tiny inline buffer.
class BatchLog final : public EdgeSink {
public:
    explicit BatchLog(std::size_t capacity) : EdgeSink(capacity) {}
    std::vector<EdgeList> batches;

private:
    void consume(const Edge* edges, std::size_t count) override {
        batches.emplace_back(edges, edges + count);
    }
};

TEST(EdgeSink, EmitRunDeliversTheBatchesOfEmit) {
    // Runs shorter than, equal to and spanning several 3-edge buffers,
    // starting at every fill level the previous run leaves behind.
    const EdgeList edges = some_edges(40);
    BatchLog by_edge(3), by_run(3);
    for (const auto& e : edges) by_edge.emit(e);
    std::size_t next = 0;
    for (const std::size_t run : {0, 1, 2, 3, 7, 1, 9, 0, 17}) {
        by_run.emit_run(run, [&](Edge* out, std::size_t n) {
            ASSERT_GE(n, 1u);
            ASSERT_LE(n, 3u);
            for (std::size_t i = 0; i < n; ++i) out[i] = edges[next++];
        });
    }
    ASSERT_EQ(next, edges.size());
    by_edge.finish();
    by_run.finish();
    EXPECT_EQ(by_run.batches, by_edge.batches);
}

TEST(DegreeStatsSink, MatchesMaterializedDegrees) {
    const EdgeList edges = some_edges(3000);
    DegreeStatsSink sink(100);
    for (const auto& e : edges) sink.emit(e);
    sink.finish();
    EXPECT_EQ(sink.num_edges(), edges.size());
    EXPECT_EQ(sink.degrees(), degrees(edges, 100));
    const auto hist = sink.degree_histogram();
    u64 vertices    = 0;
    for (const u64 h : hist) vertices += h;
    EXPECT_EQ(vertices, 100u);
}

TEST(DegreeStatsSink, OutOfRangeEndpointThrowsWithOffendingVertex) {
    // Regression: an endpoint >= n (corrupt input file, miscounted n) used
    // to write straight past the end of the degree vector.
    DegreeStatsSink sink(10);
    sink.emit(0, 9); // in range: fine
    EXPECT_THROW(
        {
            sink.emit(3, 10); // first out-of-range id is exactly n
            sink.finish();
        },
        std::out_of_range);
    try {
        DegreeStatsSink again(10);
        again.emit(42, 1);
        again.finish();
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("42"), std::string::npos)
            << "message should name the offending vertex: " << e.what();
    }
    // The batch that threw must not have corrupted the histogram.
    DegreeStatsSink clean(5);
    clean.emit(1, 2);
    clean.flush();
    EXPECT_THROW(
        {
            clean.emit(3, 4);
            clean.emit(1, 1000);
            clean.flush();
        },
        std::out_of_range);
    EXPECT_EQ(clean.num_edges(), 1u);
    EXPECT_EQ(clean.degrees()[3], 0u) << "failed batch partially applied";
}

TEST(DegreeStatsSink, RejectsCorruptStreamedFile) {
    // The file-replay path the fix protects: a binary file whose edges
    // exceed the declared vertex count must throw, not corrupt the heap.
    const std::string p = ::testing::TempDir() + "kagen_sink_corrupt_ids.bin";
    io::write_edge_list_binary(p, {{0, 1}, {7, 3}, {2, 2}});
    DegreeStatsSink sink(4); // n = 4, but the file contains vertex 7
    EXPECT_THROW(io::stream_edge_list_binary(p, sink), std::out_of_range);
    std::remove(p.c_str());
}

class SinkFileTest : public ::testing::Test {
protected:
    std::string path(const char* name) {
        return ::testing::TempDir() + "kagen_sink_" + name;
    }
    void TearDown() override {
        for (const auto& p : created_) std::remove(p.c_str());
    }
    std::string track(std::string p) {
        created_.push_back(p);
        return p;
    }
    std::vector<std::string> created_;
};

std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST_F(SinkFileTest, BinaryFileSinkMatchesBatchWriterBitForBit) {
    const EdgeList edges = some_edges(2100);
    const auto streamed  = track(path("streamed.bin"));
    const auto batched   = track(path("batched.bin"));
    {
        BinaryFileSink sink(streamed);
        for (const auto& e : edges) sink.emit(e);
        sink.finish(); // back-patches the count header
    }
    io::write_edge_list_binary(batched, edges);
    EXPECT_EQ(slurp(streamed), slurp(batched));
    EXPECT_EQ(io::read_edge_list_binary(streamed), edges);
}

TEST_F(SinkFileTest, StreamingReaderReplaysFileThroughSinks) {
    const EdgeList edges = some_edges(1500);
    const auto p         = track(path("replay.bin"));
    io::write_edge_list_binary(p, edges);

    MemorySink mem;
    EXPECT_EQ(io::stream_edge_list_binary(p, mem), edges.size());
    EXPECT_EQ(mem.take(), edges);

    CountingSink count;
    io::stream_edge_list_binary(p, count);
    count.finish();
    EXPECT_EQ(count.num_edges(), edges.size());
}

// ---------------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
    pe::ThreadPool pool(3);
    constexpr u64 kTasks = 5000;
    std::vector<std::atomic<u32>> hits(kTasks);
    pool.parallel_for(kTasks, 0, [&](u64 t) { hits[t].fetch_add(1); });
    for (u64 t = 0; t < kTasks; ++t) {
        ASSERT_EQ(hits[t].load(), 1u) << "task " << t;
    }
}

TEST(ThreadPool, HeavyPrefixRunsEveryTaskOnce) {
    // A heavy prefix keeps some participants busy while the others draw
    // the remaining tickets: every task must still run exactly once.
    pe::ThreadPool pool(3);
    constexpr u64 kTasks = 64;
    std::vector<std::atomic<u32>> hits(kTasks);
    pool.parallel_for(kTasks, 0, [&](u64 t) {
        u64 acc         = 0;
        const u64 spins = t < kTasks / 4 ? 200000 : 100;
        for (u64 i = 0; i < spins; ++i) acc += i;
        asm volatile("" : : "r"(acc) : "memory"); // keep the spin loop alive
        hits[t].fetch_add(1);
    });
    for (u64 t = 0; t < kTasks; ++t) ASSERT_EQ(hits[t].load(), 1u);
}

TEST(ThreadPool, ReusableAcrossParallelSections) {
    pe::ThreadPool pool(2);
    for (int round = 0; round < 20; ++round) {
        std::atomic<u64> sum{0};
        pool.parallel_for(100, 0, [&](u64 t) { sum.fetch_add(t); });
        ASSERT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, TaskExceptionPropagatesAndPoolStaysUsable) {
    pe::ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(200, 0,
                                   [&](u64 t) {
                                       if (t == 137) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The section joined cleanly: the pool must keep working afterwards.
    std::atomic<u64> sum{0};
    pool.parallel_for(100, 0, [&](u64 t) { sum.fetch_add(t); });
    EXPECT_EQ(sum.load(), 4950u);
}

// ---------------------------------------------------------------------------
// Chunked engine vs the per-rank sequential path
// ---------------------------------------------------------------------------

Config engine_config(Model model, u64 n = 600) {
    Config cfg;
    cfg.model     = model;
    cfg.n         = n;
    cfg.m         = 5 * n;
    cfg.p         = 0.01;
    cfg.r         = 0.08;
    cfg.avg_deg   = 8;
    cfg.gamma     = 2.8;
    cfg.ba_degree = 3;
    cfg.seed      = 99;
    return cfg;
}

constexpr Model kAllModels[] = {
    Model::GnmDirected,   Model::GnmUndirected, Model::GnpDirected,
    Model::GnpUndirected, Model::Rgg2D,         Model::Rgg3D,
    Model::Rdg2D,         Model::Rdg3D,         Model::Rhg,
    Model::RhgStreaming,  Model::Ba,            Model::Rmat};

class ChunkedEngine : public ::testing::TestWithParam<Model> {};

TEST_P(ChunkedEngine, MatchesPerRankSequentialPath) {
    // With chunks_per_pe = 1 a chunk IS a PE: the engine's MemorySink output
    // must equal the pre-refactor per-rank EdgeList path at the same
    // (seed, n, P) — bitwise as a concatenation, and (a fortiori) after
    // canonical sort.
    const u64 P      = 4;
    const Config cfg = engine_config(GetParam());
    ASSERT_EQ(cfg.chunks_per_pe, 1u);

    EdgeList sequential;
    for (u64 rank = 0; rank < P; ++rank) {
        append(sequential, generate(cfg, rank, P).edges);
    }

    MemorySink sink;
    const ChunkStats stats = generate_chunked(cfg, P, sink);
    sink.finish();
    EXPECT_EQ(stats.num_chunks, P);
    EXPECT_GT(stats.seconds, 0.0); // the makespan the scaling benches record
    EXPECT_EQ(sink.edges(), sequential) << model_name(cfg.model);
    EXPECT_EQ(undirected_set(sink.edges()), undirected_set(sequential));
}

TEST_P(ChunkedEngine, ThreadedRunIsBitIdenticalToSequential) {
    // Ordered delivery makes the engine's edge stream independent of the
    // worker count and completion order. The local 4-participant pool
    // exercises true concurrency even on single-core CI machines.
    Config cfg        = engine_config(GetParam(), 400);
    cfg.chunks_per_pe = 4;
    const u64 P       = 3;

    MemorySink seq_sink;
    generate_chunked(cfg, P, seq_sink, /*threads=*/1);
    seq_sink.finish();

    pe::ThreadPool pool(3);
    MemorySink thr_sink;
    generate_chunked(cfg, P, thr_sink, /*threads=*/4, &pool);
    thr_sink.finish();

    EXPECT_EQ(thr_sink.edges(), seq_sink.edges()) << model_name(cfg.model);
}

TEST_P(ChunkedEngine, PinnedChunksMakeOutputIndependentOfPesAndK) {
    // The determinism contract: with total_chunks pinned, the generated
    // graph is a pure function of (seed, params) — identical for every
    // PE count and every chunks_per_pe, bit for bit.
    Config cfg       = engine_config(GetParam(), 300);
    cfg.total_chunks = 24;

    EdgeList reference;
    bool have_reference = false;
    for (const u64 P : {u64{1}, u64{3}, u64{8}}) {
        for (const u64 K : {u64{1}, u64{4}}) {
            cfg.chunks_per_pe = K;
            MemorySink sink;
            const ChunkStats stats = generate_chunked(cfg, P, sink);
            sink.finish();
            ASSERT_EQ(stats.num_chunks, 24u);
            if (!have_reference) {
                reference      = sink.edges();
                have_reference = true;
                EXPECT_FALSE(reference.empty()) << model_name(cfg.model);
            } else {
                ASSERT_EQ(sink.edges(), reference)
                    << model_name(cfg.model) << " P=" << P << " K=" << K;
            }
        }
    }
}

TEST_P(ChunkedEngine, CountingAndDegreeSinksAgreeWithMaterializedList) {
    Config cfg        = engine_config(GetParam(), 400);
    cfg.chunks_per_pe = 3;
    const u64 P       = 3;

    MemorySink mem;
    generate_chunked(cfg, P, mem);
    mem.finish();

    // Unordered sinks take the concurrent delivery path; run them on a real
    // multi-participant pool to exercise it.
    pe::ThreadPool pool(3);
    CountingSink count;
    generate_chunked(cfg, P, count, /*threads=*/4, &pool);
    count.finish();
    EXPECT_EQ(count.num_edges(), mem.edges().size()) << model_name(cfg.model);
    EXPECT_EQ(count.num_self_loops(),
              static_cast<u64>(std::count_if(
                  mem.edges().begin(), mem.edges().end(),
                  [](const Edge& e) { return e.first == e.second; })));

    DegreeStatsSink stats_sink(num_vertices(cfg));
    generate_chunked(cfg, P, stats_sink, /*threads=*/4, &pool);
    stats_sink.finish();
    EXPECT_EQ(stats_sink.num_edges(), mem.edges().size());
    EXPECT_EQ(stats_sink.degrees(), degrees(mem.edges(), num_vertices(cfg)))
        << model_name(cfg.model);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ChunkedEngine, ::testing::ValuesIn(kAllModels),
                         [](const ::testing::TestParamInfo<Model>& info) {
                             return model_name(info.param);
                         });

TEST_F(SinkFileTest, EngineStreamsBinaryFileIdenticalToMaterializedWrite) {
    Config cfg        = engine_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 4;

    MemorySink mem;
    generate_chunked(cfg, 4, mem);
    mem.finish();

    const auto streamed = track(path("engine.bin"));
    const auto batched  = track(path("materialized.bin"));
    pe::ThreadPool pool(3);
    BinaryFileSink file(streamed);
    generate_chunked(cfg, 4, file, /*threads=*/4, &pool);
    file.finish();
    io::write_edge_list_binary(batched, mem.edges());
    EXPECT_EQ(slurp(streamed), slurp(batched));
}

// ---------------------------------------------------------------------------
// Mergeable summaries: merging per-part summaries must equal the summary of
// the combined stream, exactly — the property the distributed coordinator
// (dist/runner.cpp) relies on, but useful for any multi-run aggregation.
// ---------------------------------------------------------------------------

TEST(CountingSummary, MergeEqualsSummaryOfCombinedStream) {
    const EdgeList edges = some_edges(3000);
    CountingSink whole(EdgeSemantics::exact_once);
    CountingSink lo(EdgeSemantics::exact_once);
    CountingSink hi(EdgeSemantics::exact_once);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        whole.emit(edges[i]);
        (i < 1234 ? lo : hi).emit(edges[i]);
    }
    whole.finish();
    lo.finish();
    hi.finish();
    CountingSummary merged = lo.summarize();
    merged.merge(hi.summarize());
    EXPECT_EQ(merged, whole.summarize());
    EXPECT_EQ(merged.str(), whole.summary());
}

TEST(CountingSummary, MergeRejectsSemanticsMismatch) {
    CountingSummary a, b;
    a.semantics = EdgeSemantics::as_generated;
    b.semantics = EdgeSemantics::exact_once;
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(CountingSummary, SerializeRoundTrips) {
    CountingSink sink(EdgeSemantics::exact_once);
    sink.emit(1, 2);
    sink.emit(3, 3);
    sink.finish();
    const CountingSummary original = sink.summarize();
    std::vector<u8> wire;
    original.serialize(wire);
    const u8* p = wire.data();
    EXPECT_EQ(CountingSummary::deserialize(p, p + wire.size()), original);
    EXPECT_EQ(p, wire.data() + wire.size());
    // Truncation must throw, not decode garbage.
    const u8* q = wire.data();
    EXPECT_THROW(CountingSummary::deserialize(q, q + wire.size() - 1),
                 std::runtime_error);
}

TEST(DegreeStatsSummary, MergeEqualsSummaryOfCombinedStream) {
    const EdgeList edges = some_edges(3000);
    DegreeStatsSink whole(100);
    DegreeStatsSink lo(100);
    DegreeStatsSink hi(100);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        whole.emit(edges[i]);
        (i < 777 ? lo : hi).emit(edges[i]);
    }
    whole.finish();
    lo.finish();
    hi.finish();
    DegreeStatsSummary merged = lo.summarize();
    merged.merge(hi.summarize());
    EXPECT_EQ(merged, whole.summarize());
    EXPECT_EQ(merged.str(), whole.summary());
    EXPECT_EQ(merged.degrees, whole.degrees());
    EXPECT_DOUBLE_EQ(merged.average_degree(), whole.average_degree());
    EXPECT_EQ(merged.max_degree(), whole.max_degree());
}

TEST(DegreeStatsSummary, MergeRejectsMismatchedGraphs) {
    DegreeStatsSink a(10), b(11);
    auto sa = a.summarize();
    EXPECT_THROW(sa.merge(b.summarize()), std::invalid_argument);
    auto sb = DegreeStatsSink(10, EdgeSemantics::exact_once).summarize();
    EXPECT_THROW(sa.merge(sb), std::invalid_argument);
}

TEST(DegreeStatsSummary, SerializeRoundTrips) {
    DegreeStatsSink sink(50, EdgeSemantics::exact_once);
    for (const auto& e : some_edges(500)) sink.emit(e.first % 50, e.second % 50);
    sink.finish();
    const DegreeStatsSummary original = sink.summarize();
    std::vector<u8> wire;
    original.serialize(wire);
    const u8* p = wire.data();
    EXPECT_EQ(DegreeStatsSummary::deserialize(p, p + wire.size()), original);
    const u8* q = wire.data();
    EXPECT_THROW(DegreeStatsSummary::deserialize(q, q + wire.size() - 8),
                 std::runtime_error);
}

TEST(ChunkedEngineApi, RejectsDegenerateShapes) {
    const Config cfg = engine_config(Model::GnmDirected);
    MemorySink sink;
    EXPECT_THROW(generate_chunked(cfg, 0, sink), std::invalid_argument);
    Config bad        = cfg;
    bad.chunks_per_pe = 0;
    EXPECT_THROW(generate_chunked(bad, 1, sink), std::invalid_argument);
}

} // namespace
} // namespace kagen
