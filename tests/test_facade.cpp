// Public facade + cross-module integration: every model generates through
// kagen::generate, respects (rank, size) purity, and downstream graph
// utilities (CSR, BFS, components) consume the outputs.
#include <gtest/gtest.h>

#include <limits>

#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

Config small_config(Model model) {
    Config cfg;
    cfg.model     = model;
    cfg.n         = 600;
    cfg.m         = 3000;
    cfg.p         = 0.01;
    cfg.r         = 0.08;
    cfg.avg_deg   = 8;
    cfg.gamma     = 2.8;
    cfg.ba_degree = 3;
    cfg.seed      = 99;
    return cfg;
}

class AllModels : public ::testing::TestWithParam<Model> {};

TEST_P(AllModels, GeneratesAndIsPure) {
    const Config cfg = small_config(GetParam());
    const Result a   = generate(cfg, 1, 4);
    const Result b   = generate(cfg, 1, 4);
    EXPECT_EQ(a.edges, b.edges) << model_name(cfg.model);
    EXPECT_GE(a.n, cfg.n);
    for (const auto& [u, v] : a.edges) {
        EXPECT_LT(u, a.n);
        EXPECT_LT(v, a.n);
    }
}

TEST_P(AllModels, UnionAcrossPesIsNonEmptyAndConsumable) {
    const Config cfg   = small_config(GetParam());
    const EdgeList all = pe::union_undirected(testing::per_pe(cfg, 4));
    ASSERT_FALSE(all.empty()) << model_name(cfg.model);
    const u64 n = generate(cfg, 0, 1).n;
    // Downstream pipeline: CSR + BFS + components must all work.
    const Csr csr = build_csr(all, n, /*symmetrize=*/true);
    u64 reached   = 0;
    bfs(csr, all.front().first, &reached);
    EXPECT_GE(reached, 1u);
    EXPECT_GE(connected_components(all, n), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Everything, AllModels,
    ::testing::Values(Model::GnmDirected, Model::GnmUndirected, Model::GnpDirected,
                      Model::GnpUndirected, Model::Rgg2D, Model::Rgg3D, Model::Rdg2D,
                      Model::Rdg3D, Model::Rhg, Model::RhgStreaming, Model::Ba,
                      Model::Rmat),
    [](const ::testing::TestParamInfo<Model>& info) {
        return model_name(info.param);
    });

TEST(Facade, RmatRoundsVertexCount) {
    Config cfg = small_config(Model::Rmat);
    cfg.n      = 1000; // not a power of two
    EXPECT_EQ(generate(cfg, 0, 1).n, 1024u);
    EXPECT_EQ(num_vertices(cfg), 1024u);
}

TEST(Facade, RmatHandlesDegenerateVertexCounts) {
    // Regression: the old round-up loop turned n = 0 into a 1-vertex graph
    // and relied on iterating a shift towards overflow; n <= 1 must yield
    // exactly n vertices and no edges (the 2^0-vertex "graph" has no
    // non-trivial adjacency matrix to recurse on).
    Config cfg = small_config(Model::Rmat);
    cfg.m      = 50;
    for (const u64 n : {u64{0}, u64{1}}) {
        cfg.n          = n;
        const Result r = generate(cfg, 0, 1);
        EXPECT_EQ(r.n, n);
        EXPECT_TRUE(r.edges.empty());
    }
    cfg.n = 2; // smallest non-degenerate instance: one recursion level
    const Result r2 = generate(cfg, 0, 1);
    EXPECT_EQ(r2.n, 2u);
    EXPECT_EQ(r2.edges.size(), cfg.m);
    for (const auto& [u, v] : r2.edges) {
        EXPECT_LT(u, 2u);
        EXPECT_LT(v, 2u);
    }
    // Powers of two must not round up further.
    cfg.n = 512;
    EXPECT_EQ(num_vertices(cfg), 512u);
    // Beyond 2^63 the power-of-two round-up cannot be represented — both
    // the EdgeList path and the streaming path must refuse up front.
    cfg.n = (u64{1} << 63) + 1;
    EXPECT_THROW(num_vertices(cfg), std::invalid_argument);
    MemorySink sink;
    EXPECT_THROW(generate(cfg, 0, 1, sink), std::invalid_argument);
    EXPECT_THROW(generate_chunked(cfg, 2, sink), std::invalid_argument);
}

TEST(Facade, RmatRejectsInvalidQuadrantProbabilities) {
    Config cfg = small_config(Model::Rmat);
    MemorySink sink;
    for (const double bad : {-0.01, std::numeric_limits<double>::quiet_NaN()}) {
        cfg.rmat_c = bad;
        EXPECT_THROW(generate(cfg, 0, 1), std::invalid_argument);
        EXPECT_THROW(generate(cfg, 1, 4, sink), std::invalid_argument);
    }
    cfg.rmat_c = 0.19;
    cfg.rmat_a = 0.7; // a + b + c = 1.08
    EXPECT_THROW(generate(cfg, 0, 1), std::invalid_argument);
}

TEST(Facade, InvalidRankThrows) {
    const Config cfg = small_config(Model::GnmDirected);
    EXPECT_THROW(generate(cfg, 4, 4), std::invalid_argument);
    EXPECT_THROW(generate(cfg, 0, 0), std::invalid_argument);
}

// Parameters that describe no graph: each entry point must refuse them with
// std::invalid_argument naming the field, before any chunk or rank starts
// (the generators' own asserts are compiled out in Release builds).
std::vector<Config> invalid_configs() {
    std::vector<Config> bad;
    const auto add = [&](Model model, auto&& tweak) {
        Config cfg = small_config(model);
        tweak(cfg);
        bad.push_back(cfg);
    };
    add(Model::GnmDirected, [](Config& c) { c.n = 1; c.m = 5; });
    add(Model::GnmDirected, [](Config& c) { c.n = 4; c.m = 13; });   // 12 pairs
    add(Model::GnmDirected, [](Config& c) { c.n = 4; c.m = 100; });
    add(Model::GnmUndirected, [](Config& c) { c.n = 4; c.m = 7; });  // 6 pairs
    add(Model::GnmUndirected, [](Config& c) { c.n = 0; c.m = 1; });
    add(Model::GnpDirected, [](Config& c) { c.p = 1.5; });
    add(Model::GnpUndirected, [](Config& c) { c.p = -1.0; });
    add(Model::GnpDirected,
        [](Config& c) { c.p = std::numeric_limits<double>::quiet_NaN(); });
    add(Model::Rhg, [](Config& c) { c.gamma = 2.0; });
    add(Model::RhgStreaming, [](Config& c) { c.gamma = 1.5; });
    add(Model::Rhg, [](Config& c) { c.avg_deg = -3.0; });
    add(Model::RhgStreaming, [](Config& c) { c.avg_deg = 0.0; });
    add(Model::Rgg2D, [](Config& c) { c.r = -1.0; });
    add(Model::Rgg3D,
        [](Config& c) { c.r = std::numeric_limits<double>::quiet_NaN(); });
    // 2·n·d attachment positions must fit one u64: n·d ≤ 2^63.
    add(Model::Ba, [](Config& c) { c.n = 10; c.ba_degree = u64{10000000000000000000u}; });
    add(Model::Ba, [](Config& c) { c.n = u64{1} << 32; c.ba_degree = (u64{1} << 31) + 1; });
    add(Model::Ba, [](Config& c) { c.n = ~u64{0}; c.ba_degree = ~u64{0}; });
    return bad;
}

const char* invalid_field(const Config& cfg) {
    switch (cfg.model) {
        case Model::GnmDirected:
        case Model::GnmUndirected: return "m = ";
        case Model::GnpDirected:
        case Model::GnpUndirected: return "p = ";
        case Model::Rgg2D:
        case Model::Rgg3D: return "r = ";
        case Model::Ba: return "ba_degree = ";
        default: return cfg.gamma > 2.0 ? "avg_deg = " : "gamma = ";
    }
}

TEST(Validation, InProcessEntryPointsNameTheField) {
    for (const Config& cfg : invalid_configs()) {
        SCOPED_TRACE(model_name(cfg.model));
        try {
            (void)generate(cfg, 0, 1);
            ADD_FAILURE() << "Result form accepted an invalid config";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(invalid_field(cfg)), std::string::npos)
                << e.what();
        }
        CountingSink sink;
        EXPECT_THROW(generate(cfg, 1, 4, sink), std::invalid_argument);
        EXPECT_THROW(num_vertices(cfg), std::invalid_argument);
        EXPECT_EQ(sink.num_edges(), 0u);
    }
}

TEST(Validation, ChunkedRunRefusesBeforeAnyChunk) {
    for (const Config& cfg : invalid_configs()) {
        SCOPED_TRACE(model_name(cfg.model));
        CountingSink sink;
        EXPECT_THROW(generate_chunked(cfg, 4, sink), std::invalid_argument);
        EXPECT_EQ(sink.num_edges(), 0u);
    }
}

TEST(Validation, DistributedRunRefusesBeforeForking) {
    // A rank that failed after the fork would surface as a runtime_error
    // naming the rank; invalid_argument means the coordinator refused first.
    for (const Config& cfg : invalid_configs()) {
        SCOPED_TRACE(model_name(cfg.model));
        dist::DistOptions opts;
        opts.num_ranks = 2;
        EXPECT_THROW(generate_distributed(cfg, opts), std::invalid_argument);
    }
}

TEST(Validation, EdgeCasesStayAccepted) {
    // Degenerate but well-defined: no pairs and no edges asked for, the
    // extreme probabilities, a zero radius.
    for (const Model model : {Model::GnmDirected, Model::GnmUndirected}) {
        for (const u64 n : {u64{0}, u64{1}}) {
            Config cfg = small_config(model);
            cfg.n      = n;
            cfg.m      = 0;
            EXPECT_TRUE(generate(cfg, 0, 1).edges.empty());
        }
        Config full = small_config(model);
        full.n      = 4;
        full.m      = model == Model::GnmDirected ? 12 : 6; // every pair
        EXPECT_EQ(generate(full, 0, 1).edges.size(), full.m);
    }
    for (const double p : {0.0, 1.0}) {
        Config cfg = small_config(Model::GnpDirected);
        cfg.n      = 16;
        cfg.p      = p;
        EXPECT_EQ(generate(cfg, 0, 1).edges.size(), p == 0.0 ? 0u : 16u * 15u);
    }
    Config rgg = small_config(Model::Rgg2D);
    rgg.r      = 0.0;
    EXPECT_NO_THROW(generate(rgg, 0, 2));
    rgg.r = std::numeric_limits<double>::infinity(); // every pair is in range
    rgg.n = 40;
    EXPECT_EQ(pe::union_undirected(testing::per_pe(rgg, 3)).size(), 40u * 39u / 2u);
    // BA: the largest n·d whose positions still fit, and d = 0, the empty
    // graph (in Debug too: no assert guards it any more).
    Config ba    = small_config(Model::Ba);
    ba.n         = 2;
    ba.ba_degree = u64{1} << 62; // n·d = 2^63, positions up to 2^64 - 1
    EXPECT_NO_THROW(num_vertices(ba));
    ba.n         = 50;
    ba.ba_degree = 0;
    for (const u64 size : {u64{1}, u64{4}}) {
        for (u64 rank = 0; rank < size; ++rank) {
            EXPECT_TRUE(generate(ba, rank, size).edges.empty());
        }
    }
}

TEST(GraphStats, CsrAndBfsOnKnownGraph) {
    // Path 0-1-2-3 plus isolated 4.
    const EdgeList edges{{0, 1}, {1, 2}, {2, 3}};
    const Csr g = build_csr(edges, 5, true);
    EXPECT_EQ(g.degree(1), 2u);
    u64 reached = 0;
    const auto dist = bfs(g, 0, &reached);
    EXPECT_EQ(reached, 4u);
    EXPECT_EQ(dist[3], 3u);
    EXPECT_EQ(connected_components(edges, 5), 2u);
}

TEST(GraphStats, ClusteringCoefficientKnownValues) {
    // Triangle: coefficient 1. Star: coefficient 0.
    EXPECT_DOUBLE_EQ(global_clustering_coefficient({{0, 1}, {1, 2}, {0, 2}}, 3), 1.0);
    EXPECT_DOUBLE_EQ(global_clustering_coefficient({{0, 1}, {0, 2}, {0, 3}}, 4), 0.0);
}

} // namespace
} // namespace kagen
