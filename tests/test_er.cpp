// Erdős–Rényi generators: exact edge counts, structural invariants,
// cross-PE redundancy consistency, uniformity over the pair universe.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/math.hpp"
#include "er/er.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "sampling/sampling.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

Config gnm(Model model, u64 n, u64 m, u64 seed) {
    Config cfg;
    cfg.model = model;
    cfg.n     = n;
    cfg.m     = m;
    cfg.seed  = seed;
    return cfg;
}

Config gnp(Model model, u64 n, double p, u64 seed) {
    Config cfg;
    cfg.model = model;
    cfg.n     = n;
    cfg.p     = p;
    cfg.seed  = seed;
    return cfg;
}

EdgeList edges_of(const Config& cfg, u64 rank = 0, u64 size = 1) {
    return generate(cfg, rank, size).edges;
}

class GnmDirected : public ::testing::TestWithParam<u64> {};

TEST_P(GnmDirected, ExactCountNoLoopsDisjointChunks) {
    const u64 P = GetParam();
    constexpr u64 n = 200, m = 3000;
    const auto per_pe = testing::per_pe(gnm(Model::GnmDirected, n, m, /*seed=*/7), P);
    u64 total = 0;
    std::set<Edge> all;
    for (u64 rank = 0; rank < P; ++rank) {
        const u64 row_lo = block_begin(n, P, rank);
        const u64 row_hi = block_begin(n, P, rank + 1);
        for (const auto& [u, v] : per_pe[rank]) {
            EXPECT_NE(u, v);
            EXPECT_LT(u, n);
            EXPECT_LT(v, n);
            EXPECT_GE(u, row_lo); // edges start at local rows only
            EXPECT_LT(u, row_hi);
            all.insert({u, v});
            ++total;
        }
    }
    EXPECT_EQ(total, m);            // chunk counts sum to m
    EXPECT_EQ(all.size(), m);       // and no duplicates anywhere
}

INSTANTIATE_TEST_SUITE_P(PeCounts, GnmDirected, ::testing::Values(1, 2, 3, 8, 16));

TEST(GnmDirectedStat, UniformOverPairUniverse) {
    // Every ordered pair must be sampled equally often across seeds.
    constexpr u64 n = 20, m = 40, kRuns = 20000;
    std::map<Edge, double> hits;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        for (const auto& e : edges_of(gnm(Model::GnmDirected, n, m, seed))) hits[e] += 1.0;
    }
    std::vector<double> observed;
    for (u64 u = 0; u < n; ++u) {
        for (u64 v = 0; v < n; ++v) {
            if (u == v) continue;
            observed.push_back(hits[{u, v}]);
        }
    }
    const double per_pair = static_cast<double>(kRuns) * m / (n * (n - 1));
    const std::vector<double> expected(observed.size(), per_pair);
    EXPECT_LT(testing::chi_square(observed, expected),
              testing::chi_square_critical(static_cast<double>(observed.size() - 1)));
}

TEST(GnmDirected, DeterministicPerRank) {
    const Config cfg = gnm(Model::GnmDirected, 500, 2000, 3);
    const auto a     = edges_of(cfg, 2, 4);
    const auto b     = edges_of(cfg, 2, 4);
    EXPECT_EQ(a, b);
}

TEST(GnmDirected, FullUniverse) {
    // m = n(n-1): every ordered pair exactly once.
    constexpr u64 n = 40;
    const u64 m     = n * (n - 1);
    const auto edges = edges_of(gnm(Model::GnmDirected, n, m, 1));
    std::set<Edge> set(edges.begin(), edges.end());
    EXPECT_EQ(set.size(), m);
}

class GnmUndirected : public ::testing::TestWithParam<u64> {};

TEST_P(GnmUndirected, UnionHasExactlyMEdges) {
    const u64 P = GetParam();
    constexpr u64 n = 150, m = 2000;
    const auto per_pe = testing::per_pe(gnm(Model::GnmUndirected, n, m, 11), P);
    const auto uni = pe::union_undirected(per_pe);
    EXPECT_EQ(uni.size(), m);
    EXPECT_FALSE(has_self_loop(uni));
    for (const auto& [u, v] : uni) {
        EXPECT_LT(u, n);
        EXPECT_LT(v, n);
    }
}

INSTANTIATE_TEST_SUITE_P(PeCounts, GnmUndirected, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_P(GnmUndirected, EveryEdgeOnBothOwners) {
    const u64 P = GetParam();
    if (P == 1) GTEST_SKIP() << "redundancy only exists for P > 1";
    constexpr u64 n = 120, m = 1500;
    const auto per_pe = testing::per_pe(gnm(Model::GnmUndirected, n, m, 13), P);
    std::vector<std::set<Edge>> sets(P);
    for (u64 r = 0; r < P; ++r) sets[r].insert(per_pe[r].begin(), per_pe[r].end());
    for (u64 r = 0; r < P; ++r) {
        for (const auto& e : per_pe[r]) {
            const u64 owner_u = block_owner(n, P, e.first);
            const u64 owner_v = block_owner(n, P, e.second);
            EXPECT_TRUE(sets[owner_u].count(e)) << "missing on owner of u";
            EXPECT_TRUE(sets[owner_v].count(e)) << "missing on owner of v";
        }
    }
}

// The edges of undirected chunk (i, j), i >= j — rows of block i, columns
// of block j — within one PE's output, sorted.
EdgeList chunk_edges(const EdgeList& pe_edges, u64 n, u64 P, u64 i, u64 j) {
    EdgeList chunk;
    for (const auto& [u, v] : pe_edges) {
        if (block_owner(n, P, u) == i && block_owner(n, P, v) == j) {
            chunk.push_back({u, v});
        }
    }
    sort_unique(chunk);
    return chunk;
}

TEST(GnmUndirected, ChunkIdenticalFromBothOwners) {
    constexpr u64 n = 100, m = 1200, P = 5;
    const auto per_pe = testing::per_pe(gnm(Model::GnmUndirected, n, m, 17), P);
    for (u64 i = 0; i < P; ++i) {
        for (u64 j = 0; j <= i; ++j) {
            // Extract chunk (i, j) from PE i's run and PE j's run; the
            // pseudorandom recomputation must give identical edges.
            EXPECT_EQ(chunk_edges(per_pe[i], n, P, i, j),
                      chunk_edges(per_pe[j], n, P, i, j))
                << "chunk (" << i << "," << j << ")";
        }
    }
}

TEST(GnmUndirected, LowerTriangleConvention) {
    const auto edges = edges_of(gnm(Model::GnmUndirected, 300, 4000, 23));
    for (const auto& [u, v] : edges) EXPECT_GT(u, v);
}

TEST(GnmUndirectedStat, UniformOverPairUniverse) {
    constexpr u64 n = 20, m = 30, kRuns = 20000, P = 3;
    std::map<Edge, double> hits;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        const auto per_pe = testing::per_pe(gnm(Model::GnmUndirected, n, m, seed), P);
        for (const auto& e : pe::union_undirected(per_pe)) hits[e] += 1.0;
    }
    std::vector<double> observed;
    for (u64 v = 0; v < n; ++v) {
        for (u64 u = v + 1; u < n; ++u) observed.push_back(hits[{v, u}]);
    }
    const double per_pair = static_cast<double>(kRuns) * m / (n * (n - 1) / 2);
    const std::vector<double> expected(observed.size(), per_pair);
    EXPECT_LT(testing::chi_square(observed, expected),
              testing::chi_square_critical(static_cast<double>(observed.size() - 1)));
}

TEST(GnmUndirected, SaturatedGraphIsComplete) {
    constexpr u64 n = 30;
    const u64 m = static_cast<u64>(er::undirected_universe(n));
    const auto per_pe = testing::per_pe(gnm(Model::GnmUndirected, n, m, 1), 4);
    EXPECT_EQ(pe::union_undirected(per_pe).size(), m);
}

class GnpBothKinds : public ::testing::TestWithParam<u64> {};

TEST_P(GnpBothKinds, EdgeCountConcentratesAroundMean) {
    const u64 P = GetParam();
    constexpr u64 n = 400;
    constexpr double p = 0.01;
    double dir_sum = 0.0, undir_sum = 0.0;
    constexpr u64 kRuns = 60;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        const auto dir = testing::per_pe(gnp(Model::GnpDirected, n, p, seed), P);
        u64 dir_edges = 0;
        for (const auto& part : dir) dir_edges += part.size();
        dir_sum += static_cast<double>(dir_edges);
        const auto undir = testing::per_pe(gnp(Model::GnpUndirected, n, p, seed), P);
        undir_sum += static_cast<double>(pe::union_undirected(undir).size());
    }
    const double dir_mean    = dir_sum / kRuns;
    const double undir_mean  = undir_sum / kRuns;
    const double dir_expect  = static_cast<double>(n) * (n - 1) * p;
    const double undir_expect = dir_expect / 2;
    EXPECT_NEAR(dir_mean, dir_expect, 6 * std::sqrt(dir_expect / kRuns) + 1);
    EXPECT_NEAR(undir_mean, undir_expect, 6 * std::sqrt(undir_expect / kRuns) + 1);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, GnpBothKinds, ::testing::Values(1, 4, 7));

TEST(GnpUndirected, RedundancyAcrossOwners) {
    constexpr u64 n = 90, P = 6;
    const auto per_pe = testing::per_pe(gnp(Model::GnpUndirected, n, 0.1, 99), P);
    std::vector<std::set<Edge>> sets(P);
    for (u64 r = 0; r < P; ++r) sets[r].insert(per_pe[r].begin(), per_pe[r].end());
    for (u64 r = 0; r < P; ++r) {
        for (const auto& e : per_pe[r]) {
            EXPECT_TRUE(sets[block_owner(n, P, e.first)].count(e));
            EXPECT_TRUE(sets[block_owner(n, P, e.second)].count(e));
        }
    }
}

TEST(GnpDirected, NoSelfLoopsNoDuplicates) {
    const auto edges = edges_of(gnp(Model::GnpDirected, 1000, 0.01, 5));
    EXPECT_FALSE(has_self_loop(edges));
    std::set<Edge> set(edges.begin(), edges.end());
    EXPECT_EQ(set.size(), edges.size());
}

TEST(ErDegrees, GnmDegreeDistributionIsBinomialLike) {
    // In G(n,m) the expected average degree is 2m/n.
    constexpr u64 n = 4000, m = 40000;
    const auto edges = edges_of(gnm(Model::GnmUndirected, n, m, 21));
    const auto degs  = degrees(undirected_set(edges), n);
    EXPECT_NEAR(average_degree(degs), 2.0 * m / n, 0.01);
}

// ---------------------------------------------------------------------------
// Block row decoder
// ---------------------------------------------------------------------------

/// Collects edges over a 5-edge inline buffer, so a block's run of edges
/// splits across many flushes.
class SmallBufferSink final : public EdgeSink {
public:
    SmallBufferSink() : EdgeSink(5) {}
    EdgeList edges;

private:
    void consume(const Edge* batch, std::size_t count) override {
        edges.insert(edges.end(), batch, batch + count);
    }
};

struct RowShape {
    u64 width;
    u64 row_base;
    u64 col_base;
    bool skip_diagonal;
};

/// The per-position decode the block decoder replaces: x / width, x % width,
/// then the diagonal skip.
Edge reference_edge(const RowShape& s, u64 x) {
    const u64 row = s.row_base + x / s.width;
    const u64 c   = x % s.width;
    return {row, s.col_base + c + (s.skip_diagonal && c >= row ? 1 : 0)};
}

/// Runs `blocks(consume)` once, handing every block to the decoder and each
/// of its positions to the reference; the two edge streams must agree.
template <typename Blocks>
void expect_reference_edges(const RowShape& s, Blocks&& blocks) {
    SmallBufferSink sink;
    const er::RowDecoder decoder(s.width, s.row_base, s.col_base, s.skip_diagonal, sink);
    EdgeList want;
    blocks([&](const u64* pos, std::size_t count, u64 offset) {
        for (std::size_t i = 0; i < count; ++i) want.push_back(reference_edge(s, offset + pos[i]));
        decoder(pos, count, offset);
    });
    sink.finish();
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(sink.edges, want) << "width " << s.width;
}

struct Block {
    u64 offset;
    std::vector<u64> pos;
};

void expect_reference_blocks(const RowShape& s, const std::vector<Block>& blocks) {
    expect_reference_edges(s, [&](auto&& consume) {
        for (const Block& b : blocks) consume(b.pos.data(), b.pos.size(), b.offset);
    });
}

/// Consecutive positions [first, first + count) as one block at `offset`.
Block run_at(u64 offset, u64 first, u64 count) {
    Block b{offset, {}};
    for (u64 i = 0; i < count; ++i) b.pos.push_back(first + i);
    return b;
}

TEST(RowDecoder, MatchesDivideAndModuloOnHandMadeBlocks) {
    const u64 k32 = u64{1} << 32;
    for (const u64 w : {u64{1}, u64{2}, u64{3}, u64{7}, u64{8}, u64{9}, u64{1023}, u64{1024},
                        u64{1025}, k32 - 1, k32, k32 + 1}) {
        for (const bool skip : {false, true}) {
            const RowShape s{w, skip ? u64{5} : u64{100}, skip ? u64{0} : u64{7}, skip};
            expect_reference_blocks(
                s, std::vector<Block>{
                       // Starts exactly on row 0's start and runs into row 3.
                       run_at(0, 0, 3 * std::min<u64>(w, 50) + 2),
                       // Starts on a row start given by the offset alone.
                       run_at(10 * w, 0, 4),
                       // Ends on a row's last slot, then the next row's first.
                       Block{0, {12 * w - 1, 12 * w}},
                       // Many rows past the previous block, one position.
                       Block{1000 * w + w / 2, {0}},
                       // Sparse: every position in a row of its own.
                       Block{2000 * w, {0, 9 * w + 1 % w, 400 * w + w - 1, 401 * w}},
                   });
        }
    }
}

TEST(RowDecoder, RowsWiderThanALeaf) {
    // A whole 2048-position block inside one row, then one straddling two.
    const u64 w = (u64{1} << 20) + 3;
    for (const bool skip : {false, true}) {
        expect_reference_blocks(RowShape{w, 0, 0, skip},
                               std::vector<Block>{run_at(5 * w + 17, 0, 2048),
                                                  run_at(9 * w - 1000, 0, 2048)});
    }
}

TEST(RowDecoder, UniversesNearTwoToTheSixtyFour) {
    // Positions up to 2^64 - 2: the reciprocal estimate is off by one most
    // often here, and q * width must still not overflow.
    const u64 top = ~u64{0};
    const u64 third = top / 3; // three rows span exactly 2^64 - 1 slots
    expect_reference_blocks(RowShape{third, 0, 0, false},
                           std::vector<Block>{run_at(0, third - 2, 5),
                                              run_at(2 * third - 3, 0, 6),
                                              Block{3 * third - 4, {0, 1, 2, 3}}});
    expect_reference_blocks(RowShape{top, 0, 0, true},
                           std::vector<Block>{Block{top - 6, {0, 1, 2, 3, 4, 5}}});
    const u64 w = (u64{1} << 32) + 1; // 2^32 - 1 rows fit below 2^64
    expect_reference_blocks(RowShape{w, 3, 0, true},
                           std::vector<Block>{run_at(((u64{1} << 32) - 2) * w - 3, 0, 7),
                                              Block{((u64{1} << 32) - 1) * w - 4, {0, 1, 2, 3}}});
}

TEST(RowDecoder, MatchesReferenceOnSampledStreams) {
    // The decoder against the reference on the blocks the engines really
    // produce: v1 (Method D and Method A), v2 (sparse and dense leaves, with
    // duplicate top-ups, and a halving split) and the Bernoulli stream.
    struct Draw {
        u64 width, rows, k;
    };
    for (const Draw d : {Draw{1, 5000, 3000}, Draw{2, 3000, 100}, Draw{1023, 64, 5000},
                         Draw{1025, 4096, 9000}, Draw{(u64{1} << 21) + 1, 300, 4000}}) {
        const u64 universe = d.width * d.rows;
        for (const SamplerVersion version : {SamplerVersion::v1, SamplerVersion::v2}) {
            Rng rng(d.width * 31 + d.k);
            expect_reference_edges(RowShape{d.width, 11, 0, true}, [&](auto&& consume) {
                sorted_sample_blocks(rng, universe, d.k, consume, version);
            });
        }
        Rng rng(d.width + 5);
        const double p = static_cast<double>(d.k) / static_cast<double>(universe);
        expect_reference_edges(RowShape{d.width, 40, 9, false}, [&](auto&& consume) {
            bernoulli_sample_blocks(rng, universe, p, consume);
        });
    }
}

TEST(RowDecoder, DenseLeafWithDuplicateTopUps) {
    // u = 1000, k = 400: about 80 colliding spacings per leaf, so the leaf
    // tops up and hands over its merged block, not its own array.
    for (u64 seed = 0; seed < 20; ++seed) {
        Rng rng(seed);
        expect_reference_edges(RowShape{33, 2, 0, true}, [&](auto&& consume) {
            detail::spacings_leaf(rng, 1000, 400, 64, consume);
        });
    }
}

} // namespace
} // namespace kagen
