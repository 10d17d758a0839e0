// Barabási–Albert and R-MAT generators: PE-count invariance (the BA output
// is bit-identical for every P), preferential-attachment statistics,
// R-MAT quadrant distribution per level, skew and parameter validation.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

#include "graph/stats.hpp"
#include "kagen.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

template <typename Params>
EdgeList edges_of(const Params& params, u64 rank = 0, u64 size = 1) {
    return generate(testing::to_config(params), rank, size).edges;
}

class BaPeCounts : public ::testing::TestWithParam<u64> {};

TEST_P(BaPeCounts, OutputIndependentOfPeCount) {
    const u64 P = GetParam();
    const ba::Params params{500, 3, 7};
    const EdgeList sequential = edges_of(params);
    EdgeList combined;
    for (u64 rank = 0; rank < P; ++rank) {
        append(combined, edges_of(params, rank, P));
    }
    EXPECT_EQ(combined, sequential) << "BA must be invariant under P";
}

INSTANTIATE_TEST_SUITE_P(PeCounts, BaPeCounts, ::testing::Values(2, 3, 8, 16));

TEST(Ba, ExactEdgeCountAndSources) {
    const ba::Params params{1000, 5, 3};
    const auto edges = edges_of(params);
    ASSERT_EQ(edges.size(), params.n * params.degree);
    for (u64 v = 0; v < params.n; ++v) {
        for (u64 i = 0; i < params.degree; ++i) {
            EXPECT_EQ(edges[v * params.degree + i].first, v);
        }
    }
}

TEST(Ba, TargetsAreEarlierOrEqualVertices) {
    // Edge i of vertex v resolves through positions < 2(vd+i)+1, so the
    // target can never exceed v.
    const ba::Params params{2000, 4, 11};
    for (const auto& [v, target] : edges_of(params)) {
        EXPECT_LE(target, v);
    }
}

TEST(Ba, ResolveIsDeterministic) {
    const ba::Params params{100, 2, 13};
    for (u64 pos = 0; pos < 400; ++pos) {
        EXPECT_EQ(ba::resolve(params, pos), ba::resolve(params, pos));
    }
    // Even positions decode directly.
    EXPECT_EQ(ba::resolve(params, 2 * 42), 42 / params.degree);
}

TEST(Ba, DegreeDistributionIsHeavyTailed) {
    // BB preferential attachment yields gamma ~ 3; at minimum the max
    // degree must far exceed the average and early vertices must dominate.
    const ba::Params params{50000, 4, 17};
    const auto edges = edges_of(params);
    std::vector<u64> degs(params.n, 0);
    for (const auto& [u, v] : edges) {
        ++degs[u];
        ++degs[v];
    }
    const double avg = average_degree(degs);
    EXPECT_NEAR(avg, 2.0 * params.degree, 0.02 * avg);
    EXPECT_GT(max_degree(degs), static_cast<u64>(20 * avg));
    const double gamma = power_law_exponent_mle(degs, 20);
    EXPECT_NEAR(gamma, 3.0, 0.6);
    // The earliest decile must hold a disproportionate share of the degree.
    u128 early = 0, total = 0;
    for (u64 v = 0; v < params.n; ++v) {
        total += degs[v];
        if (v < params.n / 10) early += degs[v];
    }
    EXPECT_GT(static_cast<double>(early) / static_cast<double>(total), 0.2);
}

class RmatPeCounts : public ::testing::TestWithParam<u64> {};

TEST_P(RmatPeCounts, OutputIndependentOfPeCount) {
    const u64 P = GetParam();
    const rmat::Params params{10, 4000, 0.57, 0.19, 0.19, 5};
    const EdgeList sequential = edges_of(params);
    EdgeList combined;
    for (u64 rank = 0; rank < P; ++rank) {
        append(combined, edges_of(params, rank, P));
    }
    EXPECT_EQ(combined, sequential);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, RmatPeCounts, ::testing::Values(2, 5, 8, 32));

TEST(Rmat, EdgesWithinVertexRange) {
    const rmat::Params params{8, 10000, 0.57, 0.19, 0.19, 9};
    for (const auto& [u, v] : edges_of(params)) {
        EXPECT_LT(u, u64{1} << params.log_n);
        EXPECT_LT(v, u64{1} << params.log_n);
    }
}

TEST(Rmat, TopLevelQuadrantProportions) {
    // The first recursion level splits edges among quadrants with
    // probabilities (a, b, c, d); chi-square over the observed split.
    const rmat::Params params{12, 200000, 0.5, 0.2, 0.2, 21};
    const u64 half = u64{1} << (params.log_n - 1);
    std::vector<double> counts(4, 0.0);
    for (const auto& [u, v] : edges_of(params)) {
        const int q = (u >= half ? 2 : 0) + (v >= half ? 1 : 0);
        counts[q] += 1.0;
    }
    const double m = static_cast<double>(params.m);
    const std::vector<double> expected{0.5 * m, 0.2 * m, 0.2 * m, 0.1 * m};
    EXPECT_LT(testing::chi_square(counts, expected), testing::chi_square_critical(3));
}

TEST(Rmat, SkewedParametersProduceSkewedDegrees) {
    const rmat::Params params{14, 1u << 18, 0.57, 0.19, 0.19, 33};
    const auto edges = edges_of(params);
    const auto degs  = out_degrees(edges, u64{1} << params.log_n);
    const double avg = average_degree(degs);
    EXPECT_GT(max_degree(degs), static_cast<u64>(30 * avg))
        << "R-MAT with Graph500 parameters must produce heavy hubs";
}

TEST(Rmat, UniformParametersApproximateEr) {
    // a = b = c = d = 0.25 degenerates R-MAT to uniform edge sampling.
    const rmat::Params params{10, 100000, 0.25, 0.25, 0.25, 41};
    const auto edges = edges_of(params);
    const u64 n      = u64{1} << params.log_n;
    std::vector<double> row_counts(16, 0.0);
    for (const auto& e : edges) row_counts[e.first / (n / 16)] += 1.0;
    const std::vector<double> expected(16, static_cast<double>(params.m) / 16);
    EXPECT_LT(testing::chi_square(row_counts, expected),
              testing::chi_square_critical(15));
}

TEST(Rmat, EdgeAtMatchesGenerate) {
    const rmat::Params params{9, 500, 0.57, 0.19, 0.19, 55};
    const auto edges = edges_of(params);
    for (u64 i = 0; i < params.m; i += 37) {
        EXPECT_EQ(edges[i], rmat::edge_at(params, i));
    }
}

// Every recursion level of every edge is an independent (a, b, c, d) draw,
// whether it comes from a full five-level path, from the partial last draw
// (log_n = 1, 3, 12) or straddles two draws. Each level's quadrant counts,
// and the joint counts of every pair of levels (same draw or not), are
// tested against the product law.
class RmatLevels : public ::testing::TestWithParam<u64> {};

TEST_P(RmatLevels, QuadrantFrequenciesMatchParametersAtEveryLevel) {
    const u64 log_n = GetParam();
    const rmat::Params params{log_n, 100000, 0.45, 0.22, 0.18, 61 + log_n};
    const std::array<double, 4> prob{params.a, params.b, params.c,
                                     1.0 - (params.a + params.b + params.c)};
    const auto quadrant = [&](const Edge& e, u64 level) {
        const u64 bit = log_n - 1 - level;
        return static_cast<int>(((e.first >> bit) & 1) * 2 + ((e.second >> bit) & 1));
    };

    std::vector<std::vector<double>> single(log_n, std::vector<double>(4, 0.0));
    std::vector<std::vector<double>> pairs(log_n * log_n, std::vector<double>(16, 0.0));
    for (const Edge& e : edges_of(params)) {
        for (u64 i = 0; i < log_n; ++i) {
            single[i][quadrant(e, i)] += 1.0;
            for (u64 j = i + 1; j < log_n; ++j) {
                pairs[i * log_n + j][4 * quadrant(e, i) + quadrant(e, j)] += 1.0;
            }
        }
    }

    const double m = static_cast<double>(params.m);
    std::vector<double> expected(4);
    for (int q = 0; q < 4; ++q) expected[q] = prob[q] * m;
    std::vector<double> joint(16);
    for (int q = 0; q < 16; ++q) joint[q] = prob[q / 4] * prob[q % 4] * m;
    for (u64 i = 0; i < log_n; ++i) {
        EXPECT_LT(testing::chi_square(single[i], expected),
                  testing::chi_square_critical(3))
            << "level " << i << " of " << log_n;
        for (u64 j = i + 1; j < log_n; ++j) {
            EXPECT_LT(testing::chi_square(pairs[i * log_n + j], joint),
                      testing::chi_square_critical(15))
                << "levels " << i << " and " << j << " of " << log_n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LogN, RmatLevels, ::testing::Values(1, 3, 5, 12));

TEST(Rmat, ZeroDProbabilityNeverPicksQuadrantD) {
    // a + b + c = 1: no level may set both the row and the column bit.
    const rmat::Params params{12, 50000, 0.5, 0.3, 0.2, 71};
    for (const auto& [u, v] : edges_of(params)) {
        ASSERT_EQ(u & v, 0u) << "quadrant d at some level of (" << u << ", " << v << ")";
    }
}

TEST(Rmat, CertainQuadrantAPutsEveryEdgeAtOrigin) {
    const rmat::Params params{13, 20000, 1.0, 0.0, 0.0, 73};
    for (const Edge& e : edges_of(params)) ASSERT_EQ(e, (Edge{0, 0}));
}

TEST(Rmat, RejectsInvalidQuadrantProbabilities) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const rmat::Params bad[] = {
        {10, 100, -0.1, 0.19, 0.19, 1}, {10, 100, 0.57, -1e-9, 0.19, 1},
        {10, 100, 0.57, 0.19, nan, 1},  {10, 100, nan, 0.19, 0.19, 1},
        {10, 100, 0.6, 0.3, 0.2, 1},    {10, 100, 0.5, 0.3, 0.2 + 1e-9, 1},
    };
    for (const rmat::Params& params : bad) {
        EXPECT_THROW(edges_of(params), std::invalid_argument)
            << params.a << " " << params.b << " " << params.c;
        EXPECT_THROW(rmat::edge_at(params, 0), std::invalid_argument);
    }
    // A sum over 1 by rounding only (within 1e-12) is accepted.
    EXPECT_EQ(edges_of(rmat::Params{10, 100, 0.5, 0.3, 0.2 + 1e-13, 1}).size(), 100u);
}

} // namespace
} // namespace kagen
