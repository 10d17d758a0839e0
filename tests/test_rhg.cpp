// Random hyperbolic graphs: both generators must reproduce the brute-force
// edge set on the identical point structure; model-level statistics
// (average degree, power-law exponent) must match the parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "graph/stats.hpp"
#include "hyperbolic/hyperbolic.hpp"
#include "kagen.hpp"
#include "rhg/rhg.hpp"
#include "sink/ownership.hpp"
#include "sink/sinks.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

struct RhgCase {
    u64 n;
    double avg_deg;
    double gamma;
    u64 P;
};

class RhgBoth : public ::testing::TestWithParam<RhgCase> {};

/// The edges of `edges` sorted, with repeats kept: equal to its set iff no
/// edge is repeated.
EdgeList sorted(EdgeList edges) {
    std::sort(edges.begin(), edges.end());
    return edges;
}

TEST_P(RhgBoth, InMemoryUnionEqualsBruteForce) {
    const auto [n, d, g, P] = GetParam();
    const hyp::Params params{n, d, g, /*seed=*/5};
    const auto per_pe = testing::per_pe(testing::to_config(Model::Rhg, params), P);
    EXPECT_EQ(pe::union_undirected(per_pe), rhg::brute_force(params, P));
}

TEST_P(RhgBoth, StreamingUnionEqualsBruteForce) {
    const auto [n, d, g, P] = GetParam();
    const hyp::Params params{n, d, g, /*seed=*/5};
    const auto per_pe = testing::per_pe(testing::to_config(Model::RhgStreaming, params), P);
    EXPECT_EQ(pe::union_undirected(per_pe), rhg::brute_force(params, P));
}

TEST_P(RhgBoth, InMemoryExactOnceOwnsByConstruction) {
    // The exact_once query loop emits, unfiltered, exactly the share the
    // ownership filter would keep from the partitioned stream: each edge
    // once, from the chunk owning its lower endpoint.
    const auto [n, d, g, P] = GetParam();
    Config cfg;
    cfg.model   = Model::Rhg;
    cfg.n       = n;
    cfg.avg_deg = d;
    cfg.gamma   = g;
    cfg.seed    = 5;
    EdgeList all;
    for (u64 rank = 0; rank < P; ++rank) {
        SCOPED_TRACE("rank " + std::to_string(rank) + " of " + std::to_string(P));
        const IdIntervals owned = owned_vertex_intervals(cfg, rank, P);

        cfg.edge_semantics = EdgeSemantics::as_generated;
        MemorySink kept;
        OwnershipFilterSink filter(owned, kept);
        generate(cfg, rank, P, filter);
        filter.finish();

        cfg.edge_semantics   = EdgeSemantics::exact_once;
        const EdgeList edges = generate(cfg, rank, P).edges;
        EXPECT_EQ(sorted(edges), undirected_set(edges)) << "an edge is repeated";
        EXPECT_EQ(undirected_set(edges), undirected_set(kept.edges()));
        for (const auto& [u, v] : edges) {
            EXPECT_TRUE(owns_vertex(owned, std::min(u, v))) << u << "-" << v;
        }
        append(all, edges);
    }
    EXPECT_EQ(sorted(all), rhg::brute_force({n, d, g, 5}, P));
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, RhgBoth,
    ::testing::Values(RhgCase{500, 8, 3.0, 1},    //
                      RhgCase{500, 8, 3.0, 4},    //
                      RhgCase{500, 8, 3.0, 7},    // non-power-of-two PEs
                      RhgCase{1500, 16, 2.6, 8},  //
                      RhgCase{1500, 16, 2.2, 8},  // heavy tail
                      RhgCase{1000, 64, 3.0, 4},  // dense
                      RhgCase{2000, 4, 4.0, 16},  // sparse, light tail
                      RhgCase{50, 8, 3.0, 4},     // tiny: everything global
                      RhgCase{2, 4, 3.0, 2}       // degenerate
                      ));

TEST(RhgPoints, StructureIsDeterministicAndComplete) {
    const hyp::Params params{3000, 12, 2.8, 9};
    const hyp::HypGrid a(params, 4), b(params, 4);
    ASSERT_EQ(a.num_annuli(), b.num_annuli());
    u64 total = 0;
    std::set<VertexId> ids;
    for (u32 an = 0; an < a.num_annuli(); ++an) {
        EXPECT_EQ(a.annulus_count(an), b.annulus_count(an));
        for (u64 c = 0; c < 4; ++c) {
            const auto pa = a.chunk_points(an, c);
            const auto pb = b.chunk_points(an, c);
            ASSERT_EQ(pa.size(), pb.size());
            for (std::size_t i = 0; i < pa.size(); ++i) {
                EXPECT_EQ(pa[i].id, pb[i].id);
                EXPECT_EQ(pa[i].r, pb[i].r);
                EXPECT_EQ(pa[i].theta, pb[i].theta);
                ids.insert(pa[i].id);
                ++total;
            }
        }
    }
    EXPECT_EQ(total, params.n);
    EXPECT_EQ(ids.size(), params.n); // ids are a permutation of [0, n)
    EXPECT_EQ(*ids.rbegin(), params.n - 1);
}

TEST(RhgPoints, PointsLieInTheirAnnulusAndChunk) {
    const hyp::Params params{2000, 10, 3.0, 3};
    const hyp::HypGrid grid(params, 5);
    for (u32 a = 0; a < grid.num_annuli(); ++a) {
        for (u64 c = 0; c < 5; ++c) {
            double prev_theta = -1.0;
            for (const auto& p : grid.chunk_points(a, c)) {
                EXPECT_GE(p.r, grid.annulus_lower(a));
                EXPECT_LT(p.r, grid.annulus_upper(a) + 1e-12);
                EXPECT_GE(p.theta, grid.chunk_begin(c));
                EXPECT_LT(p.theta, grid.chunk_begin(c + 1));
                EXPECT_GE(p.theta, prev_theta) << "angle order within chunk";
                prev_theta = p.theta;
            }
        }
    }
}

TEST(RhgPoints, CellwiseMaterialisationEqualsChunkPoints) {
    // The in-memory generator's cache builds neighbour chunks one cell at a
    // time, in whatever order windows reach them; the result must be the
    // very bytes chunk_points produces. Slots start as a 0xA5 pattern, so a
    // cell written short or at the wrong offset shows up in the memcmp.
    std::mt19937_64 shuffle_rng(42);
    u64 empty_chunks = 0, max_cell = 0;
    for (const u64 seed : {5, 6}) {
        const hyp::Params params{6000, 12, 2.6, seed};
        for (const u64 P : {1, 4, 16, 64}) {
            const hyp::HypGrid grid(params, P);
            for (u32 a = 0; a < grid.num_annuli(); ++a) {
                for (u64 c = 0; c < P; ++c) {
                    SCOPED_TRACE("seed " + std::to_string(seed) + " P " + std::to_string(P) +
                                 " annulus " + std::to_string(a) + " chunk " +
                                 std::to_string(c));
                    const auto expect             = grid.chunk_points(a, c);
                    const hyp::ChunkLayout layout = grid.chunk_layout(a, c);
                    ASSERT_EQ(layout.count, expect.size());
                    ASSERT_EQ(layout.offset.size(), layout.cells + 1);
                    ASSERT_EQ(layout.offset.back(), layout.count);
                    EXPECT_EQ(layout.first_id, grid.chunk_id_range(a, c).first);
                    if (layout.count == 0) {
                        grid.cell_points(a, c, layout, 0, nullptr); // writes nothing
                        ++empty_chunks;
                        continue;
                    }

                    std::vector<u64> order(layout.cells);
                    std::iota(order.begin(), order.end(), u64{0});
                    std::shuffle(order.begin(), order.end(), shuffle_rng);
                    std::vector<hyp::HypPoint> got(layout.count);
                    std::memset(got.data(), 0xA5, got.size() * sizeof(hyp::HypPoint));
                    for (const u64 cell : order) {
                        grid.cell_points(a, c, layout, cell, got.data());
                        max_cell = std::max(max_cell,
                                            layout.offset[cell + 1] - layout.offset[cell]);
                    }
                    EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                                          got.size() * sizeof(hyp::HypPoint)),
                              0);
                }
            }
        }
    }
    EXPECT_GT(empty_chunks, 0u);
    EXPECT_GT(max_cell, 8u);

    // A layout averages at most 16 points a cell, so no real cell reaches
    // past cell_points' 64-point stack buffer; a hand-made one-cell layout
    // over an outer chunk checks that such a cell, sorted on the heap, still
    // comes out angle-sorted with consecutive ids and exact precomputed
    // fields.
    const hyp::HypGrid grid(hyp::Params{6000, 12, 2.6, 5}, 1);
    const u32 a          = grid.num_annuli() - 1;
    hyp::ChunkLayout big = grid.chunk_layout(a, 0);
    big.cells            = 1;
    big.cell_width       = grid.chunk_width();
    big.offset           = {0, big.count};
    ASSERT_GT(big.count, 64u);
    std::vector<hyp::HypPoint> pts(big.count);
    grid.cell_points(a, 0, big, 0, pts.data());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const auto& p = pts[i];
        EXPECT_EQ(p.id, big.first_id + i);
        if (i > 0) EXPECT_LE(pts[i - 1].theta, p.theta);
        EXPECT_GE(p.theta, 0.0);
        EXPECT_LT(p.theta, grid.chunk_width());
        EXPECT_GE(p.r, grid.annulus_lower(a));
        EXPECT_LE(p.r, grid.annulus_upper(a));
        const hyp::HypPoint ref = grid.space().make_point(p.id, p.r, p.theta);
        EXPECT_EQ(std::memcmp(&p, &ref, sizeof p), 0);
    }
}

TEST(RhgPoints, AngularDistributionIsUniform) {
    const hyp::Params params{100000, 8, 2.9, 77};
    const hyp::HypGrid grid(params, 8);
    std::vector<double> bins(16, 0.0);
    for (const auto& p : grid.all_points()) {
        const auto b = static_cast<std::size_t>(p.theta / (2 * std::numbers::pi) * 16);
        bins[std::min<std::size_t>(b, 15)] += 1.0;
    }
    const std::vector<double> expected(16, static_cast<double>(params.n) / 16);
    EXPECT_LT(testing::chi_square(bins, expected), testing::chi_square_critical(15));
}

TEST(RhgPoints, RadialDistributionMatchesDensity) {
    // Bin radii and compare against the analytic cdf (Eq. 3/A.2).
    const hyp::Params params{200000, 8, 2.5, 3};
    const hyp::HypGrid grid(params, 4);
    const auto& space = grid.space();
    constexpr int kBins = 12;
    std::vector<double> observed(kBins, 0.0);
    for (const auto& p : grid.all_points()) {
        const auto b =
            static_cast<std::size_t>(p.r / space.radius() * kBins);
        observed[std::min<std::size_t>(b, kBins - 1)] += 1.0;
    }
    std::vector<double> expected(kBins);
    for (int b = 0; b < kBins; ++b) {
        const double lo = space.radius() * b / kBins;
        const double hi = space.radius() * (b + 1) / kBins;
        expected[b] = (space.radial_cdf(hi) - space.radial_cdf(lo)) *
                      static_cast<double>(params.n);
    }
    // Merge tiny inner bins (tail mass) into one.
    std::vector<double> obs_m, exp_m;
    double oa = 0, ea = 0;
    for (int b = 0; b < kBins; ++b) {
        oa += observed[b];
        ea += expected[b];
        if (ea >= 8.0) {
            obs_m.push_back(oa);
            exp_m.push_back(ea);
            oa = ea = 0;
        }
    }
    EXPECT_LT(testing::chi_square(obs_m, exp_m),
              testing::chi_square_critical(static_cast<double>(obs_m.size() - 1)));
}

TEST(RhgSpace, EdgePredicateMatchesDistance) {
    // The trig-free Eq. 9 test must agree with the direct Eq. 4 distance.
    const hyp::Params params{5000, 16, 2.7, 13};
    const hyp::HypGrid grid(params, 2);
    const auto& space = grid.space();
    const auto pts    = grid.all_points();
    Rng rng(99);
    for (int t = 0; t < 200000; ++t) {
        const auto& p = pts[rng.range(pts.size())];
        const auto& q = pts[rng.range(pts.size())];
        if (p.id == q.id) continue;
        const bool fast = space.edge(p, q);
        const bool slow = space.distance(p, q) < space.radius();
        EXPECT_EQ(fast, slow) << "r_p=" << p.r << " r_q=" << q.r;
    }
}

TEST(RhgStats, AverageDegreeTracksTarget) {
    // Eq. (2) is asymptotic; allow a generous band but require the right
    // scale and monotonicity in the target degree.
    const u64 n = 30000;
    double prev = 0.0;
    for (const double target : {8.0, 16.0, 32.0}) {
        const hyp::Params params{n, target, 2.9, 4242};
        const auto per_pe =
            testing::per_pe(testing::to_config(Model::RhgStreaming, params), 8);
        const auto edges  = pe::union_undirected(per_pe);
        const double mean = 2.0 * static_cast<double>(edges.size()) /
                            static_cast<double>(n);
        EXPECT_GT(mean, 0.55 * target);
        EXPECT_LT(mean, 1.8 * target);
        EXPECT_GT(mean, prev); // monotone in the target
        prev = mean;
    }
}

TEST(RhgStats, PowerLawExponentNearGamma) {
    const hyp::Params params{60000, 12, 2.6, 31};
    const auto per_pe = testing::per_pe(testing::to_config(Model::RhgStreaming, params), 8);
    const auto degs = degrees(pe::union_undirected(per_pe), params.n);
    const double est = power_law_exponent_mle(degs, 12);
    EXPECT_NEAR(est, params.gamma, 0.45);
}

TEST(RhgStats, HighDegreeVerticesSitAtSmallRadii) {
    const hyp::Params params{20000, 16, 2.5, 7};
    const hyp::HypGrid grid(params, 4);
    const auto per_pe = testing::per_pe(testing::to_config(Model::Rhg, params), 4);
    const auto degs = degrees(pe::union_undirected(per_pe), params.n);
    // Compare mean radius of the top-decile degree vertices vs the rest.
    std::vector<double> radius(params.n);
    for (const auto& p : grid.all_points()) radius[p.id] = p.r;
    std::vector<u64> order(params.n);
    std::iota(order.begin(), order.end(), u64{0});
    std::sort(order.begin(), order.end(),
              [&](u64 a, u64 b) { return degs[a] > degs[b]; });
    double hub_r = 0, rest_r = 0;
    const u64 top = params.n / 10;
    for (u64 i = 0; i < params.n; ++i) {
        (i < top ? hub_r : rest_r) += radius[order[i]];
    }
    hub_r /= static_cast<double>(top);
    rest_r /= static_cast<double>(params.n - top);
    EXPECT_LT(hub_r, rest_r - 1.0) << "hubs must concentrate near the center";
}

TEST(RhgGenerators, DeterministicPerRank) {
    const hyp::Params params{2000, 8, 2.8, 3};
    EXPECT_EQ(generate(testing::to_config(Model::Rhg, params), 2, 4).edges,
              generate(testing::to_config(Model::Rhg, params), 2, 4).edges);
    EXPECT_EQ(generate(testing::to_config(Model::RhgStreaming, params), 2, 4).edges,
              generate(testing::to_config(Model::RhgStreaming, params), 2, 4).edges);
}

TEST(RhgGenerators, InMemoryOutputIsPartitioned) {
    // §7.1: the in-memory generator emits every edge incident to a local
    // vertex on that vertex's PE — each exactly once, and nothing else.
    const hyp::Params params{1500, 10, 2.9, 17};
    constexpr u64 P = 4;
    const hyp::HypGrid grid(params, P);
    std::vector<u64> owner(params.n);
    for (u32 a = 0; a < grid.num_annuli(); ++a) {
        for (u64 c = 0; c < P; ++c) {
            for (const auto& p : grid.chunk_points(a, c)) owner[p.id] = c;
        }
    }
    const auto per_pe = testing::per_pe(testing::to_config(Model::Rhg, params), P);
    std::vector<EdgeList> incident(P);
    for (const auto& e : pe::union_undirected(per_pe)) {
        incident[owner[e.first]].push_back(e);
        if (owner[e.second] != owner[e.first]) incident[owner[e.second]].push_back(e);
    }
    for (u64 r = 0; r < P; ++r) {
        EXPECT_EQ(sorted(per_pe[r]), undirected_set(per_pe[r]))
            << "rank " << r << " repeats an edge";
        EXPECT_EQ(undirected_set(per_pe[r]), undirected_set(incident[r])) << "rank " << r;
    }
}

TEST(RhgGrid, GlobalStreamingSplitRespondsToPeCount) {
    // More PEs -> narrower chunks -> more annuli classified as global.
    const hyp::Params params{100000, 16, 2.9, 1};
    const hyp::HypGrid g2(params, 2);
    const hyp::HypGrid g64(params, 64);
    EXPECT_LE(rhg::first_streaming_annulus(g2), rhg::first_streaming_annulus(g64));
    EXPECT_LT(rhg::first_streaming_annulus(g64), g64.num_annuli())
        << "some annuli must stream at this size";
}

} // namespace
} // namespace kagen
