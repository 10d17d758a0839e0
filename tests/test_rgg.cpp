// RGG generator: exact equivalence with the brute-force reference on the
// same deterministic point set, structural invariants, expected degree.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>

#include "common/math.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::to_config;

template <int D>
Config rgg_cfg(const rgg::Params& params) {
    return to_config(D == 2 ? Model::Rgg2D : Model::Rgg3D, params);
}

struct RggCase {
    u64 n;
    double r;
    u64 P;
};

class Rgg2D : public ::testing::TestWithParam<RggCase> {};
class Rgg3D : public ::testing::TestWithParam<RggCase> {};

TEST_P(Rgg2D, UnionEqualsBruteForce) {
    const auto [n, r, P] = GetParam();
    const rgg::Params params{n, r, /*seed=*/42};
    const auto per_pe = testing::per_pe(rgg_cfg<2>(params), P);
    const EdgeList got  = pe::union_undirected(per_pe);
    const EdgeList want = undirected_set(rgg::brute_force<2>(params, P));
    EXPECT_EQ(got, want);
}

TEST_P(Rgg3D, UnionEqualsBruteForce) {
    const auto [n, r, P] = GetParam();
    const rgg::Params params{n, r, /*seed=*/43};
    const auto per_pe = testing::per_pe(rgg_cfg<3>(params), P);
    const EdgeList got  = pe::union_undirected(per_pe);
    const EdgeList want = undirected_set(rgg::brute_force<3>(params, P));
    EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, Rgg2D,
    ::testing::Values(RggCase{500, 0.05, 1},   //
                      RggCase{500, 0.05, 4},   //
                      RggCase{500, 0.05, 7},   // non-power-of-two PEs
                      RggCase{1000, 0.02, 16}, //
                      RggCase{200, 0.5, 4},    // r wider than a chunk: big halo
                      RggCase{100, 1.5, 3},    // r > 1: complete graph
                      RggCase{100, 2.0, 4},    // r past the diagonal
                      RggCase{100, 1e300, 5},  // r*r overflows to inf
                      RggCase{50, 0.001, 8},   // ultra sparse
                      RggCase{0, 0.1, 2},      // empty graph
                      RggCase{1, 0.1, 2}       // single vertex
                      ));

INSTANTIATE_TEST_SUITE_P(
    Spectrum, Rgg3D,
    ::testing::Values(RggCase{400, 0.1, 1},  //
                      RggCase{400, 0.1, 8},  //
                      RggCase{400, 0.1, 5},  // non-power-of-eight PEs
                      RggCase{800, 0.3, 16}, // halo spans chunks
                      RggCase{100, 2.0, 3},  // complete graph
                      RggCase{100, 1e300, 9} // halo clamped to the grid
                      ));

TEST(Rgg, EdgesRespectRadiusExactly) {
    const rgg::Params params{800, 0.07, 7};
    const auto grid = rgg::point_grid<2>(params, 4);
    std::vector<Vec2> pos(params.n);
    for (const auto& p : grid.all_points()) pos[p.id] = p.pos;
    const auto per_pe = testing::per_pe(rgg_cfg<2>(params), 4);
    for (const auto& [u, v] : pe::union_undirected(per_pe)) {
        EXPECT_LE(distance(pos[u], pos[v]), params.r * 1.0000001);
    }
}

TEST(Rgg, NoSelfLoopsNoDuplicatesPerPe) {
    const rgg::Params params{2000, 0.03, 123};
    const auto per_pe = testing::per_pe(rgg_cfg<2>(params), 8);
    for (const auto& part : per_pe) {
        EXPECT_FALSE(has_self_loop(part));
        std::set<Edge> set(part.begin(), part.end());
        EXPECT_EQ(set.size(), part.size()) << "intra-PE duplicate edges";
    }
}

TEST(Rgg, CrossPeEdgesAppearOnBothOwners) {
    const rgg::Params params{1000, 0.08, 5};
    constexpr u64 P = 4;
    const auto grid = rgg::point_grid<2>(params, P);
    // vertex -> owning PE, derived from the chunk/Morton assignment.
    const u32 b       = rgg::chunk_levels<2>(P);
    const u32 shift   = (grid.levels() - b) * 2;
    const u64 nchunks = u64{1} << (2 * b);
    std::vector<u64> owner(params.n);
    for (u64 cell = 0; cell < grid.num_cells(); ++cell) {
        const u64 pe = block_owner(nchunks, P, cell >> shift);
        for (const auto& p : grid.cell_points(cell)) owner[p.id] = pe;
    }
    const auto per_pe = testing::per_pe(rgg_cfg<2>(params), P);
    std::vector<std::set<Edge>> sets(P);
    for (u64 r = 0; r < P; ++r) sets[r].insert(per_pe[r].begin(), per_pe[r].end());
    for (const auto& e : pe::union_undirected(per_pe)) {
        EXPECT_TRUE(sets[owner[e.first]].count(e));
        EXPECT_TRUE(sets[owner[e.second]].count(e));
    }
}

TEST(Rgg, ZeroRadiusGridFollowsDensity) {
    // r = 0 makes log2(1 / r) infinite; the grid depth must be the density
    // cap, as for any tiny radius, not whatever an out-of-range cast gives
    // (one cell holding every point made r = 0 cost O(n^2) pair tests).
    EXPECT_EQ(rgg::cell_levels<2>(4096, 0.0, 1), rgg::cell_levels<2>(4096, 1e-300, 1));
    EXPECT_EQ(rgg::cell_levels<3>(4096, 0.0, 1), rgg::cell_levels<3>(4096, 1e-300, 1));
    EXPECT_GT(rgg::cell_levels<2>(4096, 0.0, 1), 0u);
}

TEST(Rgg, DeterministicPerRank) {
    const rgg::Params params{3000, 0.02, 77};
    EXPECT_EQ(generate(rgg_cfg<2>(params), 2, 8).edges,
              generate(rgg_cfg<2>(params), 2, 8).edges);
    EXPECT_EQ(generate(rgg_cfg<3>(params), 3, 8).edges,
              generate(rgg_cfg<3>(params), 3, 8).edges);
}

TEST(Rgg, ExpectedDegreeMatchesTheory2D) {
    // Interior vertices have expected degree n*pi*r^2 (paper §2.1.2).
    const rgg::Params params{20000, 0.02, 9};
    const auto per_pe = testing::per_pe(rgg_cfg<2>(params), 4);
    const auto edges = pe::union_undirected(per_pe);
    const auto grid  = rgg::point_grid<2>(params, 4);
    const auto degs  = degrees(edges, params.n);
    // Average over interior vertices only (border effects shrink degrees).
    double sum = 0.0;
    u64 count  = 0;
    for (const auto& p : grid.all_points()) {
        bool interior = true;
        for (int d = 0; d < 2; ++d) {
            if (p.pos[d] < params.r || p.pos[d] > 1 - params.r) interior = false;
        }
        if (interior) {
            sum += static_cast<double>(degs[p.id]);
            ++count;
        }
    }
    const double mean     = sum / static_cast<double>(count);
    const double expected = static_cast<double>(params.n) * std::numbers::pi *
                            params.r * params.r;
    EXPECT_NEAR(mean, expected, 0.05 * expected);
}

TEST(Rgg, ExpectedDegreeMatchesTheory3D) {
    // d_bar = n * (4/3) pi r^3 for interior vertices.
    const rgg::Params params{20000, 0.06, 11};
    const auto per_pe = testing::per_pe(rgg_cfg<3>(params), 8);
    const auto edges = pe::union_undirected(per_pe);
    const auto grid  = rgg::point_grid<3>(params, 8);
    const auto degs  = degrees(edges, params.n);
    double sum = 0.0;
    u64 count  = 0;
    for (const auto& p : grid.all_points()) {
        bool interior = true;
        for (int d = 0; d < 3; ++d) {
            if (p.pos[d] < params.r || p.pos[d] > 1 - params.r) interior = false;
        }
        if (interior) {
            sum += static_cast<double>(degs[p.id]);
            ++count;
        }
    }
    const double mean     = sum / static_cast<double>(count);
    const double expected = static_cast<double>(params.n) * (4.0 / 3.0) *
                            std::numbers::pi * std::pow(params.r, 3);
    EXPECT_NEAR(mean, expected, 0.08 * expected);
}

TEST(Rgg, GiantComponentAtThresholdRadius) {
    // r = 0.55*sqrt(ln n / n) is the paper's benchmark radius (§8.4, [45]).
    // At n = 5000 the graph sits right at the connectivity threshold, so we
    // assert the robust consequence: a dominating giant component (few
    // leftover components, all tiny).
    constexpr u64 n = 5000;
    const double r  = 0.55 * std::sqrt(std::log(static_cast<double>(n)) / n);
    const rgg::Params params{n, r, 2024};
    const auto per_pe = testing::per_pe(rgg_cfg<2>(params), 4);
    const u64 components = connected_components(pe::union_undirected(per_pe), n);
    EXPECT_LE(components, n / 500) << "expected a giant component plus stragglers";
}

} // namespace
} // namespace kagen
