// Baseline generators (Fig. 6 / Fig. 9 / Fig. 14 comparators): they must be
// *correct* implementations of their models, or the benchmark comparisons
// against them are meaningless.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "baselines/holtgrewe_rgg.hpp"
#include "common/math.hpp"
#include "baselines/nkgen_like.hpp"
#include "baselines/sequential_er.hpp"
#include "graph/stats.hpp"
#include "pe/pe.hpp"
#include "rhg/rhg.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

TEST(BatageljBrandes, GnmExactCountDistinctNoLoops) {
    for (u64 m : {u64{0}, u64{1}, u64{5000}}) {
        const auto dir = baselines::bb_gnm_directed(300, m, 3);
        EXPECT_EQ(dir.size(), m);
        std::set<Edge> set(dir.begin(), dir.end());
        EXPECT_EQ(set.size(), m);
        EXPECT_FALSE(has_self_loop(dir));
        const auto undir = baselines::bb_gnm_undirected(300, m, 3);
        EXPECT_EQ(undir.size(), m);
        for (const auto& [u, v] : undir) EXPECT_GT(u, v);
        std::set<Edge> uset(undir.begin(), undir.end());
        EXPECT_EQ(uset.size(), m);
    }
}

TEST(BatageljBrandes, GnmUniformOverPairs) {
    constexpr u64 n = 20, m = 30, kRuns = 20000;
    std::map<Edge, double> hits;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        for (const auto& e : baselines::bb_gnm_undirected(n, m, seed)) hits[e] += 1.0;
    }
    std::vector<double> observed;
    for (u64 u = 0; u < n; ++u) {
        for (u64 v = 0; v < u; ++v) observed.push_back(hits[{u, v}]);
    }
    const double per_pair = static_cast<double>(kRuns) * m / (n * (n - 1) / 2);
    const std::vector<double> expected(observed.size(), per_pair);
    EXPECT_LT(testing::chi_square(observed, expected),
              testing::chi_square_critical(static_cast<double>(observed.size() - 1)));
}

TEST(BatageljBrandes, GnpEdgeCountConcentrates) {
    constexpr u64 n = 500;
    constexpr double p = 0.02;
    double dir = 0.0, undir = 0.0;
    constexpr u64 kRuns = 50;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        dir += static_cast<double>(baselines::bb_gnp_directed(n, p, seed).size());
        undir += static_cast<double>(baselines::bb_gnp_undirected(n, p, seed).size());
    }
    const double exp_dir   = n * (n - 1) * p;
    const double exp_undir = exp_dir / 2;
    EXPECT_NEAR(dir / kRuns, exp_dir, 6 * std::sqrt(exp_dir / kRuns));
    EXPECT_NEAR(undir / kRuns, exp_undir, 6 * std::sqrt(exp_undir / kRuns));
}

TEST(BatageljBrandes, GnpZeroAndTinyP) {
    EXPECT_TRUE(baselines::bb_gnp_directed(100, 0.0, 1).empty());
    const auto sparse = baselines::bb_gnp_undirected(1000, 1e-7, 1);
    EXPECT_LT(sparse.size(), 10u);
}

TEST(HoltgreweRgg, EdgesMatchBruteForceOverItsPointSet) {
    const baselines::HoltgreweParams params{600, 0.06, 5};
    for (u64 P : {u64{1}, u64{3}, u64{8}}) {
        const auto result = baselines::holtgrewe_generate(params, P);
        // Reconstruct the phase-1 point set exactly as the generator does.
        std::vector<Vec2> pos(params.n);
        for (u64 pe = 0; pe < P; ++pe) {
            Rng rng      = Rng::for_ids(params.seed, {0x401739eeULL, pe});
            const u64 lo = block_begin(params.n, P, pe);
            const u64 hi = block_begin(params.n, P, pe + 1);
            for (u64 id = lo; id < hi; ++id) pos[id] = {rng.uniform(), rng.uniform()};
        }
        EdgeList expected;
        for (u64 i = 0; i < params.n; ++i) {
            for (u64 j = i + 1; j < params.n; ++j) {
                if (distance_sq(pos[i], pos[j]) <= params.r * params.r) {
                    expected.emplace_back(i, j);
                }
            }
        }
        sort_unique(expected);
        EXPECT_EQ(pe::union_undirected(result.per_pe), expected) << "P=" << P;
    }
}

TEST(HoltgreweRgg, CommunicationGrowsWithPeCount) {
    const baselines::HoltgreweParams params{4000, 0.02, 7};
    const auto r1 = baselines::holtgrewe_generate(params, 1);
    const auto r8 = baselines::holtgrewe_generate(params, 8);
    EXPECT_EQ(r1.bytes, 0u) << "single PE exchanges nothing";
    EXPECT_GT(r8.bytes, 0u);
    EXPECT_GT(baselines::simulated_comm_seconds(r8.messages, r8.bytes), 0.0);
}

TEST(NkGenLike, MatchesBruteForceAndInMemory) {
    const hyp::Params params{800, 12, 2.7, 9};
    for (u64 P : {u64{1}, u64{4}}) {
        std::vector<EdgeList> per_pe;
        for (u64 rank = 0; rank < P; ++rank) {
            per_pe.push_back(baselines::nkgen_like_generate(params, rank, P));
        }
        EXPECT_EQ(pe::union_undirected(per_pe), rhg::brute_force(params, P));
    }
}

} // namespace
} // namespace kagen
