// Sampling without replacement: Floyd, Vitter (A + D), and the distributed
// divide-and-conquer chunk sampler (uniformity, determinism, PE-consistency).
// The SamplerV2* and BernoulliSample suites are the acceptance gate of the
// v2 engine (DESIGN.md §10). Its bytes are pinned by golden fixtures;
// these pin its *distribution* — exact first-position law (chi-square +
// KS), uniform inclusion (sparse leaves, the duplicate top-up of dense
// leaves, both sides of a split, low bits of huge universes),
// hypergeometric split consistency, and the geometric gap law of the
// Bernoulli fast path.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/math.hpp"
#include "sampling/sampling.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

TEST(FloydSample, DistinctInRangeCorrectCount) {
    Rng rng(1);
    for (u64 k : {u64{0}, u64{1}, u64{50}, u64{100}}) {
        const auto s = floyd_sample(rng, 100, k);
        EXPECT_EQ(s.size(), k);
        std::set<u64> set(s.begin(), s.end());
        EXPECT_EQ(set.size(), k);
        for (u64 x : s) EXPECT_LT(x, 100u);
    }
}

TEST(FloydSample, FullUniverse) {
    Rng rng(2);
    const auto s = floyd_sample(rng, 10, 10);
    std::set<u64> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), 10u);
}

TEST(FloydSample, UniformInclusion) {
    Rng rng(3);
    constexpr u64 kUniverse = 40, kK = 10, kRuns = 40000;
    std::vector<double> hits(kUniverse, 0.0);
    for (u64 r = 0; r < kRuns; ++r) {
        for (u64 x : floyd_sample(rng, kUniverse, kK)) hits[x] += 1.0;
    }
    const std::vector<double> expected(kUniverse, kRuns * static_cast<double>(kK) / kUniverse);
    EXPECT_LT(testing::chi_square(hits, expected),
              testing::chi_square_critical(kUniverse - 1));
}

struct SortedCase {
    u64 universe;
    u64 k;
};

class SortedSample : public ::testing::TestWithParam<SortedCase> {};

TEST_P(SortedSample, SortedDistinctInRange) {
    const auto [universe, k] = GetParam();
    Rng rng(7);
    std::vector<u64> out;
    sorted_sample(rng, universe, k, [&](u64 x) { out.push_back(x); });
    ASSERT_EQ(out.size(), k);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_LT(out[i], universe);
        if (i > 0) {
            EXPECT_LT(out[i - 1], out[i]); // strictly increasing
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, SortedSample,
    ::testing::Values(SortedCase{10, 0},                    // empty
                      SortedCase{10, 10},                   // everything
                      SortedCase{1u << 20, 5},              // sparse, Method D
                      SortedCase{1u << 20, 1u << 10},       // Method D
                      SortedCase{1000, 400},                // dense, Method A
                      SortedCase{1000, 999},                // nearly everything
                      SortedCase{u64{1} << 45, 2000},       // huge universe
                      SortedCase{1, 1}                      // singleton
                      ));

TEST(SortedSampleStat, UniformInclusionSparse) {
    // Method D path: bucket the universe; inclusion counts must be uniform.
    Rng rng(11);
    constexpr u64 kUniverse = 100000, kK = 500, kRuns = 800, kBuckets = 50;
    std::vector<double> hits(kBuckets, 0.0);
    for (u64 r = 0; r < kRuns; ++r) {
        sorted_sample(rng, kUniverse, kK,
                      [&](u64 x) { hits[x / (kUniverse / kBuckets)] += 1.0; });
    }
    const std::vector<double> expected(
        kBuckets, static_cast<double>(kRuns * kK) / kBuckets);
    EXPECT_LT(testing::chi_square(hits, expected),
              testing::chi_square_critical(kBuckets - 1));
}

TEST(SortedSampleStat, UniformInclusionDense) {
    // Method A path (k/universe > 1/13).
    Rng rng(13);
    constexpr u64 kUniverse = 200, kK = 60, kRuns = 20000;
    std::vector<double> hits(kUniverse, 0.0);
    for (u64 r = 0; r < kRuns; ++r) {
        sorted_sample(rng, kUniverse, kK, [&](u64 x) { hits[x] += 1.0; });
    }
    const std::vector<double> expected(
        kUniverse, static_cast<double>(kRuns) * kK / kUniverse);
    EXPECT_LT(testing::chi_square(hits, expected),
              testing::chi_square_critical(kUniverse - 1));
}

TEST(SortedSampleStat, FirstElementDistribution) {
    // P(min sample = s) has a known closed form; spot-check the head mass:
    // P(min = 0) = k / universe.
    Rng rng(17);
    constexpr u64 kUniverse = 1000, kK = 10, kRuns = 50000;
    u64 zero_first = 0;
    for (u64 r = 0; r < kRuns; ++r) {
        bool first = true;
        sorted_sample(rng, kUniverse, kK, [&](u64 x) {
            if (first && x == 0) ++zero_first;
            first = false;
        });
    }
    const double p   = static_cast<double>(kK) / kUniverse;
    const double tol = 6 * std::sqrt(p * (1 - p) / kRuns);
    EXPECT_NEAR(static_cast<double>(zero_first) / kRuns, p, tol);
}

TEST_P(SortedSample, V2SortedDistinctInRange) {
    const auto [universe, k] = GetParam();
    Rng rng(7);
    std::vector<u64> out;
    sorted_sample(rng, universe, k, [&](u64 x) { out.push_back(x); },
                  SamplerVersion::v2);
    ASSERT_EQ(out.size(), k);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_LT(out[i], universe);
        if (i > 0) {
            EXPECT_LT(out[i - 1], out[i]); // strictly increasing
        }
    }
}

TEST(SamplerV2Stat, DeterministicGivenRngState) {
    for (u64 seed : {u64{1}, u64{42}, u64{0xdeadULL}}) {
        Rng a(seed), b(seed);
        std::vector<u64> sa, sb;
        sorted_sample(a, u64{1} << 24, 4096, [&](u64 x) { sa.push_back(x); },
                      SamplerVersion::v2);
        sorted_sample(b, u64{1} << 24, 4096, [&](u64 x) { sb.push_back(x); },
                      SamplerVersion::v2);
        EXPECT_EQ(sa, sb);
    }
}

TEST(SamplerV2Stat, UniformInclusionSparse) {
    // v2 spacings leaves: bucketed inclusion counts must be uniform — the
    // same gate the v1 engine passes above.
    Rng rng(11);
    constexpr u64 kUniverse = 100000, kK = 500, kRuns = 800, kBuckets = 50;
    std::vector<double> hits(kBuckets, 0.0);
    for (u64 r = 0; r < kRuns; ++r) {
        sorted_sample(rng, kUniverse, kK,
                      [&](u64 x) { hits[x / (kUniverse / kBuckets)] += 1.0; },
                      SamplerVersion::v2);
    }
    const std::vector<double> expected(
        kBuckets, static_cast<double>(kRuns * kK) / kBuckets);
    EXPECT_LT(testing::chi_square(hits, expected),
              testing::chi_square_critical(kBuckets - 1));
}

// log C(a, b) via lgamma — exact reference for the skip laws below.
double log_choose(double a, double b) {
    return std::lgamma(a + 1) - std::lgamma(b + 1) - std::lgamma(a - b + 1);
}

TEST(SamplerV2Stat, FirstPositionChiSquare) {
    // The smallest sampled position has the exact law
    //   P(min = s) = C(n-1-s, k-1) / C(n, k),   s in [0, n-k],
    // which exercises one whole spacings leaf: the exponential fill, the
    // prefix sums and the scaling to positions. Any bias in them would
    // surface here scaled by ~sqrt(runs).
    constexpr u64 kN = 4096, kK = 8, kRuns = 60000;
    std::map<u64, u64> hist;
    for (u64 r = 0; r < kRuns; ++r) {
        Rng rng(r * 2654435761u + 17);
        bool first = true;
        sorted_sample(rng, kN, kK,
                      [&](u64 x) {
                          if (first) ++hist[x];
                          first = false;
                      },
                      SamplerVersion::v2);
    }
    const double log_total = log_choose(kN, kK);
    std::vector<double> pmf(kN - kK + 1);
    for (u64 s = 0; s <= kN - kK; ++s) {
        pmf[s] = std::exp(log_choose(kN - 1.0 - static_cast<double>(s), kK - 1.0) -
                          log_total);
    }
    const auto r = testing::binned_chi_square(hist, pmf, 0, kRuns);
    ASSERT_GT(r.df, 10.0);
    EXPECT_LT(r.statistic, testing::chi_square_critical(r.df));
}

TEST(SamplerV2Stat, PositionsKSAgainstExactCdf) {
    // Two KS gates on the sparse-leaf regime:
    //  (a) the first-position CDF, P(min <= s) = 1 - C(n-1-s, k)/C(n, k),
    //      iid across runs — a sensitive tail test of the skip law;
    //  (b) all emitted positions pooled vs the uniform marginal (each
    //      element of a uniform k-subset is marginally uniform; the
    //      within-run negative dependence only shrinks the statistic, so
    //      the iid threshold is conservative).
    constexpr u64 kN = u64{1} << 20, kK = 64, kRuns = 500;
    std::vector<double> firsts;
    std::vector<double> pooled;
    for (u64 r = 0; r < kRuns; ++r) {
        Rng rng(r * 40503u + 7);
        bool first = true;
        sorted_sample(rng, kN, kK,
                      [&](u64 x) {
                          if (first) firsts.push_back(static_cast<double>(x));
                          first = false;
                          pooled.push_back(static_cast<double>(x));
                      },
                      SamplerVersion::v2);
    }
    const double log_total = log_choose(static_cast<double>(kN), static_cast<double>(kK));
    const auto first_cdf   = [&](double s) {
        const double rest = static_cast<double>(kN) - 1.0 - std::floor(s);
        if (rest < static_cast<double>(kK)) return 1.0;
        return 1.0 - std::exp(log_choose(rest, static_cast<double>(kK)) - log_total);
    };
    EXPECT_LT(testing::ks_statistic(firsts, first_cdf),
              testing::ks_critical(firsts.size()));
    const auto uniform_cdf = [&](double s) {
        return (std::floor(s) + 1.0) / static_cast<double>(kN);
    };
    EXPECT_LT(testing::ks_statistic(pooled, uniform_cdf),
              testing::ks_critical(pooled.size()));
}

TEST(SamplerV2Stat, HypergeometricSplitConsistency) {
    // The ChunkedSampler count layer is engine-agnostic: v1 and v2 must
    // agree exactly on how many samples each chunk receives (the split is
    // decided before any within-chunk engine runs), and the v2 within-chunk
    // output must be a valid sorted sample of the advertised size.
    for (u64 chunks : {u64{2}, u64{5}, u64{16}}) {
        const auto uni = make_row_universe(4096, chunks, 4095);
        ChunkedSampler sampler(2024, uni, 60000);
        u64 total = 0;
        for (u64 c = 0; c < chunks; ++c) {
            const u64 expect = sampler.samples_in_chunk(c);
            total += expect;
            std::vector<u64> v1_out, v2_out;
            sampler.sample_chunk(c, [&](u64 x) { v1_out.push_back(x); },
                                 SamplerVersion::v1);
            sampler.sample_chunk(c, [&](u64 x) { v2_out.push_back(x); },
                                 SamplerVersion::v2);
            // Same count layer: identical sizes. Different engines:
            // positions may differ, but both are sorted, distinct, in-range.
            ASSERT_EQ(v1_out.size(), expect);
            ASSERT_EQ(v2_out.size(), expect);
            const u128 size = uni.chunk_size(c);
            for (std::size_t i = 0; i < v2_out.size(); ++i) {
                EXPECT_LT(static_cast<u128>(v2_out[i]), size);
                if (i > 0) EXPECT_LT(v2_out[i - 1], v2_out[i]);
            }
        }
        EXPECT_EQ(total, 60000u) << chunks << " chunks";
    }
}

TEST(SamplerV2Stat, ChunkSplitIsHypergeometricUnderV2) {
    // Statistical side of the split consistency: with two equal chunks the
    // left count is Hypergeometric(N, N/2, m) regardless of engine; verify
    // the *v2-sampled* chunk emits exactly that many samples run over run.
    constexpr u64 kRuns = 2000;
    constexpr u64 kM    = 64;
    double sum = 0.0;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        ChunkedSampler sampler(seed, make_row_universe(128, 2, 100), kM);
        u64 emitted = 0;
        sampler.sample_chunk(0, [&](u64) { ++emitted; }, SamplerVersion::v2);
        EXPECT_EQ(emitted, sampler.samples_in_chunk(0));
        sum += static_cast<double>(emitted);
    }
    const double mean = sum / kRuns;
    const double tol  = 6 * std::sqrt(16.0 / kRuns);
    EXPECT_NEAR(mean, kM / 2.0, tol);
}

// Sorted, distinct, in range and exactly k long.
::testing::AssertionResult valid_sample(const std::vector<u64>& s, u64 universe, u64 k) {
    if (s.size() != k) {
        return ::testing::AssertionFailure() << s.size() << " samples, want " << k;
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] >= universe) return ::testing::AssertionFailure() << s[i] << " out of range";
        if (i > 0 && s[i - 1] >= s[i]) {
            return ::testing::AssertionFailure() << "not increasing at " << i;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(SamplerV2Stat, DuplicateTopUpKeepsInclusionUniform) {
    // u = 14k: one split into two leaves of u/k ~ 14, just above the
    // Method A switch, where each leaf's k iid positions collide ~75 times
    // and the top-up draws replace them. A leaf that rejected and redrew
    // on any duplicate would accept with probability ~e^-73 and never
    // finish. Gates: validity every run, uniform inclusion over 256
    // buckets, and the adjacent-pair count k(k-1)/u of a uniform k-subset,
    // which catches a top-up that keeps the right marginals but places
    // the replacements wrongly.
    constexpr u64 kK = 4096, kUniverse = 14 * kK, kRuns = 400, kBuckets = 256;
    std::vector<double> hits(kBuckets, 0.0);
    double pairs = 0.0;
    for (u64 r = 0; r < kRuns; ++r) {
        Rng rng(r * 7919 + 3);
        std::vector<u64> out;
        out.reserve(kK);
        sorted_sample(rng, kUniverse, kK, [&](u64 x) { out.push_back(x); },
                      SamplerVersion::v2);
        ASSERT_TRUE(valid_sample(out, kUniverse, kK)) << "run " << r;
        for (std::size_t i = 0; i < out.size(); ++i) {
            hits[out[i] / (kUniverse / kBuckets)] += 1.0;
            if (i > 0 && out[i] == out[i - 1] + 1) pairs += 1.0;
        }
    }
    const std::vector<double> expected(kBuckets,
                                       static_cast<double>(kRuns * kK) / kBuckets);
    EXPECT_LT(testing::chi_square(hits, expected),
              testing::chi_square_critical(kBuckets - 1));
    // Each of the u-1 adjacent pairs is in the sample with probability
    // k(k-1)/(u(u-1)); the count is a sum of weakly dependent indicators,
    // so a Poisson sd bounds its spread.
    const double want = kRuns * static_cast<double>(kK) * (kK - 1) / kUniverse;
    EXPECT_NEAR(pairs, want, 6.0 * std::sqrt(want));
}

TEST(SamplerV2Stat, SpacingsLeafIsUniformOverAllSubsets) {
    // Exactness of one leaf, top-up included, in the regime where nearly
    // every leaf collides: spacings_leaf runs here far below its u >= 13k
    // operating range, and every k-subset of [0, u) must come out equally
    // often. Losing or misplacing values around a duplicate shows up as
    // unequal subset frequencies even where per-position inclusion stays
    // flat.
    for (const auto [universe, k] : {std::pair<u64, u64>{8, 4}, {10, 3}}) {
        std::map<u64, double> freq; // subset bitmask -> count
        const u64 runs = 60000;
        for (u64 r = 0; r < runs; ++r) {
            Rng rng(r * 6364136223846793005ull + universe);
            std::vector<u64> out;
            auto consume = [&](const u64* pos, std::size_t count, u64 offset) {
                for (std::size_t i = 0; i < count; ++i) out.push_back(offset + pos[i]);
            };
            detail::spacings_leaf(rng, universe, k, 0, consume);
            ASSERT_TRUE(valid_sample(out, universe, k)) << "run " << r;
            u64 mask = 0;
            for (u64 x : out) mask |= u64{1} << x;
            freq[mask] += 1.0;
        }
        const double subsets = std::exp(log_choose(universe, k));
        ASSERT_EQ(freq.size(), static_cast<std::size_t>(std::llround(subsets)));
        std::vector<double> observed;
        for (const auto& [mask, count] : freq) observed.push_back(count);
        const std::vector<double> expected(observed.size(), runs / subsets);
        EXPECT_LT(testing::chi_square(observed, expected),
                  testing::chi_square_critical(subsets - 1))
            << "u=" << universe << " k=" << k;
    }
}

TEST(SamplerV2Stat, HugeUniverseKeepsLowBits) {
    // u = 2^60: the halving recursion must go on below the sample bound
    // until leaves are at most 2^50 wide. A leaf of 2^55 would floor
    // doubles whose ulp is 8, and x mod 64 would hit only multiples of 8.
    constexpr u64 kUniverse = u64{1} << 60, kK = u64{1} << 16, kRuns = 4;
    std::vector<double> hits(64, 0.0);
    for (u64 r = 0; r < kRuns; ++r) {
        Rng rng(r + 101);
        std::vector<u64> out;
        out.reserve(kK);
        sorted_sample(rng, kUniverse, kK, [&](u64 x) { out.push_back(x); },
                      SamplerVersion::v2);
        ASSERT_TRUE(valid_sample(out, kUniverse, kK)) << "run " << r;
        for (u64 x : out) hits[x % 64] += 1.0;
    }
    const std::vector<double> expected(64, static_cast<double>(kRuns * kK) / 64);
    EXPECT_LT(testing::chi_square(hits, expected), testing::chi_square_critical(63));
}

TEST(SamplerV2Stat, InclusionUniformAcrossTheSplit) {
    // k > 2048 forces a hypergeometric split at left = u/2 (u odd, so the
    // halves differ by one). Per-position inclusion in a window straddling
    // the split point must be flat, and the left half must receive
    // k·left/u samples on average.
    constexpr u64 kUniverse = 100001, kK = 5000, kRuns = 2000, kHalfWindow = 64;
    constexpr u64 kLeft = kUniverse / 2;
    std::vector<double> window(2 * kHalfWindow, 0.0);
    double left_total = 0.0;
    for (u64 r = 0; r < kRuns; ++r) {
        Rng rng(r * 104729 + 11);
        sorted_sample(rng, kUniverse, kK,
                      [&](u64 x) {
                          if (x < kLeft) left_total += 1.0;
                          if (x + kHalfWindow >= kLeft && x < kLeft + kHalfWindow) {
                              window[x + kHalfWindow - kLeft] += 1.0;
                          }
                      },
                      SamplerVersion::v2);
    }
    const std::vector<double> expected(
        2 * kHalfWindow, static_cast<double>(kRuns) * kK / kUniverse);
    EXPECT_LT(testing::chi_square(window, expected),
              testing::chi_square_critical(2 * kHalfWindow - 1));
    // Hypergeometric(u, left, k) variance, summed over runs.
    const double p    = static_cast<double>(kLeft) / kUniverse;
    const double var  = kK * p * (1 - p) * (kUniverse - kK) / (kUniverse - 1.0);
    const double mean = kRuns * kK * p;
    EXPECT_NEAR(left_total, mean, 6.0 * std::sqrt(kRuns * var));
}

/// Checks the block contract of sampling.hpp over one draw: every block
/// holds 1..kSpacingsLeafSamples positions, and all positions, across
/// blocks, increase and stay below `universe`. Returns them.
template <typename Draw>
std::vector<u64> checked_blocks(u64 universe, Draw&& draw) {
    std::vector<u64> out;
    draw([&](const u64* pos, std::size_t count, u64 offset) {
        ASSERT_GE(count, 1u);
        ASSERT_LE(count, detail::kSpacingsLeafSamples);
        for (std::size_t i = 0; i < count; ++i) {
            const u64 x = offset + pos[i];
            ASSERT_LT(x, universe);
            if (!out.empty()) {
                ASSERT_LT(out.back(), x);
            }
            out.push_back(x);
        }
    });
    return out;
}

TEST(SampleBlocks, BoundedIncreasingBlocksForEveryEngine) {
    // Method D with its Method A tail (v1), the full universe, v2's sparse
    // and dense leaves across halving splits, and the Bernoulli stream
    // including p = 1, each longer than one block.
    const SortedCase cases[] = {{u64{1} << 40, 9000}, {20000, 9000}, {5000, 5000},
                                {u64{1} << 60, 5000}, {30000, 2049}};
    for (const auto [universe, k] : cases) {
        for (const SamplerVersion v : {SamplerVersion::v1, SamplerVersion::v2}) {
            Rng rng(universe + k);
            const auto out = checked_blocks(universe, [&](auto&& consume) {
                sorted_sample_blocks(rng, universe, k, consume, v);
            });
            EXPECT_EQ(out.size(), k) << "u=" << universe << " k=" << k;
        }
    }
    for (const double p : {0.001, 0.3, 1.0}) {
        Rng rng(17);
        const auto out = checked_blocks(100000, [&](auto&& consume) {
            bernoulli_sample_blocks(rng, 100000, p, consume);
        });
        EXPECT_GT(out.size(), 2 * detail::kSpacingsLeafSamples * p) << "p=" << p;
    }
}

TEST(BernoulliSample, EdgeCases) {
    Rng rng(1);
    u64 count = 0;
    bernoulli_sample(rng, 0, 0.5, [&](u64) { ++count; });
    EXPECT_EQ(count, 0u);
    bernoulli_sample(rng, 100, 0.0, [&](u64) { ++count; });
    EXPECT_EQ(count, 0u);
    std::vector<u64> all;
    bernoulli_sample(rng, 100, 1.0, [&](u64 x) { all.push_back(x); });
    ASSERT_EQ(all.size(), 100u);
    for (u64 i = 0; i < 100; ++i) EXPECT_EQ(all[i], i);
}

TEST(BernoulliSample, SortedDistinctInRangeAndDeterministic) {
    Rng a(99), b(99);
    std::vector<u64> sa, sb;
    bernoulli_sample(a, u64{1} << 22, 0.001, [&](u64 x) { sa.push_back(x); });
    bernoulli_sample(b, u64{1} << 22, 0.001, [&](u64 x) { sb.push_back(x); });
    EXPECT_EQ(sa, sb);
    ASSERT_FALSE(sa.empty());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_LT(sa[i], u64{1} << 22);
        if (i > 0) EXPECT_LT(sa[i - 1], sa[i]);
    }
}

TEST(BernoulliSample, GapLawIsGeometric) {
    // Successive gaps of the geometric-skip stream are iid with
    // P(gap = s) = (1-p)^s * p — the defining property that makes the
    // fast path *exactly* a Bernoulli(p) process and not an approximation.
    Rng rng(7);
    constexpr double kP     = 0.01;
    constexpr u64 kUniverse = u64{1} << 24;
    std::map<u64, u64> gaps;
    u64 prev = 0, count = 0;
    bool first = true;
    bernoulli_sample(rng, kUniverse, kP, [&](u64 x) {
        const u64 gap = first ? x : x - prev - 1;
        first         = false;
        prev          = x;
        ++gaps[gap];
        ++count;
    });
    ASSERT_GT(count, 100000u);
    // Geometric pmf truncated where expected counts fall below ~1.
    const std::size_t support = static_cast<std::size_t>(12.0 / kP);
    std::vector<double> pmf(support);
    for (std::size_t s = 0; s < support; ++s) {
        pmf[s] = std::pow(1.0 - kP, static_cast<double>(s)) * kP;
    }
    const auto r = testing::binned_chi_square(gaps, pmf, 0, count);
    ASSERT_GT(r.df, 20.0);
    EXPECT_LT(r.statistic, testing::chi_square_critical(r.df));
}

TEST(BernoulliSample, CountMatchesBinomialMoments) {
    // Number emitted over N slots ~ Binomial(N, p).
    constexpr u64 kUniverse = 200000;
    constexpr double kP     = 0.005;
    constexpr u64 kRuns     = 500;
    double sum = 0.0, sum_sq = 0.0;
    for (u64 r = 0; r < kRuns; ++r) {
        Rng rng(r * 7919u + 3);
        u64 c = 0;
        bernoulli_sample(rng, kUniverse, kP, [&](u64) { ++c; });
        const double x = static_cast<double>(c);
        sum += x;
        sum_sq += x * x;
    }
    const double mean     = sum / kRuns;
    const double var      = sum_sq / kRuns - mean * mean;
    const double exp_mean = kUniverse * kP;
    const double exp_var  = exp_mean * (1 - kP);
    EXPECT_NEAR(mean, exp_mean, 6 * std::sqrt(exp_var / kRuns));
    EXPECT_NEAR(var, exp_var, 0.25 * exp_var);
}

TEST(ChunkedSampler, CountsSumToTotal) {
    for (u64 chunks : {u64{1}, u64{2}, u64{7}, u64{16}}) {
        ChunkedSampler sampler(99, make_row_universe(1000, chunks, 999), 5000);
        u64 total = 0;
        for (u64 c = 0; c < chunks; ++c) total += sampler.samples_in_chunk(c);
        EXPECT_EQ(total, 5000u) << chunks << " chunks";
    }
}

TEST(ChunkedSampler, DeterministicAcrossInstances) {
    const auto uni = make_row_universe(512, 8, 511);
    ChunkedSampler a(123, uni, 4096);
    ChunkedSampler b(123, uni, 4096);
    for (u64 c = 0; c < 8; ++c) {
        EXPECT_EQ(a.samples_in_chunk(c), b.samples_in_chunk(c));
        std::vector<u64> sa, sb;
        a.sample_chunk(c, [&](u64 x) { sa.push_back(x); });
        b.sample_chunk(c, [&](u64 x) { sb.push_back(x); });
        EXPECT_EQ(sa, sb);
    }
}

TEST(ChunkedSampler, SamplesAreDistinctWithinChunkAndCorrectlySized) {
    ChunkedSampler sampler(5, make_row_universe(100, 4, 99), 2000);
    for (u64 c = 0; c < 4; ++c) {
        const u64 expect = sampler.samples_in_chunk(c);
        std::set<u64> seen;
        u64 count = 0;
        const u128 chunk_size = make_row_universe(100, 4, 99).chunk_size(c);
        sampler.sample_chunk(c, [&](u64 x) {
            EXPECT_LT(static_cast<u128>(x), chunk_size);
            seen.insert(x);
            ++count;
        });
        EXPECT_EQ(count, expect);
        EXPECT_EQ(seen.size(), count);
    }
}

TEST(ChunkedSampler, ChunkCountsAreHypergeometric) {
    // With two equal chunks, the left count is Hypergeometric(N, N/2, m).
    constexpr u64 kRuns = 4000;
    constexpr u64 kM    = 64;
    double sum = 0.0;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        ChunkedSampler sampler(seed, make_row_universe(128, 2, 100), kM);
        sum += static_cast<double>(sampler.samples_in_chunk(0));
    }
    const double mean = sum / kRuns;
    // mean = m/2, var = m * (1/2)(1/2) * (N-m)/(N-1) ~ 16 * 0.995
    const double tol = 6 * std::sqrt(16.0 / kRuns);
    EXPECT_NEAR(mean, kM / 2.0, tol);
}

TEST(ChunkedSampler, UnevenChunkSizesRespected) {
    // 10 rows in 3 chunks: blocks of 4, 3, 3 rows.
    const auto uni = make_row_universe(10, 3, 7);
    EXPECT_EQ(static_cast<u64>(uni.chunk_size(0)), 4u * 7);
    EXPECT_EQ(static_cast<u64>(uni.chunk_size(1)), 3u * 7);
    EXPECT_EQ(static_cast<u64>(uni.range_size(0, 3)), 70u);
    ChunkedSampler sampler(1, uni, 70); // saturate: every slot sampled
    for (u64 c = 0; c < 3; ++c) {
        EXPECT_EQ(sampler.samples_in_chunk(c), static_cast<u64>(uni.chunk_size(c)));
    }
}

TEST(MathHelpers, TriangleInversionRoundTrip) {
    for (u64 k = 0; k < 5000; ++k) {
        const u64 r = triangle_row(k);
        EXPECT_LE(triangle(r), static_cast<u128>(k));
        EXPECT_GT(triangle(r + 1), static_cast<u128>(k));
    }
    // Large values near 2^80.
    const u128 big = (static_cast<u128>(1) << 80) + 12345;
    const u64 r    = triangle_row(big);
    EXPECT_LE(triangle(r), big);
    EXPECT_GT(triangle(static_cast<u128>(r) + 1), big);
}

TEST(MathHelpers, BlockPartitionCoversExactly) {
    for (u64 n : {u64{1}, u64{10}, u64{17}, u64{1000}}) {
        for (u64 parts : {u64{1}, u64{3}, u64{7}}) {
            u64 covered = 0;
            for (u64 p = 0; p < parts; ++p) covered += block_size(n, parts, p);
            EXPECT_EQ(covered, n);
            for (u64 i = 0; i < n; ++i) {
                const u64 owner = block_owner(n, parts, i);
                EXPECT_GE(i, block_begin(n, parts, owner));
                EXPECT_LT(i, block_begin(n, parts, owner + 1));
            }
        }
    }
}

TEST(MathHelpers, Isqrt) {
    EXPECT_EQ(isqrt(0), 0u);
    EXPECT_EQ(isqrt(1), 1u);
    EXPECT_EQ(isqrt(15), 3u);
    EXPECT_EQ(isqrt(16), 4u);
    const u128 x = (static_cast<u128>(1) << 90) - 1;
    const u128 r = isqrt(x);
    EXPECT_LE(r * r, x);
    EXPECT_GT((r + 1) * (r + 1), x);
}

} // namespace
} // namespace kagen
