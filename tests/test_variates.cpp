// Statistical correctness of the non-uniform variate samplers: exact
// chi-square tests against the true pmfs for both the inversion and the
// rejection code paths, plus edge cases and determinism. The ExpFill /
// BatchedVariates suites pin the sampler-v2 exponential fill: accuracy
// against libm, bitwise equality of its scalar and AVX-512 copies, and the
// buffer/stream bookkeeping of the batched engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <numeric>

#include "common/math.hpp"
#include "testing.hpp"
#include "variates/batch.hpp"
#include "variates/exp_fill.hpp"
#include "variates/variates.hpp"

namespace kagen {
namespace {

std::vector<double> binomial_pmf(u64 n, double p) {
    // Exact pmf over the full support via log-space recurrence.
    std::vector<double> pmf(n + 1);
    const double logp = std::log(p), logq = std::log1p(-p);
    double logf       = static_cast<double>(n) * logq; // log P(X=0)
    for (u64 k = 0; k <= n; ++k) {
        pmf[k] = std::exp(logf);
        if (k < n) {
            logf += std::log(static_cast<double>(n - k) / static_cast<double>(k + 1)) +
                    logp - logq;
        }
    }
    return pmf;
}

std::vector<double> hypergeometric_pmf(u64 total, u64 success, u64 n, u64& kmin_out) {
    const u64 fail = total - success;
    const u64 kmin = n > fail ? n - fail : 0;
    const u64 kmax = std::min(n, success);
    kmin_out       = kmin;
    auto lc        = [](double a, double b) { // log C(a, b)
        return std::lgamma(a + 1) - std::lgamma(b + 1) - std::lgamma(a - b + 1);
    };
    std::vector<double> pmf;
    for (u64 k = kmin; k <= kmax; ++k) {
        const double lp = lc(success, k) + lc(fail, n - k) - lc(total, n);
        pmf.push_back(std::exp(lp));
    }
    return pmf;
}

struct BinomialCase {
    u64 n;
    double p;
};

class BinomialChiSquare : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialChiSquare, MatchesExactPmf) {
    const auto [n, p]      = GetParam();
    constexpr u64 kSamples = 40000;
    Rng rng(4242);
    std::map<u64, u64> hist;
    for (u64 i = 0; i < kSamples; ++i) ++hist[binomial(rng, n, p)];
    const auto pmf = binomial_pmf(n, p);
    const auto r   = testing::binned_chi_square(hist, pmf, 0, kSamples);
    ASSERT_GT(r.df, 1.0);
    EXPECT_LT(r.statistic, testing::chi_square_critical(r.df))
        << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    SmallAndLarge, BinomialChiSquare,
    ::testing::Values(BinomialCase{20, 0.5},    // inversion
                      BinomialCase{100, 0.07},  // inversion, small mean
                      BinomialCase{50, 0.9},    // symmetry + inversion
                      BinomialCase{400, 0.25},  // BTRS
                      BinomialCase{1000, 0.5},  // BTRS, symmetric
                      BinomialCase{2000, 0.85}, // symmetry + BTRS
                      BinomialCase{64, 0.5},    // the RGG splitter's case
                      BinomialCase{5000, 0.02}  // BTRS, skewed
                      ));

TEST(Binomial, EdgeCases) {
    Rng rng(1);
    EXPECT_EQ(binomial(rng, 0, 0.5), 0u);
    EXPECT_EQ(binomial(rng, 100, 0.0), 0u);
    EXPECT_EQ(binomial(rng, 100, 1.0), 100u);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LE(binomial(rng, 17, 0.3), 17u);
    }
}

TEST(Binomial, LargeNMeanAndVariance) {
    // n too large for exact pmf enumeration: check the first two moments.
    constexpr u64 n        = u64{1} << 40;
    constexpr double p     = 0.3;
    constexpr u64 kSamples = 3000;
    Rng rng(7);
    double sum = 0.0, sum_sq = 0.0;
    for (u64 i = 0; i < kSamples; ++i) {
        const double x = static_cast<double>(binomial(rng, n, p));
        sum += x;
        sum_sq += x * x;
    }
    const double mean     = sum / kSamples;
    const double var      = sum_sq / kSamples - mean * mean;
    const double exp_mean = static_cast<double>(n) * p;
    const double exp_var  = exp_mean * (1 - p);
    const double mean_tol = 6 * std::sqrt(exp_var / kSamples);
    EXPECT_NEAR(mean, exp_mean, mean_tol);
    EXPECT_NEAR(var, exp_var, 0.15 * exp_var);
}

TEST(Binomial, DeterministicGivenRngState) {
    Rng a(99), b(99);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(binomial(a, 1000, 0.37), binomial(b, 1000, 0.37));
    }
}

struct HyperCase {
    u64 total;
    u64 success;
    u64 n;
};

class HypergeometricChiSquare : public ::testing::TestWithParam<HyperCase> {};

TEST_P(HypergeometricChiSquare, MatchesExactPmf) {
    const auto [total, success, n] = GetParam();
    constexpr u64 kSamples         = 40000;
    Rng rng(31337);
    std::map<u64, u64> hist;
    for (u64 i = 0; i < kSamples; ++i) ++hist[hypergeometric(rng, total, success, n)];
    u64 kmin       = 0;
    const auto pmf = hypergeometric_pmf(total, success, n, kmin);
    const auto r   = testing::binned_chi_square(hist, pmf, kmin, kSamples);
    ASSERT_GT(r.df, 1.0);
    EXPECT_LT(r.statistic, testing::chi_square_critical(r.df))
        << "N=" << total << " K=" << success << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    SmallAndLarge, HypergeometricChiSquare,
    ::testing::Values(HyperCase{100, 30, 20},        // inversion, tiny
                      HyperCase{1000, 500, 100},     // inversion (span small)
                      HyperCase{500, 480, 150},      // tight support (kmin > 0)
                      HyperCase{20000, 8000, 4000},  // HRUA
                      HyperCase{100000, 50000, 2000},// HRUA, symmetric p
                      HyperCase{50000, 45000, 30000},// HRUA after reductions
                      HyperCase{30000, 1000, 15000}  // success small, n huge
                      ));

TEST(Hypergeometric, EdgeCases) {
    Rng rng(1);
    EXPECT_EQ(hypergeometric(rng, 100, 0, 50), 0u);
    EXPECT_EQ(hypergeometric(rng, 100, 100, 50), 50u);
    EXPECT_EQ(hypergeometric(rng, 100, 30, 0), 0u);
    EXPECT_EQ(hypergeometric(rng, 100, 30, 100), 30u); // drawing everything
    for (int i = 0; i < 1000; ++i) {
        const u64 k = hypergeometric(rng, 50, 20, 25);
        EXPECT_LE(k, 20u);
        EXPECT_GE(k + 30, 25u); // k >= n - fail
    }
}

TEST(Hypergeometric, HugePopulationMoments) {
    // 128-bit population (the undirected adjacency-matrix regime).
    const u128 total   = static_cast<u128>(1) << 80;
    const u128 success = total / 3;
    constexpr u64 n    = 1u << 20;
    Rng rng(5);
    double sum = 0.0;
    constexpr int kSamples = 400;
    for (int i = 0; i < kSamples; ++i) {
        sum += static_cast<double>(hypergeometric(rng, total, success, n));
    }
    const double mean     = sum / kSamples;
    const double exp_mean = static_cast<double>(n) / 3.0;
    // sd of the sample mean ~ sqrt(n*p*q / kSamples)
    const double tol = 6 * std::sqrt(exp_mean * (2.0 / 3.0) / kSamples);
    EXPECT_NEAR(mean, exp_mean, tol);
}

TEST(Multinomial, CountsSumToN) {
    Rng rng(3);
    const std::vector<double> probs{0.1, 0.2, 0.3, 0.4};
    for (int i = 0; i < 200; ++i) {
        const auto counts = multinomial(rng, 1000, probs);
        EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), u64{0}), 1000u);
    }
}

TEST(Multinomial, MarginalsMatch) {
    Rng rng(17);
    const std::vector<double> probs{0.15, 0.35, 0.5};
    constexpr u64 kTrials = 5000;
    constexpr u64 kN      = 200;
    std::vector<double> sums(probs.size(), 0.0);
    for (u64 t = 0; t < kTrials; ++t) {
        const auto counts = multinomial(rng, kN, probs);
        for (std::size_t i = 0; i < counts.size(); ++i) {
            sums[i] += static_cast<double>(counts[i]);
        }
    }
    for (std::size_t i = 0; i < probs.size(); ++i) {
        const double mean = sums[i] / kTrials;
        const double exp  = kN * probs[i];
        const double tol  = 6 * std::sqrt(exp * (1 - probs[i]) / kTrials);
        EXPECT_NEAR(mean, exp, tol) << "bucket " << i;
    }
}

TEST(Multinomial, EmptyAndSingleBucket) {
    Rng rng(1);
    EXPECT_TRUE(multinomial(rng, 10, {}).empty());
    const std::vector<double> one{1.0};
    const auto counts = multinomial(rng, 10, one);
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts[0], 10u);
}

TEST(ExpFill, MatchesNegLogOfSameDraws) {
    // fill_exponential must consume exactly n draws and produce -log of the
    // same uniforms a scalar replay would see — whichever ISA clone ran.
    constexpr std::size_t kN = 509; // deliberately not a multiple of 8
    Rng a(777), b(777);
    std::vector<double> exps(kN);
    fill_exponential(a, exps.data(), kN);
    double worst = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
        const double exact = -std::log(b.uniform_pos());
        worst = std::max(worst, std::abs(exps[i] - exact) /
                                    std::max(std::abs(exact), 1e-12));
    }
    EXPECT_LT(worst, 1e-10);
    // State bookkeeping: both Rngs advanced by exactly kN draws.
    EXPECT_EQ(a.bits(), b.bits());
}

TEST(ExpFill, VariatesAreExponential) {
    // Moment + KS check on a large fill: Exp(1) has mean 1, var 1.
    constexpr std::size_t kN = 1u << 16;
    Rng rng(31);
    std::vector<double> buf(kN);
    fill_exponential(rng, buf.data(), kN);
    double sum = 0.0;
    for (double x : buf) {
        ASSERT_GT(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / kN, 1.0, 6.0 / std::sqrt(static_cast<double>(kN)));
    EXPECT_LT(testing::ks_statistic(buf, [](double x) { return -std::expm1(-x); }),
              testing::ks_critical(kN));
}

TEST(ExpFill, ScalarAndAvx512CopiesAreBitwiseEqual) {
    // v2 bytes must not depend on the ISA: the AVX-512 copy, compiled with
    // contraction off, must round every element exactly as the scalar
    // copy does. Blocks of 19 cover the 8-wide body and the masked tail.
#if KAGEN_EXP_FILL_AVX512
    if (!__builtin_cpu_supports("avx512dq") || !__builtin_cpu_supports("avx512vl")) {
        GTEST_SKIP() << "CPU lacks AVX-512 DQ/VL";
    }
    constexpr std::size_t kBlocks = 1u << 17, kN = 19;
    Rng bases(2024);
    double scalar[kN], vector[kN];
    std::size_t differing = 0;
    for (std::size_t blk = 0; blk < kBlocks; ++blk) {
        const u64 base = bases.bits();
        expfill_detail::fill_scalar(base, scalar, kN);
        expfill_detail::fill_avx512(base, vector, kN);
        differing += std::memcmp(scalar, vector, sizeof scalar) != 0;
    }
    EXPECT_EQ(differing, 0u) << "of " << kBlocks << " blocks";
#else
    GTEST_SKIP() << "no AVX-512 copy on this target";
#endif
}

TEST(BatchedVariates, ExponentialStreamIsDeterministic) {
    Rng a(56), b(56);
    BatchedVariates va(a), vb(b);
    for (int i = 0; i < 700; ++i) {
        EXPECT_EQ(va.exponential(), vb.exponential()) << "draw " << i;
    }
}

// Regression for the signgam data race (DESIGN.md §12): the hypergeometric
// samplers switched from std::lgamma/std::lgammal — which write the shared
// libm `signgam` global on every call, a TSan-reported race across worker
// threads — to lgamma_threadsafe (glibc lgamma_r family). The swap is only
// sound for the frozen golden fixtures if the return values are
// bit-identical over the samplers' argument domain (positive reals), which
// this sweep pins for both precisions.
TEST(LgammaThreadsafe, BitIdenticalToLibmOnPositiveDomain) {
    for (double x : {0.5, 1.0, 1.5, 2.0, 9.0, 10.0, 256.75, 1e4, 1e8,
                     1.125e15, 9.0071992547409925e15}) {
        const double ours  = lgamma_threadsafe(x);
        const double libms = std::lgamma(x);
        EXPECT_EQ(ours, libms) << "double x=" << x;

        const auto xl     = static_cast<long double>(x);
        const auto oursl  = lgamma_threadsafe(xl);
        const auto libmsl = std::lgamma(xl);
        EXPECT_EQ(oursl, libmsl) << "long double x=" << x;
    }
    // Dense sweep across the small-argument region the inversion sampler
    // hits hardest (lgamma(k + 1) for support walks).
    for (int i = 1; i <= 4096; ++i) {
        const auto x = static_cast<long double>(i) * 0.25L;
        EXPECT_EQ(lgamma_threadsafe(x), std::lgamma(x)) << "x=" << x;
    }
}

} // namespace
} // namespace kagen
