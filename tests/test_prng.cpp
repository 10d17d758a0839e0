// Tests for the SpookyHash-style hash and the Rng wrapper: determinism,
// avalanche behaviour, uniformity of derived streams.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

#include "prng/rng.hpp"
#include "prng/spooky.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

TEST(Spooky, DeterministicAcrossCalls) {
    const u64 words[] = {1, 2, 3};
    const auto a = spooky::hash128(words, sizeof(words), 42, 43);
    const auto b = spooky::hash128(words, sizeof(words), 42, 43);
    EXPECT_EQ(a.h1, b.h1);
    EXPECT_EQ(a.h2, b.h2);
}

TEST(Spooky, SeedChangesHash) {
    const u64 words[] = {1, 2, 3};
    EXPECT_NE(spooky::hash64(words, sizeof(words), 1),
              spooky::hash64(words, sizeof(words), 2));
}

TEST(Spooky, LengthIsSignificant) {
    // A prefix must not hash to the same value as the full message.
    const u64 words[] = {7, 7};
    EXPECT_NE(spooky::hash64(words, 8, 0), spooky::hash64(words, 16, 0));
}

TEST(Spooky, AllShortLengthsDistinct) {
    // Hash every prefix length 0..64 of a fixed buffer; all must differ.
    std::array<u8, 64> buf{};
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i * 37 + 1);
    std::set<u64> seen;
    for (std::size_t len = 0; len <= buf.size(); ++len) {
        seen.insert(spooky::hash64(buf.data(), len, 9));
    }
    EXPECT_EQ(seen.size(), buf.size() + 1);
}

TEST(Spooky, AvalancheSingleBitFlip) {
    // Flipping any single input bit should flip ~32 of 64 output bits.
    u64 word        = 0x0123456789abcdefULL;
    const u64 base  = spooky::hash64(&word, sizeof(word), 0);
    double mean_pop = 0.0;
    for (int bit = 0; bit < 64; ++bit) {
        u64 flipped  = word ^ (u64{1} << bit);
        const u64 h  = spooky::hash64(&flipped, sizeof(flipped), 0);
        mean_pop += static_cast<double>(__builtin_popcountll(h ^ base));
    }
    mean_pop /= 64.0;
    EXPECT_GT(mean_pop, 26.0);
    EXPECT_LT(mean_pop, 38.0);
}

TEST(Spooky, HashWordsMatchesRawHash) {
    const u64 words[] = {11, 22};
    EXPECT_EQ(spooky::hash_words(5, {11, 22}),
              spooky::hash64(words, sizeof(words), 5));
}

TEST(Rng, ForIdsIsDeterministicAndIdSensitive) {
    Rng a = Rng::for_ids(1, {2, 3});
    Rng b = Rng::for_ids(1, {2, 3});
    Rng c = Rng::for_ids(1, {2, 4});
    EXPECT_EQ(a.bits(), b.bits());
    EXPECT_NE(a.bits(), c.bits()); // overwhelmingly likely for a real hash
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(123);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformPosNeverZero) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.uniform_pos(), 0.0);
}

TEST(Rng, RangeIsUnbiased) {
    // Chi-square over a bound that does not divide 2^64.
    Rng rng(99);
    constexpr u64 kBound   = 13;
    constexpr u64 kSamples = 130000;
    std::vector<double> observed(kBound, 0.0);
    for (u64 i = 0; i < kSamples; ++i) observed[rng.range(kBound)] += 1.0;
    const std::vector<double> expected(kBound, static_cast<double>(kSamples) / kBound);
    const double stat = testing::chi_square(observed, expected);
    EXPECT_LT(stat, testing::chi_square_critical(kBound - 1));
}

TEST(Rng, Range128HandlesLargeBounds) {
    Rng rng(5);
    const u128 bound = (static_cast<u128>(1) << 100) + 12345;
    for (int i = 0; i < 100; ++i) {
        EXPECT_LT(rng.range128(bound), bound);
    }
}

TEST(Rng, RangeBoundOneAlwaysZero) {
    Rng rng(5);
    EXPECT_EQ(rng.range(1), 0u);
}

TEST(Rng, BoundedIsUnbiasedAndInRange) {
    // Lemire's multiply-shift: the same chi-square gate as range(), plus
    // the edges of the bound domain.
    Rng rng(98);
    constexpr u64 kBound   = 13;
    constexpr u64 kSamples = 130000;
    std::vector<double> observed(kBound, 0.0);
    for (u64 i = 0; i < kSamples; ++i) observed[rng.bounded(kBound)] += 1.0;
    const std::vector<double> expected(kBound, static_cast<double>(kSamples) / kBound);
    EXPECT_LT(testing::chi_square(observed, expected),
              testing::chi_square_critical(kBound - 1));
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
    const u64 huge = (u64{3} << 62) + 7; // rejection region is 2^62 - 7 wide
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.bounded(huge), huge);
}

} // namespace
} // namespace kagen
