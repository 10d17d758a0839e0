/// \file rng.hpp
/// \brief Deterministic PRNG wrapper seeded by SpookyHash.
///
/// The paper's implementation note (§8.1) initializes a Mersenne Twister
/// from each hash value. Our seeding discipline creates one stream per
/// *structural unit* (recursion node, chunk, cell) — often millions of tiny
/// streams — so generator construction cost matters as much as throughput.
/// We therefore substitute SplitMix64 (O(1) construction, passes standard
/// statistical batteries) for the Twister (whose 312-word state expansion
/// would dominate cell-granular generation); the distribution-level
/// chi-square tests in tests/ validate every consumer of these streams.
/// DESIGN.md §1 records the substitution.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>

#include "common/types.hpp"
#include "prng/spooky.hpp"

namespace kagen {

class Rng {
public:
    explicit Rng(u64 seed) : state_(seed) {
        // Decorrelate trivially related seeds before the first output.
        (void)bits();
    }

    /// PRNG seeded from the hash of (seed, structural id words) — the core
    /// pseudorandomization discipline: identical ids => identical streams.
    static Rng for_ids(u64 seed, std::initializer_list<u64> ids) {
        return Rng(spooky::hash_words(seed, ids));
    }

    /// 64 uniformly random bits (SplitMix64 step).
    u64 bits() {
        state_ += kGamma;
        u64 z = state_;
        z     = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z     = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Uniform integer in [0, bound), bound >= 1. Unbiased (rejection).
    u64 range(u64 bound) {
        assert(bound >= 1);
        const u64 threshold = (0 - bound) % bound; // 2^64 mod bound
        for (;;) {
            const u64 r = bits();
            if (r >= threshold) return r % bound;
        }
    }

    /// Uniform integer in [0, bound), bound >= 1, by Lemire's multiply-shift
    /// with rejection: unbiased like range(), but the modulo runs only on
    /// the rare draws whose low product word falls below bound.
    u64 bounded(u64 bound) {
        assert(bound >= 1);
        u128 m  = static_cast<u128>(bits()) * bound;
        u64 low = static_cast<u64>(m);
        if (low < bound) {
            const u64 threshold = (0 - bound) % bound; // 2^64 mod bound
            while (low < threshold) {
                m   = static_cast<u128>(bits()) * bound;
                low = static_cast<u64>(m);
            }
        }
        return static_cast<u64>(m >> 64);
    }

    /// Uniform integer in [0, bound) for 128-bit bounds.
    u128 range128(u128 bound) {
        assert(bound >= 1);
        if (bound <= ~u64{0}) return range(static_cast<u64>(bound));
        const u128 threshold = (0 - bound) % bound;
        for (;;) {
            const u128 r = (static_cast<u128>(bits()) << 64) | bits();
            if (r >= threshold) return r % bound;
        }
    }

    /// Uniform double in [0, 1) with 53 random bits.
    double uniform() { return static_cast<double>(bits() >> 11) * 0x1.0p-53; }

    /// Uniform double in (0, 1]; safe as a log() argument.
    double uniform_pos() { return 1.0 - uniform(); }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// SplitMix64 output function: draw i of a block reserved at `base` is
    /// `mix64(base + (i+1) * kStateGamma)`. Public so external bulk kernels
    /// (variates/exp_fill.hpp) can regenerate draws from a reserved counter
    /// range without round-tripping through an intermediate buffer.
    static u64 mix64(u64 z) {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Reserves the next `n` draws and returns the pre-advance state: the
    /// caller owns draws mix64(base + (i+1)*kStateGamma) for i in [0, n).
    /// Equivalent to n calls of bits() as far as this Rng is concerned.
    u64 reserve_block(std::size_t n) {
        const u64 base = state_;
        state_         = base + static_cast<u64>(n) * kGamma;
        return base;
    }

    /// Counter increment per draw; pairs with reserve_block()/mix64().
    static constexpr u64 kStateGamma = 0x9e3779b97f4a7c15ULL;

private:
    static constexpr u64 kGamma = kStateGamma;

    u64 state_;
};

} // namespace kagen
