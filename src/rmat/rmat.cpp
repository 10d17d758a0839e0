#include "rmat/rmat.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "common/math.hpp"
#include "prng/rng.hpp"
#include "prng/spooky.hpp"

namespace kagen::rmat {
namespace {

/// Levels per draw. 4^5 paths × 16 B = 16 KiB keeps the table in L1, and
/// log_n = 20 (Graph 500 scale) costs 4 draws per edge. DESIGN.md §2.
constexpr u64 kLevels = 5;
constexpr u64 kPaths  = u64{1} << (2 * kLevels);
constexpr u32 kColMask = (u32{1} << kLevels) - 1;
/// A draw's top 10 bits pick the column; the low 54 bits are the coin.
constexpr u64 kCoinBits = 64 - 2 * kLevels;
constexpr u64 kCoinMask = (u64{1} << kCoinBits) - 1;

void validate(const Params& params) {
    // `!(x >= 0)` also rejects NaN, which every ordered comparison fails.
    if (!(params.a >= 0.0) || !(params.b >= 0.0) || !(params.c >= 0.0) ||
        params.a + params.b + params.c > 1.0 + 1e-12) {
        throw std::invalid_argument(
            "rmat: quadrant probabilities a, b, c must be non-negative with "
            "a + b + c <= 1");
    }
}

/// Vose alias table over all kLevels-level quadrant paths. A path packs its
/// row bits above its column bits, top level first; its weight is the
/// product of its levels' (a, b, c, d).
class PathTable {
public:
    explicit PathTable(const Params& params) {
        validate(params);
        const double d = std::max(0.0, 1.0 - (params.a + params.b + params.c));
        const double sum = params.a + params.b + params.c + d; // 1 up to rounding
        const std::array<double, 4> quadrant{params.a / sum, params.b / sum,
                                             params.c / sum, d / sum};

        // Vose: columns lighter than the mean (small) fill up from heavier
        // ones (large). One worklist holds both: small from the front, large
        // from the back; together they never exceed kPaths entries.
        std::array<double, kPaths> scaled{}; // weight × kPaths: mean 1
        std::array<std::uint16_t, kPaths> work{};
        u64 num_small   = 0;
        u64 first_large = kPaths;
        for (u64 p = 0; p < kPaths; ++p) {
            double w = 1.0;
            for (u64 level = 0; level < kLevels; ++level) {
                w *= quadrant[(p >> (2 * (kLevels - 1 - level))) & 3];
            }
            scaled[p] = w * static_cast<double>(kPaths);
            (scaled[p] < 1.0 ? work[num_small++] : work[--first_large]) =
                static_cast<std::uint16_t>(p);
        }
        while (num_small > 0 && first_large < kPaths) {
            const u64 s = work[--num_small];
            const u64 l = work[first_large];
            entries_[s] = {coin(scaled[s]), path_bits(s), path_bits(l)};
            scaled[l]   = (scaled[l] + scaled[s]) - 1.0;
            if (scaled[l] < 1.0) {
                ++first_large;
                work[num_small++] = static_cast<std::uint16_t>(l);
            }
        }
        // Whatever is left has mass 1 up to rounding: it always keeps itself.
        for (u64 i = 0; i < kPaths; ++i) {
            if (i >= num_small && i < first_large) continue;
            entries_[work[i]] = {coin(1.0), path_bits(work[i]), path_bits(work[i])};
        }

        full_draws_ = params.log_n / kLevels;
        rest_       = params.log_n % kLevels;
    }

    /// SplitMix64 draws per edge, ⌈log_n / kLevels⌉.
    u64 draws_per_edge() const { return full_draws_ + (rest_ != 0); }

    /// The edge made of the draws after counter `state`; advances `state`
    /// past them. A partial last draw keeps the top `rest_` levels of its
    /// path: levels are i.i.d., so the prefix has the exact distribution.
    Edge edge(u64& state) const {
        u64 row = 0;
        u64 col = 0;
        for (u64 k = 0; k < full_draws_; ++k) {
            const u32 path = draw(state += Rng::kStateGamma);
            row            = (row << kLevels) | (path >> kLevels);
            col            = (col << kLevels) | (path & kColMask);
        }
        if (rest_ != 0) {
            const u32 path = draw(state += Rng::kStateGamma);
            const u64 drop = kLevels - rest_;
            row            = (row << rest_) | (path >> (kLevels + drop));
            col            = (col << rest_) | ((path & kColMask) >> drop);
        }
        return {row, col};
    }

private:
    struct Entry {
        u64 threshold; ///< keep `path` iff the draw's coin bits are below
        u32 path;
        u32 alias;
    };
    static_assert(sizeof(Entry) == 16);

    static u64 coin(double keep) {
        return static_cast<u64>(std::clamp(keep, 0.0, 1.0) * 0x1p54);
    }

    static u32 path_bits(u64 p) {
        u32 row = 0;
        u32 col = 0;
        for (u64 level = 0; level < kLevels; ++level) {
            const u64 q = (p >> (2 * (kLevels - 1 - level))) & 3;
            row         = (row << 1) | static_cast<u32>(q >> 1);
            col         = (col << 1) | static_cast<u32>(q & 1);
        }
        return (row << kLevels) | col;
    }

    u32 draw(u64 counter) const {
        const u64 x      = Rng::mix64(counter);
        const Entry& e   = entries_[x >> kCoinBits];
        return (x & kCoinMask) < e.threshold ? e.path : e.alias;
    }

    std::array<Entry, kPaths> entries_;
    u64 full_draws_;
    u64 rest_;
};

u64 stream_key(const Params& params) {
    return spooky::hash_words(params.seed, {0x2a47u});
}

} // namespace

Edge edge_at(const Params& params, u64 index) {
    const PathTable table(params);
    u64 state = stream_key(params) + index * table.draws_per_edge() * Rng::kStateGamma;
    return table.edge(state);
}

void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink) {
    const PathTable table(params);
    const u64 lo = block_begin(params.m, size, rank);
    const u64 hi = block_begin(params.m, size, rank + 1);
    // Edge i owns draws i·D+1 … i·D+D, so edge lo+1 starts where lo ends.
    u64 state = stream_key(params) + lo * table.draws_per_edge() * Rng::kStateGamma;
    for (u64 i = lo; i < hi; ++i) sink.emit(table.edge(state));
    sink.flush();
}

} // namespace kagen::rmat
