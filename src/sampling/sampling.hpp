/// \file sampling.hpp
/// \brief Sampling without replacement: sequential and distributed (§2.2).
///
/// Three layers:
///  1. `floyd_sample`      — Floyd's O(k) expected set sampling (unsorted).
///  2. `sorted_sample`     — sequential sorted sampling with O(k) expected
///                           work. v1 runs Vitter's Method D (Method A for
///                           dense draws); v2 halves the universe by
///                           hypergeometric draws down to cache-sized
///                           leaves drawn by exponential spacings.
///  3. `ChunkedSampler`    — the divide-and-conquer distributed sampler of
///                           Sanders et al. [18]: the universe is split into
///                           consecutive chunks, the number of samples per
///                           chunk subtree follows a hypergeometric
///                           distribution, and per-subtree hash seeds make
///                           every PE that walks the same subtree draw the
///                           same variates — no communication required.
///
/// Positions reach the caller in sorted blocks, not one call per sample:
/// the `*_blocks` entry points hand a consumer `(const u64* pos, count,
/// offset)` with 1 <= count <= `detail::kSpacingsLeafSamples`, standing for
/// the positions offset + pos[0] < ... < offset + pos[count - 1], and
/// consecutive blocks continue the increasing order. A v2 spacings leaf
/// passes its own stack array; every other engine fills a stack block. The
/// consumer is a template parameter, so one out-of-line call per block is
/// the whole dispatch cost, and the consumer's per-position loop (the ER row
/// decoder, er/er.hpp) runs over a plain array in its own frame. The
/// per-position forms (`sorted_sample`, `bernoulli_sample`,
/// `sample_chunk`) are thin loops over the same blocks.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "prng/rng.hpp"
#include "variates/batch.hpp"
#include "variates/exp_fill.hpp"
#include "variates/variates.hpp"

namespace kagen {

/// Selects the sequential sampling engine inside a chunk.
///
/// `v1` is the reference engine: scalar Vitter Method D, libm
/// transcendentals, one variate per draw. Its output is pinned bit-exactly
/// by the golden-file tests and stays the default.
///
/// `v2` is the throughput engine: hypergeometric halving down to leaves of
/// at most 2048 samples, each drawn from one block of exponential spacings
/// (`detail::spacings_sample`), and a geometric-skip path for
/// Bernoulli-regime draws (`bernoulli_sample`). Identical *distribution*,
/// different byte stream; its bytes are pinned by golden fixtures and
/// are the same on every ISA. DESIGN.md §10 describes the split.
enum class SamplerVersion { v1, v2 };

/// Floyd's algorithm: k distinct integers from [0, universe), unsorted.
std::vector<u64> floyd_sample(Rng& rng, u64 universe, u64 k);

namespace detail {

/// Largest leaf of the v2 recursion, and the largest position block handed
/// to a consumer. A leaf holds k+1 spacings (double) and k positions
/// (u64) on the stack: 32 KiB at this bound, so the leaf's passes stay in
/// L1/L2.
inline constexpr u64 kSpacingsLeafSamples = 2048;

/// Largest leaf universe. Up to 2^50 a double position S_i·u/S_{k+1}
/// keeps at least 2 bits below the integer point, so flooring it loses no
/// low bits of the position.
inline constexpr u64 kSpacingsLeafUniverse = u64{1} << 50;

/// Collects increasing positions (relative to `offset`) into a stack block
/// and hands every full block to `consume`. `flush` delivers the rest.
template <typename Consume>
class BlockWriter {
public:
    BlockWriter(u64 offset, Consume& consume) : offset_(offset), consume_(consume) {}

    void push(u64 pos) {
        block_[fill_++] = pos;
        if (fill_ == kSpacingsLeafSamples) flush();
    }

    void flush() {
        if (fill_ != 0) consume_(static_cast<const u64*>(block_), fill_, offset_);
        fill_ = 0;
    }

private:
    alignas(64) u64 block_[kSpacingsLeafSamples];
    std::size_t fill_ = 0;
    u64 offset_;
    Consume& consume_;
};

/// Adapts a per-position callback `emit(u64)` to the block interface.
template <typename Emit>
auto each_position(Emit& emit) {
    return [&emit](const u64* pos, std::size_t count, u64 offset) {
        for (std::size_t i = 0; i < count; ++i) emit(offset + pos[i]);
    };
}

/// Vitter's Method A: sequential scan with direct skip search. O(universe)
/// but with tiny constants; used when the sampling fraction is high.
/// Pushes base + (position in [0, universe)).
template <typename Consume>
void method_a(Rng& rng, u64 universe, u64 k, u64 base, BlockWriter<Consume>& out) {
    u64 cur      = 0;
    double nreal = static_cast<double>(universe);
    while (k >= 2) {
        const double v = rng.uniform_pos();
        u64 skip       = 0;
        double top     = nreal - static_cast<double>(k);
        double quot    = top / nreal;
        while (quot > v) {
            ++skip;
            top -= 1.0;
            nreal -= 1.0;
            quot *= top / nreal;
        }
        out.push(base + cur + skip);
        cur += skip + 1;
        nreal -= 1.0;
        --k;
    }
    if (k == 1) {
        const u64 skip = std::min<u64>(static_cast<u64>(nreal * rng.uniform()),
                                       static_cast<u64>(nreal) - 1);
        out.push(base + cur + skip);
    }
}

/// Vitter's Method D with the fallback to Method A for dense draws: v1's
/// engine, whose stream the golden fixtures pin.
template <typename Consume>
void method_d(Rng& rng, u64 universe, u64 k, BlockWriter<Consume>& out) {
    constexpr double kAlphaInv = 13.0; // Vitter's recommended switch point
    u64 cur          = 0;
    u64 remaining_n  = universe;
    u64 remaining_k  = k;
    double nreal     = static_cast<double>(remaining_n);
    double kreal     = static_cast<double>(remaining_k);
    double kinv      = 1.0 / kreal;
    double vprime    = std::exp(std::log(rng.uniform_pos()) * kinv);
    double threshold = kAlphaInv * kreal;

    while (remaining_k > 1 && threshold < nreal) {
        const double kmin1inv = 1.0 / (kreal - 1.0);
        const double qu1real  = nreal - kreal + 1.0;
        const u64 qu1         = remaining_n - remaining_k + 1;
        u64 skip;
        double x, negSreal;
        for (;;) {
            // Step D2: propose a skip from the continuous approximation.
            for (;;) {
                x    = nreal * (1.0 - vprime);
                skip = static_cast<u64>(x);
                if (skip < qu1) break;
                vprime = std::exp(std::log(rng.uniform_pos()) * kinv);
            }
            const double u = rng.uniform_pos();
            negSreal       = -static_cast<double>(skip);
            // Step D3: quick acceptance.
            const double y1 = std::exp(std::log(u * nreal / qu1real) * kmin1inv);
            vprime          = y1 * (-x / nreal + 1.0) * (qu1real / (negSreal + qu1real));
            if (vprime <= 1.0) break;
            // Step D4: slow acceptance via the exact ratio.
            double y2  = 1.0;
            double top = nreal - 1.0;
            double bottom;
            double limit;
            if (kreal - 1.0 > -negSreal) {
                bottom = nreal - kreal;
                limit  = nreal - static_cast<double>(skip);
            } else {
                bottom = nreal + negSreal - 1.0;
                limit  = qu1real;
            }
            for (double t = nreal - 1.0; t >= limit; t -= 1.0) {
                y2 = y2 * top / bottom;
                top -= 1.0;
                bottom -= 1.0;
            }
            if (nreal / (nreal - x) >= y1 * std::exp(std::log(y2) * kmin1inv)) {
                vprime = std::exp(std::log(rng.uniform_pos()) * kmin1inv);
                break;
            }
            vprime = std::exp(std::log(rng.uniform_pos()) * kinv);
        }
        out.push(cur + skip);
        cur += skip + 1;
        remaining_n -= skip + 1;
        nreal = negSreal + (nreal - 1.0);
        --remaining_k;
        kreal -= 1.0;
        kinv = kmin1inv;
        threshold -= kAlphaInv;
    }

    if (remaining_k > 1) {
        method_a(rng, remaining_n, remaining_k, cur, out);
    } else {
        const u64 skip = std::min<u64>(static_cast<u64>(nreal * vprime), remaining_n - 1);
        out.push(cur + skip);
    }
}

/// v1 and the full universe into a stack block. Out of line, so that v2's
/// recursion does not run below this frame's block.
template <typename Consume>
[[gnu::noinline]] void block_sample(Rng& rng, u64 universe, u64 k, Consume& consume) {
    BlockWriter<Consume> out(0, consume);
    if (k == universe) {
        for (u64 i = 0; i < universe; ++i) out.push(i);
    } else {
        method_d(rng, universe, k, out);
    }
    out.flush();
}

/// v2 leaf: k distinct sorted positions of [0, universe) from k+1
/// exponential spacings. With E_1..E_{k+1} iid Exp(1) and prefix sums S_i,
/// (S_1, ..., S_k) / S_{k+1} are the order statistics of k iid uniforms on
/// [0, 1), so floor(S_i · u / S_{k+1}) are k iid uniform positions, sorted.
/// Dropping adjacent duplicates leaves the distinct values of those k
/// draws; further iid draws top the set up until it holds k values. The
/// result is the set of the first k distinct values of an iid uniform
/// sequence, which is a uniform k-subset by symmetry. Top-ups are rare:
/// about k²/(2u) per leaf, ~80 at k = 2048 and the dense switch u = 13k.
/// They are kept sorted in the free tail pos[d, k) and merged in place.
/// Either way the leaf hands its own `pos` to `consume` as one block.
///
/// Only adds, one divide and multiplies touch the spacings, none of them a
/// multiply feeding an add, so no compiler can contract them into an FMA:
/// with the contraction-free fill, the positions are the same on every ISA.
template <typename Consume>
[[gnu::noinline]] void spacings_leaf(Rng& rng, u64 universe, u64 k, u64 offset,
                                     Consume& consume) {
    assert(k >= 1 && k <= kSpacingsLeafSamples && universe <= kSpacingsLeafUniverse);
    alignas(64) double sums[kSpacingsLeafSamples + 1];
    alignas(64) u64 pos[kSpacingsLeafSamples];
    fill_exponential(rng, sums, k + 1);
    double acc = 0.0;
    for (u64 i = 0; i <= k; ++i) {
        acc += sums[i];
        sums[i] = acc;
    }
    const double scale = static_cast<double>(universe) / acc;
    const u64 last     = universe - 1;
    // Positions with adjacent duplicates dropped; `prev` starts outside the
    // universe, so the first position is always kept.
    u64 d    = 0;
    u64 prev = ~u64{0};
    for (u64 i = 0; i < k; ++i) {
        const u64 p = std::min(last, static_cast<u64>(static_cast<i64>(sums[i] * scale)));
        pos[d]      = p;
        d += p != prev;
        prev = p;
    }
    if (d == k) {
        consume(static_cast<const u64*>(pos), k, offset);
        return;
    }
    for (u64 end = d; end < k;) {
        const u64 v = rng.bounded(universe);
        if (std::binary_search(pos, pos + d, v)) continue;
        u64* at = std::lower_bound(pos + d, pos + end, v);
        if (at != pos + end && *at == v) continue;
        std::move_backward(at, pos + end, pos + end + 1);
        *at = v;
        ++end;
    }
    // Merge in place from the back. The spacings are spent, so the top-ups
    // move there, exact as doubles (universe <= 2^50), and pos[0, d) slides
    // up into the room they leave.
    const u64 tops = k - d;
    for (u64 i = 0; i < tops; ++i) sums[i] = static_cast<double>(pos[d + i]);
    for (u64 a = d, b = tops, out = k; b > 0;) {
        const u64 top = static_cast<u64>(sums[b - 1]);
        if (a > 0 && pos[a - 1] > top) {
            pos[--out] = pos[--a];
        } else {
            pos[--out] = top;
            --b;
        }
    }
    consume(static_cast<const u64*>(pos), k, offset);
}

/// v2 dense leaf (u < 13k): Method A into a stack block. Out of line so the
/// block sits in this frame only, not in every frame of the recursion.
template <typename Consume>
[[gnu::noinline]] void dense_leaf(Rng& rng, u64 universe, u64 k, u64 offset,
                                  Consume& consume) {
    BlockWriter<Consume> out(offset, consume);
    method_a(rng, universe, k, 0, out);
    out.flush();
}

/// v2 engine: the divide-and-conquer sampler of Sanders et al. [18] run
/// below the chunk. [0, universe) is halved by hypergeometric draws until a
/// part holds at most kSpacingsLeafSamples samples and kSpacingsLeafUniverse
/// positions; sparse leaves take `spacings_leaf`, dense ones (u < 13k, the
/// same switch point as v1) `dense_leaf`. All draws come from `rng` in
/// depth-first order, so the output is a pure function of the Rng state.
/// Each leaf is one block.
template <typename Consume>
void spacings_sample(Rng& rng, u64 universe, u64 k, u64 offset, Consume& consume) {
    if (k == 0) return;
    if (k <= kSpacingsLeafSamples && universe <= kSpacingsLeafUniverse) {
        if (universe < 13 * k) {
            dense_leaf(rng, universe, k, offset, consume);
        } else {
            spacings_leaf(rng, universe, k, offset, consume);
        }
        return;
    }
    const u64 left = universe / 2;
    const u64 h    = hypergeometric(rng, universe, left, k);
    assert(h <= left && k - h <= universe - left);
    spacings_sample(rng, left, h, offset, consume);
    spacings_sample(rng, universe - left, k - h, offset + left, consume);
}

} // namespace detail

/// Sequential sampling of `k` distinct integers from [0, universe),
/// delivered in increasing order as position blocks (see the file comment).
/// Expected time O(k) regardless of universe. `version` selects the engine:
/// v1 (the default, bit-pinned) runs Vitter's Method D (skip distances via
/// acceptance-rejection) and falls back to Method A when the sampling
/// fraction is high; v2 runs `detail::spacings_sample`.
template <typename Consume>
void sorted_sample_blocks(Rng& rng, u64 universe, u64 k, Consume&& consume,
                          SamplerVersion version = SamplerVersion::v1) {
    assert(k <= universe);
    if (k == 0) return;
    if (version == SamplerVersion::v2 && k != universe) {
        detail::spacings_sample(rng, universe, k, 0, consume);
    } else {
        detail::block_sample(rng, universe, k, consume);
    }
}

/// `sorted_sample_blocks` with one `emit(position)` call per sample.
template <typename Emit>
void sorted_sample(Rng& rng, u64 universe, u64 k, Emit&& emit,
                   SamplerVersion version = SamplerVersion::v1) {
    sorted_sample_blocks(rng, universe, k, detail::each_position(emit), version);
}

/// Geometric-skip Bernoulli sampling (sampler v2's dense/Gnp fast path):
/// delivers each position of [0, universe) independently with probability
/// `p`, in increasing order as position blocks, in O(p · universe) expected
/// time. Skip lengths are floor(E/λ) with E ~ Exp(1) and λ = -log1p(-p), so
/// P(skip = s) = (1-p)^s · p — exactly the gap law of iid Bernoulli(p)
/// trials. Replaces v1's binomial-count + sorted_sample pair for Gnp: same
/// product distribution over subsets, one exponential per emitted sample
/// instead of a log/exp pair per skip.
template <typename Consume>
void bernoulli_sample_blocks(Rng& rng, u64 universe, double p, Consume&& consume) {
    assert(p >= 0.0 && p <= 1.0);
    if (universe == 0 || p <= 0.0) return;
    detail::BlockWriter<std::remove_reference_t<Consume>> out(0, consume);
    if (p >= 1.0) {
        for (u64 i = 0; i < universe; ++i) out.push(i);
        out.flush();
        return;
    }
    BatchedVariates var(rng);
    const double lambda_inv = -1.0 / std::log1p(-p);
    u64 cur                 = 0;
    for (;;) {
        const double skip = var.exponential() * lambda_inv;
        // Compare in double first: skip can exceed u64 range for tiny p.
        if (skip >= static_cast<double>(universe - cur)) break;
        cur += static_cast<u64>(skip);
        if (cur >= universe) break; // double→u64 rounding guard
        out.push(cur);
        ++cur;
    }
    out.flush();
}

/// `bernoulli_sample_blocks` with one `emit(position)` call per sample.
template <typename Emit>
void bernoulli_sample(Rng& rng, u64 universe, double p, Emit&& emit) {
    bernoulli_sample_blocks(rng, universe, p, detail::each_position(emit));
}

/// Describes a universe partitioned into `num_chunks` consecutive chunks.
/// `chunk_size(i)` must be O(1); prefix sizes are derived by the sampler's
/// recursion, never by scanning. (These run once per chunk, not per sample,
/// so type erasure is harmless here.)
struct ChunkUniverse {
    u64 num_chunks = 0;
    std::function<u128(u64)> chunk_size;              // size of chunk i
    std::function<u128(u64, u64)> range_size;         // total size of chunks [lo, hi)
};

/// Convenience constructor for a universe of `n` rows split into nearly
/// equal consecutive blocks of rows, each row having `row_width` slots.
ChunkUniverse make_row_universe(u64 n, u64 num_chunks, u128 row_width);

/// Divide-and-conquer distributed sampler.
class ChunkedSampler {
public:
    /// \param seed     base seed; all subtree seeds derive from it.
    /// \param universe chunk layout (sizes must be stable).
    /// \param samples  total number of samples over the whole universe.
    ChunkedSampler(u64 seed, ChunkUniverse universe, u64 samples);

    /// Number of samples that land in chunk `chunk` (deterministic in
    /// `seed`; identical on every PE). O(log num_chunks) variates.
    u64 samples_in_chunk(u64 chunk) const;

    /// Delivers the samples of chunk `chunk` as offsets *within* the chunk,
    /// in increasing position blocks. Deterministic in `seed` (and, for v2, in
    /// `version` — the hypergeometric count layer above is engine-agnostic,
    /// so v1 and v2 draw the *same number* of samples per chunk and differ
    /// only in the within-chunk positions).
    template <typename Consume>
    void sample_chunk_blocks(u64 chunk, Consume&& consume,
                             SamplerVersion version = SamplerVersion::v1) const {
        const u64 k = descend(chunk);
        if (k == 0) return;
        const u128 size = universe_.chunk_size(chunk);
        assert(size <= static_cast<u128>(~u64{0}) && "per-chunk universe must fit 64 bits");
        Rng rng = Rng::for_ids(seed_, {0x1eafULL, chunk});
        sorted_sample_blocks(rng, static_cast<u64>(size), k, consume, version);
    }

    /// `sample_chunk_blocks` with one `emit(offset)` call per sample.
    template <typename Emit>
    void sample_chunk(u64 chunk, Emit&& emit,
                      SamplerVersion version = SamplerVersion::v1) const {
        sample_chunk_blocks(chunk, detail::each_position(emit), version);
    }

private:
    /// Recursion over chunk index ranges; returns the sample count of the
    /// subtree containing `chunk` at its leaf.
    u64 descend(u64 chunk) const;

    u64 seed_;
    ChunkUniverse universe_;
    u64 samples_;
};

} // namespace kagen
