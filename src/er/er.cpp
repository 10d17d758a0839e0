#include "er/er.hpp"

#include <cassert>

#include "common/math.hpp"
#include "sampling/sampling.hpp"
#include "variates/variates.hpp"

namespace kagen::er {
namespace {

// Structural tags keeping the hash-seeded random streams of distinct
// recursion node types disjoint.
constexpr u64 kTagTriangleNode = 0x7217e5;
constexpr u64 kTagRectNode     = 0x2ec7a0;
constexpr u64 kTagChunk        = 0xc4a9c;
constexpr u64 kTagGnp          = 0x9a9b;

/// Vertex range of chunk row/column `i` (consecutive blocks of ~n/P).
struct Blocks {
    u64 n;
    u64 p;
    u64 begin(u64 i) const { return block_begin(n, p, i); }
    u64 size(u64 i) const { return block_size(n, p, i); }
    u64 span(u64 lo, u64 hi) const { return begin(hi) - begin(lo); }
};

/// --- Undirected chunk materialization ------------------------------------

/// Diagonal chunk (i, i): a triangular universe over the block's vertices.
void emit_diagonal_chunk(const Blocks& blocks, u64 i, u64 count, u64 seed, EdgeSink& out,
                         SamplerVersion version) {
    const u64 base  = blocks.begin(i);
    const u64 sz    = blocks.size(i);
    const u128 uni  = triangle(sz);
    if (count == 0) return;
    assert(static_cast<u128>(count) <= uni);
    Rng rng = Rng::for_ids(seed, {kTagChunk, i, i});
    sorted_sample(rng, static_cast<u64>(uni), count, [&](u64 s) {
        const u64 r = triangle_row(s);
        const u64 c = s - static_cast<u64>(triangle(r));
        out.emit(base + r, base + c);
    }, version);
}

/// Off-diagonal chunk (i, j), i > j: a |V_i| x |V_j| rectangular universe.
void emit_rect_chunk(const Blocks& blocks, u64 i, u64 j, u64 count, u64 seed, EdgeSink& out,
                     SamplerVersion version) {
    if (count == 0) return;
    const u64 rbase = blocks.begin(i);
    const u64 cbase = blocks.begin(j);
    const u64 cols  = blocks.size(j);
    const u128 uni  = static_cast<u128>(blocks.size(i)) * cols;
    assert(static_cast<u128>(count) <= uni);
    Rng rng = Rng::for_ids(seed, {kTagChunk, i, j});
    sorted_sample_blocks(rng, static_cast<u64>(uni), count,
                         RowDecoder(cols, rbase, cbase, false, out), version);
}

void emit_chunk(const Blocks& blocks, u64 i, u64 j, u64 count, u64 seed, EdgeSink& out,
                SamplerVersion version) {
    if (i == j) {
        emit_diagonal_chunk(blocks, i, count, seed, out, version);
    } else {
        emit_rect_chunk(blocks, i, j, count, seed, out, version);
    }
}

/// --- Undirected G(n,m) divide and conquer --------------------------------

struct UTri {
    Blocks blocks;
    u64 seed;
    u64 pe;        // the chunk row/column this PE owns
    EdgeSink* out;
    SamplerVersion version;
};

/// Rectangle of chunks rows [rlo, rhi) x cols [clo, chi); the PE needs either
/// one chunk row (pe in rows) or one chunk column (pe in cols) of it.
void descend_rect(const UTri& ctx, u64 rlo, u64 rhi, u64 clo, u64 chi, u64 k) {
    if (k == 0) return;
    const bool in_rows = ctx.pe >= rlo && ctx.pe < rhi;
    const bool in_cols = ctx.pe >= clo && ctx.pe < chi;
    if (!in_rows && !in_cols) return;
    if (rhi - rlo == 1 && chi - clo == 1) {
        emit_chunk(ctx.blocks, rlo, clo, k, ctx.seed, *ctx.out, ctx.version);
        return;
    }
    const u128 total = static_cast<u128>(ctx.blocks.span(rlo, rhi)) * ctx.blocks.span(clo, chi);
    Rng rng = Rng::for_ids(ctx.seed, {kTagRectNode, rlo, rhi, clo, chi});
    if (rhi - rlo >= chi - clo) {
        const u64 rmid  = rlo + (rhi - rlo) / 2;
        const u128 top  = static_cast<u128>(ctx.blocks.span(rlo, rmid)) * ctx.blocks.span(clo, chi);
        const u64 k_top = hypergeometric(rng, total, top, k);
        descend_rect(ctx, rlo, rmid, clo, chi, k_top);
        descend_rect(ctx, rmid, rhi, clo, chi, k - k_top);
    } else {
        const u64 cmid   = clo + (chi - clo) / 2;
        const u128 left  = static_cast<u128>(ctx.blocks.span(rlo, rhi)) * ctx.blocks.span(clo, cmid);
        const u64 k_left = hypergeometric(rng, total, left, k);
        descend_rect(ctx, rlo, rhi, clo, cmid, k_left);
        descend_rect(ctx, rlo, rhi, cmid, chi, k - k_left);
    }
}

/// Triangular region of chunk rows/cols [lo, hi). Splits into the top
/// triangle, the rectangle, and the bottom triangle (paper Fig. 1, right).
void descend_triangle(const UTri& ctx, u64 lo, u64 hi, u64 k) {
    if (k == 0) return;
    if (hi - lo == 1) {
        emit_chunk(ctx.blocks, lo, lo, k, ctx.seed, *ctx.out, ctx.version);
        return;
    }
    const u64 mid     = lo + (hi - lo) / 2;
    const u128 total  = triangle(ctx.blocks.span(lo, hi));
    const u128 t_top  = triangle(ctx.blocks.span(lo, mid));
    const u128 rect   = static_cast<u128>(ctx.blocks.span(mid, hi)) * ctx.blocks.span(lo, mid);
    Rng rng           = Rng::for_ids(ctx.seed, {kTagTriangleNode, lo, hi});
    const u64 k_top   = hypergeometric(rng, total, t_top, k);
    const u64 k_rect  = hypergeometric(rng, total - t_top, rect, k - k_top);
    const u64 k_bot   = k - k_top - k_rect;
    if (ctx.pe < mid) descend_triangle(ctx, lo, mid, k_top);
    descend_rect(ctx, mid, hi, lo, mid, k_rect);
    if (ctx.pe >= mid) descend_triangle(ctx, mid, hi, k_bot);
}

} // namespace

RowDecoder::RowDecoder(u64 width, u64 row_base, u64 col_base, bool skip_diagonal,
                       EdgeSink& sink)
    : width_(width), reciprocal_(width != 0 ? ~u64{0} / width : 0), row_base_(row_base),
      col_base_(col_base), no_skip_(skip_diagonal ? 0 : ~u64{0}), sink_(&sink) {}

void RowDecoder::operator()(const u64* pos, std::size_t count, u64 offset) const {
    // Copies in locals: the loop stores through an Edge*, which may alias
    // any member as far as the compiler knows.
    const u64 width = width_, reciprocal = reciprocal_, row_base = row_base_,
              col_base = col_base_, no_skip = no_skip_;
    sink_->emit_run(count, [&](Edge* out, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            // x < 2^64 and reciprocal >= 2^64 / width - 1, so the estimate
            // q is x / width or one less, and q * width cannot overflow.
            const u64 x  = offset + pos[i];
            u64 q        = static_cast<u64>((static_cast<u128>(x) * reciprocal) >> 64);
            u64 c        = x - q * width;
            const u64 up = c >= width;
            q += up;
            c -= up * width;
            const u64 row = row_base + q;
            // Branchless diagonal skip (SNIPPETS.md idiom): c >= row is an
            // unpredictable comparison in the dense regime. Without the
            // skip, row | ~0 is all ones and c never reaches it.
            out[i] = Edge{row, col_base + c + (c >= (row | no_skip))};
        }
        pos += n;
    });
}

void gnm_directed(u64 n, u64 m, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                  SamplerVersion version) {
    assert(size >= 1 && rank < size); // n, m, p: kagen::validate
    assert(static_cast<u128>(m) <= directed_universe(n));
    ChunkedSampler sampler(seed, make_row_universe(n, size, n - 1), m);
    sampler.sample_chunk_blocks(
        rank, RowDecoder(n - 1, block_begin(n, size, rank), 0, true, sink), version);
    sink.flush();
}

void gnm_undirected(u64 n, u64 m, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                    SamplerVersion version) {
    assert(size >= 1 && rank < size); // n, m, p: kagen::validate
    assert(static_cast<u128>(m) <= undirected_universe(n));
    UTri ctx{Blocks{n, size}, seed, rank, &sink, version};
    descend_triangle(ctx, 0, size, m);
    sink.flush();
}

void gnp_directed(u64 n, double p, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                  SamplerVersion version) {
    assert(size >= 1 && rank < size); // n, m, p: kagen::validate
    const u128 universe = static_cast<u128>(block_size(n, size, rank)) * (n - 1);
    assert(universe <= static_cast<u128>(~u64{0}));
    const RowDecoder rows(n - 1, block_begin(n, size, rank), 0, true, sink);
    if (version == SamplerVersion::v2) {
        // Geometric-skip fast path: the binomial count + sorted positions of
        // v1 and a single Bernoulli(p) sweep over the universe induce the
        // same product distribution, so v2 fuses them into one stream — no
        // count variate, one exponential per edge.
        Rng rng = Rng::for_ids(seed, {kTagChunk, rank});
        bernoulli_sample_blocks(rng, static_cast<u64>(universe), p, rows);
        sink.flush();
        return;
    }
    Rng count_rng   = Rng::for_ids(seed, {kTagGnp, rank});
    const u64 count = binomial(count_rng, static_cast<u64>(universe), p);
    Rng rng = Rng::for_ids(seed, {kTagChunk, rank});
    sorted_sample_blocks(rng, static_cast<u64>(universe), count, rows);
    sink.flush();
}

void gnp_undirected(u64 n, double p, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                    SamplerVersion version) {
    assert(size >= 1 && rank < size); // n, m, p: kagen::validate
    const Blocks blocks{n, size};
    if (version == SamplerVersion::v2) {
        // Per-chunk geometric-skip Bernoulli streams. The chunk rng is
        // seeded exactly as v1's position stream ({kTagChunk, i, j}), so
        // both owners of chunk (i, j) still draw identical edges — the
        // exact-once ownership filter is untouched.
        auto emit_bernoulli = [&](u64 i, u64 j) {
            Rng rng = Rng::for_ids(seed, {kTagChunk, i, j});
            if (i == j) {
                const u64 base = blocks.begin(i);
                bernoulli_sample(rng, static_cast<u64>(triangle(blocks.size(i))), p,
                                 [&](u64 s) {
                                     const u64 r = triangle_row(s);
                                     const u64 c = s - static_cast<u64>(triangle(r));
                                     sink.emit(base + r, base + c);
                                 });
            } else {
                const u64 cols = blocks.size(j);
                const u128 uni = static_cast<u128>(blocks.size(i)) * cols;
                bernoulli_sample_blocks(
                    rng, static_cast<u64>(uni), p,
                    RowDecoder(cols, blocks.begin(i), blocks.begin(j), false, sink));
            }
        };
        for (u64 j = 0; j <= rank; ++j) emit_bernoulli(rank, j);
        for (u64 i = rank + 1; i < size; ++i) emit_bernoulli(i, rank);
        sink.flush();
        return;
    }
    auto chunk_count = [&](u64 i, u64 j) {
        const u128 uni = (i == j) ? triangle(blocks.size(i))
                                  : static_cast<u128>(blocks.size(i)) * blocks.size(j);
        Rng rng = Rng::for_ids(seed, {kTagGnp, i, j});
        return binomial(rng, static_cast<u64>(uni), p);
    };
    // Row chunks (rank, j <= rank) — edges whose higher endpoint is local.
    for (u64 j = 0; j <= rank; ++j) {
        emit_chunk(blocks, rank, j, chunk_count(rank, j), seed, sink,
                   SamplerVersion::v1);
    }
    // Column chunks (i > rank, rank) — edges whose lower endpoint is local.
    for (u64 i = rank + 1; i < size; ++i) {
        emit_chunk(blocks, i, rank, chunk_count(i, rank), seed, sink,
                   SamplerVersion::v1);
    }
    sink.flush();
}

} // namespace kagen::er
