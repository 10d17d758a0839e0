/// \file er.hpp
/// \brief Communication-free Erdős–Rényi generators (paper §4).
///
/// G(n,m):
///  * directed   — the adjacency matrix (minus the diagonal) is cut into P
///    row-block chunks; the number of samples per chunk follows the
///    divide-and-conquer hypergeometric recursion of Sanders et al. [18]
///    (`sampling::ChunkedSampler`), and samples are converted to edges by
///    offset arithmetic (§4.1).
///  * undirected — the lower triangular adjacency matrix is cut into a
///    triangular P×P chunk matrix; a recursion over {top triangle,
///    rectangle, bottom triangle} with per-subtree hash-seeded
///    hypergeometric variates assigns sample counts to chunks. PE i owns
///    chunk row i and chunk column i, so every edge {u, v} is generated by
///    both the PE owning u and the PE owning v, from the *same* per-chunk
///    random stream (§4.2). The recomputation overhead is bounded by 2m.
///
/// G(n,p): identical chunk geometry, but per-chunk sample counts are
/// binomial variates seeded by the chunk id alone — no recursion (§4.3).
///
/// All functions are pure in (params, seed, rank, size): calling them twice,
/// or on different "machines", yields bit-identical output.
#pragma once

#include <cstddef>

#include "common/math.hpp"
#include "common/types.hpp"
#include "graph/edge_list.hpp"
#include "sampling/sampling.hpp"
#include "sink/edge_sink.hpp"
#include "sink/ownership.hpp"

namespace kagen::er {

/// Number of ordered vertex pairs (u, v), u != v.
inline u128 directed_universe(u64 n) { return static_cast<u128>(n) * (n - 1); }

/// Number of unordered vertex pairs {u, v}, u != v.
inline u128 undirected_universe(u64 n) {
    return static_cast<u128>(n) * (n - 1) / 2;
}

/// All generators stream into an `EdgeSink` (callers go through
/// kagen::generate, which validates the parameters first) and take a
/// trailing `SamplerVersion` (sampling/sampling.hpp). v1 (default) is the
/// reference stream. v2 halves each chunk's universe by hypergeometric
/// splits down to cache-sized leaves and draws every leaf by exponential
/// spacings; its bytes are ISA-independent and pinned by golden fixtures
/// like v1's. The chunk geometry, hypergeometric / binomial count layer,
/// and both-owner stream identity are shared — v1 and v2 agree on *which
/// chunks hold how many edges*, differing only in the within-chunk
/// positions (and, for G(n,p) v2, counts and positions fuse into one
/// geometric-skip Bernoulli stream per chunk).

/// Directed G(n,m): edges of PE `rank` of `size`. Edges (u, v) with u local.
void gnm_directed(u64 n, u64 m, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                  SamplerVersion version = SamplerVersion::v1);

/// Undirected G(n,m): all edges incident to PE `rank`'s vertices; an edge
/// {u, v} with owners a != b appears in both PEs' outputs (identically).
/// Edges are emitted as (u, v) with u > v (lower triangle).
void gnm_undirected(u64 n, u64 m, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                    SamplerVersion version = SamplerVersion::v1);

/// Directed G(n,p) via per-chunk binomial counts (v1) or a geometric-skip
/// Bernoulli stream over the row block (v2).
void gnp_directed(u64 n, double p, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                  SamplerVersion version = SamplerVersion::v1);

/// Undirected G(n,p) via per-chunk binomial counts (v1) or per-chunk
/// geometric-skip Bernoulli streams (v2).
void gnp_undirected(u64 n, double p, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                    SamplerVersion version = SamplerVersion::v1);

/// Turns sorted position blocks of a row-major universe (rows of `width`
/// slots) into edges, written straight into `sink`'s buffer by
/// `EdgeSink::emit_run`. It is the block consumer of every row-major ER
/// path: directed G(n,m)/G(n,p) row blocks and the rectangle chunks of the
/// undirected generators. Position x lies in row x / width at column
/// x % width and becomes the edge (row_base + row, col_base + column); with
/// `skip_diagonal` the column is shifted past the row's own vertex, since a
/// directed row has n - 1 slots (the self loop removed).
///
/// Each position is decoded on its own, with no divide and no cursor: the
/// quotient is the high word of x times floor((2^64 - 1) / width), which
/// falls short of x / width by at most one, and one compare corrects it.
class RowDecoder {
public:
    RowDecoder(u64 width, u64 row_base, u64 col_base, bool skip_diagonal, EdgeSink& sink);

    /// Block consumer (sampling/sampling.hpp): the positions
    /// offset + pos[i], i < count, increasing.
    void operator()(const u64* pos, std::size_t count, u64 offset) const;

private:
    u64 width_;
    u64 reciprocal_;
    u64 row_base_;
    u64 col_base_;
    u64 no_skip_; ///< all ones without the diagonal skip, else 0
    EdgeSink* sink_;
};

/// Exact-once ownership (sink/ownership.hpp): the undirected generators
/// partition vertex ids into consecutive blocks of ~n/size per chunk, and
/// every cross-chunk edge {u, v} is emitted by both the chunk owning u and
/// the chunk owning v. Filtering each chunk's stream to edges whose *lower*
/// endpoint lies in this block therefore keeps exactly one copy globally.
inline IdIntervals owned_vertex_range(u64 n, u64 rank, u64 size) {
    return {{block_begin(n, size, rank), block_begin(n, size, rank + 1)}};
}

} // namespace kagen::er
