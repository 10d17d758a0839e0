/// \file rmat.hpp
/// \brief R-MAT recursive-matrix generator (Chakrabarti et al. [3]),
///        the Graph 500 baseline the paper benchmarks against (§3.5.2, §8.6.1).
///
/// Each of the m edges independently descends log2(n) levels of the
/// adjacency matrix's quadrants with probabilities (a, b, c, d),
/// a+b+c+d = 1. Following the linear-work scheme of Hübschle-Schneider &
/// Sanders, one draw samples five levels at once from a Vose alias table
/// over all 4^5 five-level quadrant paths (16 KiB, built once per call on
/// the stack), so an edge costs ⌈log2(n) / 5⌉ draws and no floating point.
///
/// The draws come from one SplitMix64 sequence keyed by the seed; edge i
/// owns draws i·D+1 … i·D+D with D = ⌈log2(n) / 5⌉, so any edge is O(1) to
/// reach and the edge list is independent of the PE count (like the
/// Graph 500 reference implementation). Self-loops and duplicates are kept,
/// Graph 500 style.
#pragma once

#include "common/types.hpp"
#include "graph/edge_list.hpp"
#include "sink/edge_sink.hpp"

namespace kagen::rmat {

struct Params {
    u64 log_n = 0;    ///< n = 2^log_n vertices
    u64 m     = 0;    ///< number of edges
    double a  = 0.57; ///< Graph 500 defaults
    double b  = 0.19;
    double c  = 0.19;
    u64 seed  = 1;
};

/// The edges with indices in `rank`'s block of [0, m), streamed in index
/// order. Throws std::invalid_argument when a, b or c is negative or NaN, or
/// when a + b + c > 1 (beyond 1e-12 of rounding).
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink);

/// Single edge by index (test hook; the generator is this, blocked).
Edge edge_at(const Params& params, u64 index);

} // namespace kagen::rmat
