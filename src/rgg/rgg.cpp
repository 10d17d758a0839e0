#include "rgg/rgg.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/math.hpp"

namespace kagen::rgg {
namespace {

/// Largest cell depth that still keeps cell side >= r.
u32 levels_for_radius(double r) {
    if (r >= 1.0) return 0;
    // r == 0 gives +inf; 64 already exceeds every cap applied later.
    const double raw = std::floor(std::log2(1.0 / r));
    return static_cast<u32>(std::clamp(raw, 0.0, 64.0));
}

/// Cap so the grid has O(n) cells even for tiny radii.
template <int D>
u32 levels_for_density(u64 n) {
    u32 l = 0;
    while ((u64{1} << (static_cast<u64>(l + 1) * D)) <= std::max<u64>(n, 1)) ++l;
    return l;
}

} // namespace

template <int D>
u32 chunk_levels(u64 size) {
    u32 b = 0;
    while ((u64{1} << (static_cast<u64>(b) * D)) < size) ++b;
    return b;
}

template <int D>
u32 cell_levels(u64 n, double r, u64 size) {
    const u32 b = chunk_levels<D>(size);
    const u32 wanted = std::min(levels_for_radius(r), levels_for_density<D>(n));
    const u32 l      = std::max(b, wanted);
    // Morton codes must fit one u64 word (and leave room for D=3 spreads).
    return std::min<u32>(l, D == 2 ? 28 : 18);
}

template <int D>
PointGrid<D> point_grid(const Params& params, u64 size) {
    return PointGrid<D>(params.seed, params.n, cell_levels<D>(params.n, params.r, size));
}

template <int D>
std::pair<u64, u64> cell_range(u32 levels, u64 rank, u64 size) {
    const u32 b          = chunk_levels<D>(size);
    const u32 shift      = (levels - b) * D; // cells per chunk = 2^shift
    const u64 num_chunks = u64{1} << (static_cast<u64>(b) * D);
    return {block_begin(num_chunks, size, rank) << shift,
            block_begin(num_chunks, size, rank + 1) << shift};
}

template <int D>
IdIntervals owned_vertex_range(const Params& params, u64 rank, u64 size) {
    const PointGrid<D> grid        = point_grid<D>(params, size);
    const auto [cell_lo, cell_hi]  = cell_range<D>(grid.levels(), rank, size);
    return {{grid.first_id(cell_lo), grid.first_id(cell_hi)}};
}

template <int D>
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink) {
    const PointGrid<D> grid       = point_grid<D>(params, size);
    const u32 b                   = chunk_levels<D>(size);
    const u32 l                   = grid.levels();
    const u32 shift               = (l - b) * D; // cells per chunk = 2^shift
    const u64 num_chunks          = u64{1} << (static_cast<u64>(b) * D);
    const u64 chunk_lo            = block_begin(num_chunks, size, rank);
    const u64 chunk_hi            = block_begin(num_chunks, size, rank + 1);
    const auto [cell_lo, cell_hi] = cell_range<D>(l, rank, size);
    const double r_sq             = params.r * params.r;
    const u64 per_dim       = grid.cells_per_dim();
    // Halo width in cells: 1 when the cell side is >= r, wider otherwise.
    // Offsets past per_dim - 1 leave the grid from every cell, so the clamp
    // (taken in double, before the cast) changes no edge; it keeps huge
    // radii from looping over (2·halo+1)^D offsets or overflowing the cast.
    const auto halo = static_cast<i64>(std::min(
        std::ceil(params.r * static_cast<double>(per_dim)),
        static_cast<double>(per_dim - 1)));

    auto is_local = [&](u64 cell) {
        const u64 chunk = cell >> shift;
        return chunk >= chunk_lo && chunk < chunk_hi;
    };

    // Cells are recomputed at most once each (local and halo alike) and
    // memoized, exactly like the "redundantly generated border layers" of
    // §5.1 — all through the deterministic PointGrid, no communication.
    std::unordered_map<u64, std::vector<typename PointGrid<D>::IdPoint>> cache;
    cache.reserve((cell_hi - cell_lo) * 2);

    // Local cells in one walk down the split tree (O(cells) variates, not
    // O(cells * levels) per-cell descends); empty ranges are memoized too so
    // neighbour probes of empty cells stay O(1).
    std::vector<u64> occupied;
    grid.for_cells_in_range(
        cell_lo, cell_hi,
        [&](u64 cell, u64 count, u64 first_id) {
            cache.emplace(cell, grid.cell_points(cell, count, first_id));
            occupied.push_back(cell);
        },
        [&](u64 lo, u64 hi) {
            for (u64 cell = lo; cell < hi; ++cell) cache.emplace(cell, 0);
        });

    auto points_of = [&](u64 cell) -> const auto& {
        auto it = cache.find(cell);
        if (it == cache.end()) it = cache.emplace(cell, grid.cell_points(cell)).first;
        return it->second;
    };

    std::array<u64, D> nb{};
    for (const u64 cell : occupied) {
        const auto& mine = points_of(cell);
        const auto coords = Morton<D>::decode(cell);

        // Enumerate the Chebyshev-ball of neighbouring cells.
        std::array<i64, D> delta;
        delta.fill(-halo);
        for (;;) {
            bool in_grid = true;
            for (int d = 0; d < D; ++d) {
                const i64 c = static_cast<i64>(coords[d]) + delta[d];
                if (c < 0 || c >= static_cast<i64>(per_dim)) {
                    in_grid = false;
                    break;
                }
                nb[d] = static_cast<u64>(c);
            }
            if (in_grid) {
                const u64 other = Morton<D>::encode(nb);
                // Local pairs are processed once (from the lower Morton id);
                // halo cells are always processed (their owner won't emit
                // for us).
                const bool skip = is_local(other) && other < cell;
                if (!skip) {
                    const auto& theirs = points_of(other);
                    if (other == cell) {
                        for (std::size_t i = 0; i < mine.size(); ++i) {
                            for (std::size_t j = i + 1; j < mine.size(); ++j) {
                                if (distance_sq(mine[i].pos, mine[j].pos) <= r_sq) {
                                    sink.emit(mine[i].id, mine[j].id);
                                }
                            }
                        }
                    } else if (!theirs.empty()) {
                        for (const auto& p : mine) {
                            for (const auto& q : theirs) {
                                if (distance_sq(p.pos, q.pos) <= r_sq) {
                                    sink.emit(std::min(p.id, q.id),
                                              std::max(p.id, q.id));
                                }
                            }
                        }
                    }
                }
            }
            // Next delta (odometer increment).
            int d = 0;
            while (d < D && ++delta[d] > halo) {
                delta[d] = -halo;
                ++d;
            }
            if (d == D) break;
        }
    }
    // A local pair of cells both see the pair (A,B) from A's side only, but
    // (A,B) and (B,A) cross-cell scans emit each edge once; within-PE
    // duplicates cannot occur. Cross-PE duplicates are intended (paper §5.1).
    sink.flush();
}

template <int D>
EdgeList brute_force(const Params& params, u64 size) {
    const PointGrid<D> grid = point_grid<D>(params, size);
    const auto pts          = grid.all_points();
    const double r_sq       = params.r * params.r;
    EdgeList edges;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        for (std::size_t j = i + 1; j < pts.size(); ++j) {
            if (distance_sq(pts[i].pos, pts[j].pos) <= r_sq) {
                edges.emplace_back(std::min(pts[i].id, pts[j].id),
                                   std::max(pts[i].id, pts[j].id));
            }
        }
    }
    return edges;
}

template u32 chunk_levels<2>(u64);
template u32 chunk_levels<3>(u64);
template u32 cell_levels<2>(u64, double, u64);
template u32 cell_levels<3>(u64, double, u64);
template PointGrid<2> point_grid<2>(const Params&, u64);
template PointGrid<3> point_grid<3>(const Params&, u64);
template std::pair<u64, u64> cell_range<2>(u32, u64, u64);
template std::pair<u64, u64> cell_range<3>(u32, u64, u64);
template IdIntervals owned_vertex_range<2>(const Params&, u64, u64);
template IdIntervals owned_vertex_range<3>(const Params&, u64, u64);
template void generate<2>(const Params&, u64, u64, EdgeSink&);
template void generate<3>(const Params&, u64, u64, EdgeSink&);
template EdgeList brute_force<2>(const Params&, u64);
template EdgeList brute_force<3>(const Params&, u64);

} // namespace kagen::rgg
