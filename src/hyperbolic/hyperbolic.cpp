#include "hyperbolic/hyperbolic.hpp"

#include <algorithm>
#include <array>
#include <compare>
#include <utility>

#include "common/math.hpp"
#include "variates/variates.hpp"

namespace kagen::hyp {

HypGrid::HypGrid(const Params& params, u64 num_chunks)
    : space_(params), seed_(params.seed), num_chunks_(std::max<u64>(num_chunks, 1)) {
    // k = max(1, floor(alpha*R / ln 2)) equal-height annuli (§7.1).
    const double r = space_.radius();
    const auto k   = std::max<u32>(
        1, static_cast<u32>(std::floor(space_.alpha() * r / std::numbers::ln2)));
    bounds_.resize(k + 1);
    for (u32 i = 0; i <= k; ++i) {
        bounds_[i] = r * static_cast<double>(i) / static_cast<double>(k);
    }

    // Annulus occupancy: one multinomial over the radial masses, drawn from
    // a single hash-seeded stream so every PE computes identical counts.
    std::vector<double> probs(k);
    for (u32 i = 0; i < k; ++i) {
        probs[i] = space_.radial_cdf(bounds_[i + 1]) - space_.radial_cdf(bounds_[i]);
    }
    Rng rng        = Rng::for_ids(seed_, {kTagAnnuli});
    annulus_count_ = multinomial(rng, params.n, probs);
    annulus_offset_.resize(k + 1, 0);
    for (u32 i = 0; i < k; ++i) {
        annulus_offset_[i + 1] = annulus_offset_[i] + annulus_count_[i];
    }
}

u64 HypGrid::chunk_of_angle(double theta) const {
    const auto c = static_cast<u64>(theta / chunk_width());
    return std::min(c, num_chunks_ - 1);
}

HypGrid::Node HypGrid::descend(u32 a, u64 chunk) const {
    u64 lo     = 0;
    u64 hi     = num_chunks_;
    u64 count  = annulus_count_[a];
    u64 prefix = 0;
    while (hi - lo > 1 && count > 0) {
        const u64 mid  = lo + (hi - lo) / 2;
        const double p = static_cast<double>(mid - lo) / static_cast<double>(hi - lo);
        Rng rng        = Rng::for_ids(seed_, {kTagChunk, a, lo, hi});
        const u64 left = binomial(rng, count, p);
        if (chunk < mid) {
            hi    = mid;
            count = left;
        } else {
            lo = mid;
            prefix += left;
            count -= left;
        }
    }
    return Node{count, prefix};
}

ChunkLayout HypGrid::chunk_layout(u32 a, u64 chunk, std::pmr::memory_resource* mem) const {
    const Node node = descend(a, chunk);
    // Power-of-two cells targeting a constant occupancy (§7.2.1).
    const u64 cells = ceil_pow2(std::max<u64>(node.count / 8, 1));
    ChunkLayout layout{.first_id   = annulus_first_id(a) + node.prefix,
                       .count      = node.count,
                       .cells      = cells,
                       .begin      = chunk_begin(chunk),
                       .cell_width = chunk_width() / static_cast<double>(cells),
                       .cosh_lo    = std::cosh(space_.alpha() * annulus_lower(a)),
                       .cosh_hi    = std::cosh(space_.alpha() * annulus_upper(a)),
                       .offset     = std::pmr::vector<u64>(mem)};

    // Per-cell counts by equal-probability binary splits, level by level in
    // place: offset[lo] holds the count of the node [lo, lo + w). Every node
    // is seeded by its own range, so the visiting order is free.
    auto& cnt = layout.offset;
    cnt.assign(layout.cells + 1, 0);
    cnt[0] = node.count;
    for (u64 w = layout.cells; w > 1; w /= 2) {
        for (u64 lo = 0; lo < layout.cells; lo += w) {
            const u64 k = cnt[lo];
            if (k == 0) continue;
            Rng rng         = Rng::for_ids(seed_, {kTagCell, a, chunk, lo, lo + w});
            const u64 left  = binomial(rng, k, 0.5);
            cnt[lo]         = left;
            cnt[lo + w / 2] = k - left;
        }
    }
    // Counts to offsets: offset[c] = points in cells before c.
    u64 sum = 0;
    for (u64& c : cnt) sum += std::exchange(c, sum);
    return layout;
}

void HypGrid::cell_points(u32 a, u64 chunk, const ChunkLayout& layout, u64 cell,
                          HypPoint* out) const {
    const u64 first = layout.offset[cell];
    const u64 count = layout.offset[cell + 1] - first;
    if (count == 0) return;

    // Draw (θ, r) pairs and sort them before the precomputations, so ids are
    // angle-monotone within the chunk — the streaming generator's sweep and
    // every angle search depend on it. A layout averages at most 16 points a
    // cell; a larger cell sorts on the heap.
    struct Polar {
        double theta, r;
        auto operator<=>(const Polar&) const = default;
    };
    constexpr u64 kStackCell = 64;
    std::array<Polar, kStackCell> stack_cell{};
    std::vector<Polar> heap_cell;
    Polar* polar = stack_cell.data();
    if (count > kStackCell) {
        heap_cell.resize(count);
        polar = heap_cell.data();
    }
    Rng rng = Rng::for_ids(seed_, {kTagPoint, a, chunk, cell});
    for (u64 i = 0; i < count; ++i) {
        const double theta =
            layout.begin + (static_cast<double>(cell) + rng.uniform()) * layout.cell_width;
        const double r = space_.inv_radial_cosh(layout.cosh_lo, layout.cosh_hi, rng.uniform());
        polar[i]       = {theta, r};
    }
    std::sort(polar, polar + count);
    for (u64 i = 0; i < count; ++i) {
        out[first + i] = space_.make_point(layout.first_id + first + i, polar[i].r, polar[i].theta);
    }
}

std::vector<HypPoint> HypGrid::chunk_points(u32 a, u64 chunk) const {
    const ChunkLayout layout = chunk_layout(a, chunk);
    std::vector<HypPoint> pts(layout.count);
    for (u64 cell = 0; cell < layout.cells; ++cell) {
        cell_points(a, chunk, layout, cell, pts.data());
    }
    return pts;
}

std::vector<HypPoint> HypGrid::all_points() const {
    std::vector<HypPoint> pts;
    pts.reserve(space_.n());
    for (u32 a = 0; a < num_annuli(); ++a) {
        for (u64 c = 0; c < num_chunks_; ++c) {
            const auto cp = chunk_points(a, c);
            pts.insert(pts.end(), cp.begin(), cp.end());
        }
    }
    return pts;
}

} // namespace kagen::hyp
