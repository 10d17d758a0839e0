#include "rhg/rhg.hpp"

#include <algorithm>
#include <memory>
#include <memory_resource>
#include <numbers>
#include <span>
#include <unordered_map>


namespace kagen::rhg {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// The §7.1 recomputation of non-local points ("recompute non-local chunks
/// encountered during the search and store them for future searches"), one
/// cell at a time: cells are seeded independently, so a window generates
/// only the cells it reaches. An entry holds one chunk's layout and an
/// uninitialised chunk-sized point block, the entry's one heap allocation,
/// whose cells are written when first reached; nothing writes the rest. A
/// window centred in the own chunk enters a neighbour chunk from one of its
/// ends, so an entry's generated cells are a prefix and a suffix, and a
/// complete entry costs one comparison. Entries are keyed by (annulus,
/// chunk) packed into one word — a dense annuli × P table would grow with P
/// — and the table, the layouts and the memos share one monotonic arena.
class CellCache {
public:
    /// Generates the own chunk of every annulus whole: each of its points is
    /// a query source.
    CellCache(const hyp::HypGrid& grid, u64 rank)
        : grid_(grid), rank_(rank), entries_(&arena_), own_(&arena_),
          last_(grid.num_annuli(), Memo{}, &arena_) {
        own_.reserve(grid.num_annuli());
        for (u32 a = 0; a < grid.num_annuli(); ++a) {
            Entry& e = entry(a, rank);
            fill(e, a, rank, 0, e.layout.cells);
            own_.push_back(&e);
        }
    }

    std::span<const hyp::HypPoint> own(u32 a) const {
        return {own_[a]->points.get(), own_[a]->layout.count};
    }

    /// The points of chunk `c` of annulus `a` that may have an angle in
    /// [lo, hi], in angle order: the cells the range reaches plus one cell
    /// either side against rounding, generated on first use.
    std::span<const hyp::HypPoint> reach(u32 a, u64 c, double lo, double hi) {
        Entry& e = c == rank_ ? *own_[a] : entry(a, c);
        const auto& layout = e.layout;
        if (e.head == e.tail) return {e.points.get(), layout.count};
        const u64 from = std::max<u64>(layout.cell_of_angle(lo), 1) - 1;
        const u64 to   = std::min(layout.cell_of_angle(hi) + 2, layout.cells);
        fill(e, a, c, from, to);
        return {e.points.get() + layout.offset[from], e.points.get() + layout.offset[to]};
    }

private:
    struct Entry {
        hyp::ChunkLayout layout;
        std::unique_ptr<hyp::HypPoint[]> points; ///< written cell by cell
        u64 head = 0; ///< cells [0, head) and [tail, cells) are written
        u64 tail = 0;
    };
    struct Memo {
        u64 chunk    = 0;
        Entry* entry = nullptr;
    };

    /// The entry of (a, c), created unfilled; a per-annulus memo of the last
    /// one spares the hash lookup while a query sweep stays in one chunk.
    Entry& entry(u32 a, u64 c) {
        Memo& memo = last_[a];
        if (memo.entry != nullptr && memo.chunk == c) return *memo.entry;
        const u64 key = c * grid_.num_annuli() + a;
        auto it       = entries_.find(key);
        if (it == entries_.end()) {
            hyp::ChunkLayout layout = grid_.chunk_layout(a, c, &arena_);
            std::unique_ptr<hyp::HypPoint[]> points;
            if (layout.count > 0) {
                points = std::make_unique_for_overwrite<hyp::HypPoint[]>(layout.count);
            }
            const u64 cells = layout.cells;
            it = entries_.emplace(key, Entry{std::move(layout), std::move(points), 0, cells})
                     .first;
        }
        memo = {c, &it->second};
        return it->second;
    }

    /// Generates the cells of [from, to) not generated yet, growing the
    /// prefix or the suffix over the gap, whichever is nearer.
    void fill(Entry& e, u32 a, u64 c, u64 from, u64 to) {
        const u64 lo = std::max(from, e.head);
        const u64 hi = std::min(to, e.tail);
        if (lo >= hi) return;
        const bool grow_head = lo - e.head <= e.tail - hi;
        const u64 first      = grow_head ? e.head : lo;
        const u64 last       = grow_head ? hi : e.tail;
        for (u64 cell = first; cell < last; ++cell) {
            grid_.cell_points(a, c, e.layout, cell, e.points.get());
        }
        if (grow_head) {
            e.head = last;
        } else {
            e.tail = first;
        }
    }

    const hyp::HypGrid& grid_;
    u64 rank_;
    std::pmr::monotonic_buffer_resource arena_;
    std::pmr::unordered_map<u64, Entry> entries_;
    std::pmr::vector<Entry*> own_;
    std::pmr::vector<Memo> last_;
};

/// Invokes `fn(u, c)` for every point `u` of annulus `a` whose angle lies
/// within [center - width, center + width] (mod 2π), `c` being u's chunk.
/// Exploits the chunk points' angle order via binary search.
template <typename F>
void for_candidates(CellCache& cache, const hyp::HypGrid& grid, u32 a, double center,
                    double width, F&& fn) {
    const auto scan = [&](double lo, double hi) { // 0 <= lo <= hi <= 2π
        const u64 c_lo = grid.chunk_of_angle(lo);
        const u64 c_hi = grid.chunk_of_angle(std::nextafter(hi, 0.0));
        for (u64 c = c_lo; c <= c_hi; ++c) {
            const auto pts = cache.reach(a, c, lo, hi);
            auto it = std::lower_bound(pts.begin(), pts.end(), lo,
                                       [](const hyp::HypPoint& p, double v) {
                                           return p.theta < v;
                                       });
            for (; it != pts.end() && it->theta <= hi; ++it) fn(*it, c);
        }
    };
    if (width >= std::numbers::pi) {
        scan(0.0, kTwoPi);
        return;
    }
    double lo = center - width;
    double hi = center + width;
    if (lo < 0.0) {
        scan(lo + kTwoPi, kTwoPi);
        lo = 0.0;
    }
    if (hi > kTwoPi) {
        scan(0.0, hi - kTwoPi);
        hi = kTwoPi;
    }
    scan(lo, hi);
}

} // namespace

IdIntervals owned_vertex_intervals(const hyp::Params& params, u64 rank, u64 size) {
    const hyp::HypGrid grid(params, size);
    IdIntervals owned;
    owned.reserve(grid.num_annuli());
    for (u32 a = 0; a < grid.num_annuli(); ++a) {
        const auto [lo, hi] = grid.chunk_id_range(a, rank);
        if (lo < hi) owned.push_back({lo, hi});
    }
    // Annulus-major id assignment makes the per-annulus intervals already
    // sorted and disjoint — the owns_vertex contract.
    return owned;
}

u32 first_streaming_annulus(const hyp::HypGrid& grid) {
    const auto& space  = grid.space();
    const double limit = grid.chunk_width() / 2.0; // requests must fit a chunk
    for (u32 a = 0; a < grid.num_annuli(); ++a) {
        if (space.delta_theta(grid.annulus_lower(a), grid.annulus_lower(a)) <= limit) {
            return a;
        }
    }
    return grid.num_annuli(); // everything global
}

void generate_inmemory(const hyp::Params& params, u64 rank, u64 size, EdgeSink& sink,
                       EdgeSemantics semantics) {
    const hyp::HypGrid grid(params, size);
    const auto& space      = grid.space();
    const u32 num_annuli   = grid.num_annuli();
    const bool partitioned = semantics == EdgeSemantics::as_generated;
    CellCache cache(grid, rank);

    std::vector<hyp::Space::Radius> lower(num_annuli);
    for (u32 j = 0; j < num_annuli; ++j) {
        lower[j] = hyp::Space::radius_of(grid.annulus_lower(j));
    }

    for (u32 a = 0; a < num_annuli; ++a) {
        for (const auto& v : cache.own(a)) {
            const auto rv = hyp::Space::radius_of(v.r);
            // Annulus-wise query (§7.1) with the Lemma-10 window from each
            // annulus' lower boundary. Ids are annulus-major, so querying
            // annuli j >= a and keeping u.id > v.id finds every edge exactly
            // once, from its lower-id endpoint — the exact_once owner. The
            // partitioned output also needs the edges whose lower endpoint
            // lies in another chunk: those come from annuli j <= a.
            for (u32 j = partitioned ? 0 : a; j < num_annuli; ++j) {
                const double width = space.delta_theta(rv, lower[j]);
                for_candidates(cache, grid, j, v.theta, width,
                               [&](const hyp::HypPoint& u, u64 c) {
                                   if (u.id > v.id) {
                                       if (space.edge(u, v)) sink.emit(v.id, u.id);
                                   } else if (partitioned && c != rank &&
                                              space.edge(u, v)) {
                                       sink.emit(u.id, v.id);
                                   }
                               });
            }
        }
    }
    sink.flush();
}

void generate_streaming(const hyp::Params& params, u64 rank, u64 size, EdgeSink& sink) {
    const hyp::HypGrid grid(params, size);
    const auto& space    = grid.space();
    const u32 stream_lo  = first_streaming_annulus(grid);
    const u32 num_annuli = grid.num_annuli();
    EdgeList edges;

    // ---- Global phase (§7.2): vertices of the global annuli are
    // recomputed on every PE; request execution is distributed.
    std::vector<hyp::HypPoint> global_pts;
    for (u32 a = 0; a < stream_lo; ++a) {
        for (u64 c = 0; c < grid.num_chunks(); ++c) {
            const auto pts = grid.chunk_points(a, c);
            global_pts.insert(global_pts.end(), pts.begin(), pts.end());
        }
    }
    // Global-global pairs, each executed by the PE owning the lower-id
    // endpoint's angular position (even distribution, no duplication).
    for (std::size_t i = 0; i < global_pts.size(); ++i) {
        for (std::size_t j = i + 1; j < global_pts.size(); ++j) {
            const auto& u = global_pts[i];
            const auto& v = global_pts[j];
            const auto& low = u.id < v.id ? u : v;
            if (grid.chunk_of_angle(low.theta) != rank) continue;
            if (space.edge(u, v)) {
                edges.emplace_back(std::min(u.id, v.id), std::max(u.id, v.id));
            }
        }
    }

    // The streaming target chunks this PE owns or must replicate for the
    // endgame: its own chunk plus the two adjacent ones (§7.2 final phase).
    std::vector<u64> target_chunks{rank};
    if (size > 1) {
        target_chunks.push_back((rank + 1) % size);
        target_chunks.push_back((rank + size - 1) % size);
        std::sort(target_chunks.begin(), target_chunks.end());
        target_chunks.erase(std::unique(target_chunks.begin(), target_chunks.end()),
                            target_chunks.end());
    }

    // A request: angular interval plus the (precomputed) source point.
    struct Request {
        double begin;
        double end;
        u32 annulus;         // source annulus
        hyp::HypPoint src;
    };

    // Local chunk points per annulus, generated once.
    std::vector<std::vector<hyp::HypPoint>> local_pts(num_annuli);
    for (u32 a = stream_lo; a < num_annuli; ++a) {
        local_pts[a] = grid.chunk_points(a, rank);
    }

    for (u32 j = stream_lo; j < num_annuli; ++j) {
        // Local points of annulus j (sweep targets) plus replicated
        // neighbours; sorted by angle.
        std::vector<hyp::HypPoint> targets;
        for (const u64 c : target_chunks) {
            if (c == rank) {
                targets.insert(targets.end(), local_pts[j].begin(), local_pts[j].end());
            } else {
                const auto pts = grid.chunk_points(j, c);
                targets.insert(targets.end(), pts.begin(), pts.end());
            }
        }
        std::sort(targets.begin(), targets.end(),
                  [](const auto& a, const auto& b) { return a.theta < b.theta; });
        if (targets.empty()) continue;

        // Requests of local sources from annuli stream_lo..j; a request into
        // annulus j has width delta_theta(r_src, lower_j) <= half a chunk.
        std::vector<Request> requests;
        for (u32 i = stream_lo; i <= j; ++i) {
            for (const auto& v : local_pts[i]) {
                const double w = space.delta_theta(v.r, grid.annulus_lower(j));
                requests.push_back({v.theta - w, v.theta + w, i, v});
            }
        }
        // Global requests clipped to this PE: match all global sources
        // against local targets (their executions are distributed by
        // target ownership).
        for (const auto& v : global_pts) {
            const double w = space.delta_theta(v.r, grid.annulus_lower(j));
            for (const auto& u : local_pts[j]) {
                double d = std::fabs(u.theta - v.theta);
                d        = std::min(d, kTwoPi - d);
                if (d <= w && space.edge(u, v)) {
                    edges.emplace_back(std::min(u.id, v.id), std::max(u.id, v.id));
                }
            }
        }

        // Unwrap: duplicate requests crossing 0/2π so every target angle in
        // [0, 2π) is covered by begin <= θ <= end on the real line.
        const std::size_t base = requests.size();
        for (std::size_t q = 0; q < base; ++q) {
            if (requests[q].begin < 0.0) {
                Request r = requests[q];
                r.begin += kTwoPi;
                r.end += kTwoPi;
                requests.push_back(r);
            } else if (requests[q].end > kTwoPi) {
                Request r = requests[q];
                r.begin -= kTwoPi;
                r.end -= kTwoPi;
                requests.push_back(r);
            }
        }
        std::sort(requests.begin(), requests.end(),
                  [](const Request& a, const Request& b) { return a.begin < b.begin; });

        // Angular sweep: advance over targets, activating requests whose
        // begin has passed and evicting (overwriting) expired ones (§7.2.1).
        std::vector<Request> active;
        std::size_t next = 0;
        for (const auto& u : targets) {
            while (next < requests.size() && requests[next].begin <= u.theta) {
                active.push_back(requests[next++]);
            }
            for (std::size_t q = 0; q < active.size();) {
                if (active[q].end < u.theta) {
                    active[q] = active.back();
                    active.pop_back();
                    continue;
                }
                const auto& v = active[q].src;
                // Same-annulus pairs are emitted once, from the lower id.
                const bool ordered = active[q].annulus < j || v.id < u.id;
                if (ordered && v.id != u.id && space.edge(u, v)) {
                    edges.emplace_back(std::min(u.id, v.id), std::max(u.id, v.id));
                }
                ++q;
            }
        }
    }
    sort_unique(edges);
    for (const auto& [u, v] : edges) sink.emit(u, v);
    sink.flush();
}

EdgeList brute_force(const hyp::Params& params, u64 size) {
    const hyp::HypGrid grid(params, size);
    const auto& space = grid.space();
    const auto pts    = grid.all_points();
    EdgeList edges;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        for (std::size_t j = i + 1; j < pts.size(); ++j) {
            if (space.edge(pts[i], pts[j])) {
                edges.emplace_back(std::min(pts[i].id, pts[j].id),
                                   std::max(pts[i].id, pts[j].id));
            }
        }
    }
    sort_unique(edges);
    return edges;
}

} // namespace kagen::rhg
