/// \file kagen.hpp
/// \brief Public facade of the KaGen reproduction: one entry point for all
///        communication-free generators.
///
/// Usage (materialized):
/// \code
///   kagen::Config cfg;
///   cfg.model = kagen::Model::Rgg2D;
///   cfg.n     = 1 << 20;
///   cfg.r     = 0.001;
///   auto result = kagen::generate(cfg, rank, size);   // this PE's edges
/// \endcode
///
/// Usage (streaming — no edge list is ever held in memory; exact_once
/// suppresses the incident-edge models' intentional cross-chunk duplicate
/// emissions, so the sink sees every edge of the graph exactly once):
/// \code
///   cfg.edge_semantics = kagen::EdgeSemantics::exact_once;
///   kagen::DegreeStatsSink sink(kagen::num_vertices(cfg));
///   kagen::generate_chunked(cfg, /*num_pes=*/8, sink); // whole graph
///   sink.finish();
/// \endcode
///
/// Every generator is a pure function of (cfg, rank, size): ranks can run
/// on MPI processes, threads, or sequentially — outputs are bit-identical.
/// The chunked engine reuses the same rank-splitting math with chunk ids in
/// the rank role: `chunks_per_pe` (K) schedules K·P logical chunks over a
/// persistent thread pool for load balancing, and pinning `total_chunks` makes
/// the generated graph independent of both P and K. See DESIGN.md for the
/// model-by-model algorithm map (paper sections), the PE-simulation
/// argument, and the sink/chunk architecture; the per-model headers under
/// er/, rgg/, rdg/, rhg/, ba/, rmat/ have algorithmic detail.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "ba/ba.hpp"
#include "common/bytes.hpp"
#include "common/math.hpp"
#include "common/types.hpp"
#include "dist/runner.hpp"
#include "er/er.hpp"
#include "graph/edge_list.hpp"
#include "hyperbolic/hyperbolic.hpp"
#include "obs/trace.hpp"
#include "pe/pe.hpp"
#include "rdg/rdg.hpp"
#include "rgg/rgg.hpp"
#include "rhg/rhg.hpp"
#include "rmat/rmat.hpp"
#include "sink/ownership.hpp"
#include "sink/sinks.hpp"

namespace kagen {

enum class Model {
    GnmDirected,   ///< Erdős–Rényi G(n,m), directed (§4.1)
    GnmUndirected, ///< Erdős–Rényi G(n,m), undirected (§4.2)
    GnpDirected,   ///< Gilbert G(n,p), directed (§4.3)
    GnpUndirected, ///< Gilbert G(n,p), undirected (§4.3)
    Rgg2D,         ///< random geometric graph, unit square (§5)
    Rgg3D,         ///< random geometric graph, unit cube (§5)
    Rdg2D,         ///< random Delaunay graph, unit torus (§6)
    Rdg3D,         ///< random Delaunay graph, 3-torus (§6)
    Rhg,           ///< random hyperbolic graph, in-memory generator (§7.1)
    RhgStreaming,  ///< random hyperbolic graph, streaming generator (§7.2)
    Ba,            ///< Barabási–Albert preferential attachment (§3.5.1)
    Rmat,          ///< R-MAT baseline (§3.5.2)
};

struct Config {
    Model model = Model::GnmDirected;
    u64 n       = 0;    ///< vertices (for Rmat: rounded up to 2^ceil(log2 n))
    u64 m       = 0;    ///< edges (GnmDirected/GnmUndirected/Rmat)
    double p    = 0.0;  ///< edge probability (Gnp*)
    double r    = 0.0;  ///< radius (Rgg*)
    double avg_deg = 8.0; ///< target average degree (Rhg*)
    double gamma   = 3.0; ///< power-law exponent (Rhg*)
    u64 ba_degree  = 4;   ///< attachment edges per vertex (Ba)
    double rmat_a = 0.57, rmat_b = 0.19, rmat_c = 0.19;
    u64 seed = 1;

    // --- chunked execution engine (generate_chunked) ---
    u64 chunks_per_pe = 1; ///< K: logical chunks scheduled per PE
    u64 total_chunks  = 0; ///< canonical chunk count; 0 = K·P. Pinning this
                           ///< makes the graph independent of P and K.

    /// Byte budget for the ordered-delivery window (pe::ChunkOptions):
    /// chunks completing ahead of the delivery cursor may hold at most this
    /// many resident edge bytes before further out-of-window chunks spill
    /// to disk and are replayed in canonical order. 0 = unbounded. Output
    /// is byte-identical for every budget; only peak memory changes.
    u64 max_buffered_bytes = 0;

    /// Spill scratch location; empty = anonymous temp file under $TMPDIR.
    std::string spill_path;

    /// Sequential sampling engine (sampling/sampling.hpp) used inside the
    /// ER family's chunks (tool: -sampler). v1 (default) is the reference
    /// stream most golden files and byte-identity sweeps lock. v2 is the
    /// fast engine: it halves each chunk's universe by hypergeometric splits
    /// down to cache-sized leaves and draws every leaf by exponential
    /// spacings (G(n,p) uses a geometric-skip Bernoulli stream instead). It
    /// samples the same distribution as v1 but a different stream, and its
    /// bytes are ISA-independent and pinned by golden fixtures too. Both
    /// keep the pure-function-of-(cfg, rank, size) contract, so chunked /
    /// distributed runs stay reproducible under either engine.
    SamplerVersion sampler_version = SamplerVersion::v1;

    /// Runtime telemetry (src/obs/, DESIGN.md §13; tool: -trace/-metrics).
    /// Non-empty `trace_path`: the run records chunk-lifecycle spans and
    /// budget-park instants and writes a Chrome trace_event JSON timeline
    /// there at the end; non-empty `metrics_path`: the run's metrics-
    /// registry delta is written there as JSON. Observation never perturbs
    /// output (byte-identity is test-pinned), and neither field enters
    /// `encode_config` — telemetry cannot change the graph, so it must not
    /// change the config's content-address either.
    std::string trace_path;
    std::string metrics_path;

    /// Edge-stream semantics (sink/ownership.hpp). `as_generated` keeps the
    /// paper's per-chunk redundancy: the incident-edge models (undirected
    /// ER/Gnp, RGG, RDG, in-memory RHG) emit every cross-chunk edge on both
    /// owning chunks. `exact_once` restricts each chunk's stream to the edges
    /// whose canonical lower endpoint the chunk owns, so across all chunks
    /// every edge appears exactly once — with zero communication, and
    /// bit-deterministically for every (P, K, threads) combination once
    /// `total_chunks` is pinned. Models without intentional duplicates are
    /// byte-identical under both settings.
    EdgeSemantics edge_semantics = EdgeSemantics::as_generated;
};

struct Result {
    EdgeList edges; ///< this PE's edges (semantics per model header)
    u64 n = 0;      ///< global vertex count
};

/// Canonical byte encoding of a Config (little-endian, fixed field order,
/// versioned) — ONE encode for every consumer that needs a config to
/// survive a boundary: the TCP job frame of the net backend today, and the
/// daemon's cache key / wire form on the ROADMAP. Two equal configs encode
/// to identical bytes, so the encoding doubles as a content-address.
/// Every encoded field but two describes the graph or its chunk
/// decomposition. The two exceptions, `max_buffered_bytes` and
/// `spill_path`, change only memory use, but a worker (forked or TCP)
/// runs the decoded config and nothing else, so they must travel with the
/// job. Bump `kConfigEncodingVersion` whenever a field is added, removed
/// or reordered; `decode_config` rejects any other version rather than
/// misreading fields.
constexpr u64 kConfigEncodingVersion = 2;

inline void encode_config(std::vector<u8>& out, const Config& cfg) {
    bytes::put_u64(out, kConfigEncodingVersion);
    bytes::put_u64(out, static_cast<u64>(cfg.model));
    bytes::put_u64(out, cfg.n);
    bytes::put_u64(out, cfg.m);
    bytes::put_f64(out, cfg.p);
    bytes::put_f64(out, cfg.r);
    bytes::put_f64(out, cfg.avg_deg);
    bytes::put_f64(out, cfg.gamma);
    bytes::put_u64(out, cfg.ba_degree);
    bytes::put_f64(out, cfg.rmat_a);
    bytes::put_f64(out, cfg.rmat_b);
    bytes::put_f64(out, cfg.rmat_c);
    bytes::put_u64(out, cfg.seed);
    bytes::put_u64(out, cfg.chunks_per_pe);
    bytes::put_u64(out, cfg.total_chunks);
    bytes::put_u64(out, cfg.max_buffered_bytes);
    bytes::put_string(out, cfg.spill_path);
    bytes::put_u64(out, static_cast<u64>(cfg.sampler_version));
    bytes::put_u64(out, static_cast<u64>(cfg.edge_semantics));
    // trace_path / metrics_path are deliberately NOT encoded: telemetry
    // never changes the generated graph, and the encoding doubles as the
    // config's content-address — two runs differing only in observation
    // must hash identically. A worker is told to record by the job frame
    // (net::JobSpec::want_trace), not by these paths.
}

/// Bounds-checked decode of `encode_config`'s layout; advances `p`. Throws
/// std::runtime_error on truncation, version mismatch, or an enum value the
/// decoder does not know — a config must never decode to a *different*
/// graph than the one encoded, so unknown inputs fail loudly.
inline Config decode_config(const u8*& p, const u8* end) {
    const u64 version = bytes::get_u64(p, end);
    if (version != kConfigEncodingVersion) {
        throw std::runtime_error("kagen: config encoding version " +
                                 std::to_string(version) + " not supported (want " +
                                 std::to_string(kConfigEncodingVersion) + ")");
    }
    Config cfg;
    const u64 model = bytes::get_u64(p, end);
    if (model > static_cast<u64>(Model::Rmat)) {
        throw std::runtime_error("kagen: config carries unknown model id " +
                                 std::to_string(model));
    }
    cfg.model              = static_cast<Model>(model);
    cfg.n                  = bytes::get_u64(p, end);
    cfg.m                  = bytes::get_u64(p, end);
    cfg.p                  = bytes::get_f64(p, end);
    cfg.r                  = bytes::get_f64(p, end);
    cfg.avg_deg            = bytes::get_f64(p, end);
    cfg.gamma              = bytes::get_f64(p, end);
    cfg.ba_degree          = bytes::get_u64(p, end);
    cfg.rmat_a             = bytes::get_f64(p, end);
    cfg.rmat_b             = bytes::get_f64(p, end);
    cfg.rmat_c             = bytes::get_f64(p, end);
    cfg.seed               = bytes::get_u64(p, end);
    cfg.chunks_per_pe      = bytes::get_u64(p, end);
    cfg.total_chunks       = bytes::get_u64(p, end);
    cfg.max_buffered_bytes = bytes::get_u64(p, end);
    cfg.spill_path         = bytes::get_string(p, end);
    const u64 sampler      = bytes::get_u64(p, end);
    if (sampler > static_cast<u64>(SamplerVersion::v2)) {
        throw std::runtime_error("kagen: config carries unknown sampler version " +
                                 std::to_string(sampler));
    }
    cfg.sampler_version = static_cast<SamplerVersion>(sampler);
    const u64 semantics = bytes::get_u64(p, end);
    if (semantics > static_cast<u64>(EdgeSemantics::exact_once)) {
        throw std::runtime_error("kagen: config carries unknown edge semantics " +
                                 std::to_string(semantics));
    }
    cfg.edge_semantics = static_cast<EdgeSemantics>(semantics);
    return cfg;
}

inline const char* model_name(Model model) {
    switch (model) {
        case Model::GnmDirected:   return "gnm_directed";
        case Model::GnmUndirected: return "gnm_undirected";
        case Model::GnpDirected:   return "gnp_directed";
        case Model::GnpUndirected: return "gnp_undirected";
        case Model::Rgg2D:         return "rgg2d";
        case Model::Rgg3D:         return "rgg3d";
        case Model::Rdg2D:         return "rdg2d";
        case Model::Rdg3D:         return "rdg3d";
        case Model::Rhg:           return "rhg";
        case Model::RhgStreaming:  return "rhg_streaming";
        case Model::Ba:            return "ba";
        case Model::Rmat:          return "rmat";
    }
    return "unknown";
}

/// Throws std::invalid_argument naming the offending field when `cfg`'s
/// model parameters describe no graph: more G(n,m) edges than vertex pairs
/// (counted in u128), a G(n,p) probability outside [0, 1], a negative or
/// NaN RGG radius, an RHG with gamma <= 2 or avg_deg <= 0 (hyp::Params'
/// preconditions), a BA graph whose 2·n·d attachment positions overflow
/// u64, or an R-MAT n beyond 2^63 (no power of two to round it up to).
/// O(1); every entry point runs it before the first chunk or rank starts,
/// because the generators' own asserts vanish in Release builds.
inline void validate(const Config& cfg) {
    const auto fail = [&](const std::string& what) {
        throw std::invalid_argument(std::string("kagen: ") + model_name(cfg.model) +
                                    ": " + what);
    };
    const auto num = [](double x) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", x);
        return std::string(buf);
    };
    switch (cfg.model) {
        case Model::GnmDirected:
        case Model::GnmUndirected: {
            const u128 pairs = cfg.model == Model::GnmDirected
                                   ? er::directed_universe(cfg.n)
                                   : er::undirected_universe(cfg.n);
            if (cfg.m > pairs) {
                fail("m = " + std::to_string(cfg.m) + " exceeds the " +
                     std::to_string(static_cast<u64>(pairs)) +
                     " vertex pairs of n = " + std::to_string(cfg.n));
            }
            break;
        }
        case Model::GnpDirected:
        case Model::GnpUndirected:
            if (!(cfg.p >= 0.0 && cfg.p <= 1.0)) {
                fail("p = " + num(cfg.p) + " is not a probability in [0, 1]");
            }
            break;
        case Model::Rgg2D:
        case Model::Rgg3D:
            if (!(cfg.r >= 0.0)) {
                fail("r = " + num(cfg.r) + " must be a non-negative radius");
            }
            break;
        case Model::Rhg:
        case Model::RhgStreaming:
            if (!(cfg.gamma > 2.0)) {
                fail("gamma = " + num(cfg.gamma) + " must exceed 2");
            }
            if (!(cfg.avg_deg > 0.0)) {
                fail("avg_deg = " + num(cfg.avg_deg) + " must be positive");
            }
            break;
        case Model::Ba:
            // Vertex v's i-th attachment resolves position 2·(v·d + i) + 1,
            // so every position below 2·n·d must fit one u64.
            if (u128{cfg.n} * cfg.ba_degree > (u128{1} << 63)) {
                fail("ba_degree = " + std::to_string(cfg.ba_degree) + " with n = " +
                     std::to_string(cfg.n) + " needs 2*n*d > 2^64 attachment positions");
            }
            break;
        case Model::Rmat:
            if (cfg.n > (u64{1} << 63)) {
                fail("n = " + std::to_string(cfg.n) +
                     " beyond 2^63 cannot be rounded to a power of two");
            }
            break;
        default:
            break;
    }
}

/// Global vertex count of the graph `cfg` describes, after `validate`.
/// Identical to the `n` field of every Result for the same config. For
/// Rmat, n is rounded up to the next power of two — except n <= 1, which
/// stays as-is (2^0 = 1 would otherwise turn an explicitly empty graph into
/// a one-vertex one).
inline u64 num_vertices(const Config& cfg) {
    validate(cfg);
    if (cfg.model != Model::Rmat || cfg.n <= 1) return cfg.n;
    return ceil_pow2(cfg.n);
}

/// Whether the model's per-chunk output carries the paper's intentional
/// cross-chunk duplicate edges (the §4.2/§5.1 redundancy trick): every edge
/// crossing a chunk boundary is recomputed — identically — by both owning
/// chunks. These are exactly the models `EdgeSemantics::exact_once`
/// de-duplicates — by the ownership filter, or for in-memory Rhg by a
/// one-direction query that emits only the owned edges; the rest (directed
/// ER/Gnp, RHG-streaming and the partition-output BA/R-MAT) already emit
/// globally disjoint streams and are byte-identical under both semantics.
inline bool carries_duplicates(Model model) {
    switch (model) {
        case Model::GnmUndirected:
        case Model::GnpUndirected:
        case Model::Rgg2D:
        case Model::Rgg3D:
        case Model::Rdg2D:
        case Model::Rdg3D:
        case Model::Rhg:
            return true;
        case Model::GnmDirected:
        case Model::GnpDirected:
        case Model::RhgStreaming:
        case Model::Ba:
        case Model::Rmat:
            return false;
    }
    return false;
}

/// Vertex-id intervals chunk `rank` of `size` owns under `cfg`'s model —
/// the tie-break table of the exact-once filter (sink/ownership.hpp),
/// dispatched to the per-model builders. Empty for models without
/// intentional duplicates (nothing to filter).
inline IdIntervals owned_vertex_intervals(const Config& cfg, u64 rank, u64 size) {
    switch (cfg.model) {
        case Model::GnmUndirected:
        case Model::GnpUndirected:
            return er::owned_vertex_range(cfg.n, rank, size);
        case Model::Rgg2D:
            return rgg::owned_vertex_range<2>({cfg.n, cfg.r, cfg.seed}, rank, size);
        case Model::Rgg3D:
            return rgg::owned_vertex_range<3>({cfg.n, cfg.r, cfg.seed}, rank, size);
        case Model::Rdg2D:
            return rdg::owned_vertex_range<2>({cfg.n, cfg.seed}, rank, size);
        case Model::Rdg3D:
            return rdg::owned_vertex_range<3>({cfg.n, cfg.seed}, rank, size);
        case Model::Rhg:
            return rhg::owned_vertex_intervals(
                {cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed}, rank, size);
        default:
            return {};
    }
}

/// Affinity-group size for the chunk→worker deal of `cfg`'s model
/// (pe::ChunkOptions::deal_granularity). The geometric point_grid models
/// map consecutive chunk ids to contiguous Morton cell ranges, so dealing
/// chunks in groups of K = chunks_per_pe keeps each simulated PE's
/// spatially compact block on one worker — adjacent chunks share split-tree
/// ancestry and halo cells, so the worker's caches stay warm across the
/// block. Non-spatial models gain nothing from grouping and keep the plain
/// equal-count deal. Scheduling only; output is identical either way.
inline u64 chunk_deal_granularity(const Config& cfg) {
    switch (cfg.model) {
        case Model::Rgg2D:
        case Model::Rgg3D:
        case Model::Rdg2D:
        case Model::Rdg3D:
            return std::max<u64>(cfg.chunks_per_pe, 1);
        default:
            return 1;
    }
}

namespace detail {

/// The raw per-model dispatch: streams chunk `rank` of `size` exactly as
/// the paper's generators produce it (as-generated semantics).
inline void dispatch_generate(const Config& cfg, u64 rank, u64 size, EdgeSink& sink) {
    switch (cfg.model) {
        case Model::GnmDirected:
            er::gnm_directed(cfg.n, cfg.m, cfg.seed, rank, size, sink,
                             cfg.sampler_version);
            break;
        case Model::GnmUndirected:
            er::gnm_undirected(cfg.n, cfg.m, cfg.seed, rank, size, sink,
                               cfg.sampler_version);
            break;
        case Model::GnpDirected:
            er::gnp_directed(cfg.n, cfg.p, cfg.seed, rank, size, sink,
                             cfg.sampler_version);
            break;
        case Model::GnpUndirected:
            er::gnp_undirected(cfg.n, cfg.p, cfg.seed, rank, size, sink,
                               cfg.sampler_version);
            break;
        case Model::Rgg2D:
            rgg::generate<2>({cfg.n, cfg.r, cfg.seed}, rank, size, sink);
            break;
        case Model::Rgg3D:
            rgg::generate<3>({cfg.n, cfg.r, cfg.seed}, rank, size, sink);
            break;
        case Model::Rdg2D:
            rdg::generate<2>({cfg.n, cfg.seed}, rank, size, sink);
            break;
        case Model::Rdg3D:
            rdg::generate<3>({cfg.n, cfg.seed}, rank, size, sink);
            break;
        case Model::Rhg:
            rhg::generate_inmemory({cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed}, rank,
                                   size, sink, cfg.edge_semantics);
            break;
        case Model::RhgStreaming:
            rhg::generate_streaming({cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed}, rank,
                                    size, sink);
            break;
        case Model::Ba:
            ba::generate({cfg.n, cfg.ba_degree, cfg.seed}, rank, size, sink);
            break;
        case Model::Rmat: {
            const u64 nv = num_vertices(cfg);
            if (nv <= 1) break; // no non-trivial edges exist; see num_vertices
            const u64 log_n = floor_log2(nv);
            rmat::generate({log_n, cfg.m, cfg.rmat_a, cfg.rmat_b, cfg.rmat_c, cfg.seed},
                           rank, size, sink);
            break;
        }
    }
}

} // namespace detail

/// Streams the edges PE `rank` of `size` is responsible for into `sink`
/// (flushed, not finished — the caller owns the sink lifecycle). Under
/// `cfg.edge_semantics == exact_once` the streams of all ranks are globally
/// disjoint and their union is the graph — each rank still a pure function
/// of (cfg, rank, size), no communication. The duplicate-carrying models get
/// there through a per-chunk `OwnershipFilterSink`; in-memory Rhg takes the
/// semantics itself, since its query loop can emit only the owned edges.
inline void generate(const Config& cfg, u64 rank, u64 size, EdgeSink& sink) {
    if (size == 0 || rank >= size) {
        throw std::invalid_argument("kagen::generate: rank/size out of range");
    }
    validate(cfg);
    if (cfg.edge_semantics == EdgeSemantics::exact_once &&
        carries_duplicates(cfg.model) && cfg.model != Model::Rhg) {
        OwnershipFilterSink filter(owned_vertex_intervals(cfg, rank, size), sink);
        detail::dispatch_generate(cfg, rank, size, filter);
        filter.finish(); // drains the filter and flushes `sink`; no more
        return;          // (the target sink's finish() stays with the caller)
    }
    detail::dispatch_generate(cfg, rank, size, sink);
}

/// Generates the edges PE `rank` of `size` is responsible for.
inline Result generate(const Config& cfg, u64 rank, u64 size) {
    Result out;
    out.n = num_vertices(cfg);
    MemorySink sink(&out.edges);
    generate(cfg, rank, size, sink);
    return out;
}

/// Stats of a whole-graph chunked run: the engine's own per-run view.
using ChunkStats = pe::ChunkRunStats;

/// Whole-graph chunked engine: runs every canonical chunk (total_chunks,
/// or chunks_per_pe·num_pes when unset) of the graph through the generator
/// and streams the edges into `sink`, dispatched in ascending chunk order
/// over the persistent thread pool with at most `threads` workers (0 = one per
/// simulated PE, capped by the hardware). A chunk id plays exactly the rank
/// role of the per-PE API, so the edge stream equals the concatenation of
/// generate(cfg, c, C) for c = 0..C-1 — bit-identical for every thread
/// count, and for every (P, K) combination once total_chunks is pinned.
/// Under the default `as_generated` semantics, models whose per-PE output
/// carries intentional cross-PE duplicates (undirected ER/Gnp, Rgg, Rdg,
/// in-memory Rhg) keep them here chunk-for-chunk; with
/// `cfg.edge_semantics = exact_once` each chunk's stream is reduced to its
/// owned edges (see generate) so the whole run emits every edge exactly once —
/// counting/stats/file sinks then see the true graph with no post-hoc
/// dedup pass. The caller owns sink.finish().
inline ChunkStats generate_chunked(const Config& cfg, u64 num_pes, EdgeSink& sink,
                                   u64 threads = 0, pe::ThreadPool* pool = nullptr) {
    if (num_pes == 0) {
        throw std::invalid_argument("kagen::generate_chunked: num_pes must be >= 1");
    }
    if (cfg.chunks_per_pe == 0) {
        throw std::invalid_argument("kagen::generate_chunked: chunks_per_pe must be >= 1");
    }
    validate(cfg); // before any chunk runs

    // Telemetry scope (DESIGN.md §13): arm the recorder and take a metrics
    // base before the run; drain + write after. The guard disarms on every
    // exit path so an exception never leaves the process-global recorder
    // armed for an un-instrumented caller.
    const bool want_obs = !cfg.trace_path.empty() || !cfg.metrics_path.empty();
    obs::Snapshot obs_base;
    struct RecorderGuard {
        bool active = false;
        ~RecorderGuard() {
            if (active) obs::TraceRecorder::global().enable(false);
        }
    } guard;
    if (want_obs) {
        obs_base = obs::Registry::global().snapshot();
        std::vector<obs::TraceEvent> stale;
        obs::TraceRecorder::global().drain(stale); // trace covers this run only
        obs::TraceRecorder::global().enable(true);
        guard.active = true;
    }

    pe::ChunkOptions opt;
    opt.num_pes            = num_pes;
    opt.chunks_per_pe      = cfg.chunks_per_pe;
    opt.total_chunks       = cfg.total_chunks;
    opt.threads            = threads;
    opt.pool               = pool;
    opt.max_buffered_bytes = cfg.max_buffered_bytes;
    opt.spill_path         = cfg.spill_path;
    opt.deal_granularity   = chunk_deal_granularity(cfg);
    const ChunkStats stats = pe::run_chunked(
        opt,
        [&cfg](u64 chunk, u64 num_chunks, EdgeSink& chunk_sink) {
            generate(cfg, chunk, num_chunks, chunk_sink);
        },
        sink);

    if (want_obs) {
        obs::TraceRecorder::global().enable(false);
        guard.active = false;
        if (!cfg.trace_path.empty()) {
            obs::RankTimeline timeline;
            timeline.rank  = 0;
            timeline.label = "rank 0";
            obs::TraceRecorder::global().drain(timeline.events);
            obs::write_chrome_trace(cfg.trace_path, {timeline});
        }
        if (!cfg.metrics_path.empty()) {
            obs::write_metrics_file(
                cfg.metrics_path,
                obs::Registry::global().snapshot().subtract(obs_base));
        }
    }
    return stats;
}

/// Multi-process distributed run (dist/runner.hpp): forks `opts.num_ranks`
/// (0 = 1) worker processes, each
/// generating its contiguous share of the canonical chunk decomposition
/// into a per-rank file — no inter-worker communication, only one report
/// per worker back to the coordinator over a socketpair — then joins the
/// rank files in canonical order. The merged output file is byte-identical to a
/// single-process `generate_chunked` run into a `BinaryFileSink` with the
/// same (P, K) decomposition, and the merged `CountingSummary` /
/// `DegreeStatsSummary` equal the in-process sink statistics exactly.
/// Throws with a descriptive message if any rank fails (no hang, no
/// partial files). See DESIGN.md §8.
inline dist::DistResult generate_distributed(const Config& cfg,
                                             const dist::DistOptions& opts = {}) {
    return dist::run_distributed(cfg, opts);
}

} // namespace kagen
