/// \file coordinator.hpp
/// \brief The one coordinator of a distributed run, for forked and TCP
///        ranks alike.
///
/// `coordinate` is everything a coordinator does once it can reach its
/// ranks: it assigns each of R ranks the contiguous `block_begin` slice of
/// the canonical C-chunk decomposition, lets every rank generate its share
/// with zero rank↔rank communication (the rank side is
/// `net::run_worker_session`, net/worker.hpp), validates and merges the
/// per-rank reports, and assembles the output in canonical rank order — so
/// the result is byte-identical to a single-process `generate_chunked` run
/// for every (ranks, P, K) × semantics combination, whichever transport
/// carried it. Two transports feed it:
///
///  * **socketpair** — `dist::run_distributed` (dist/runner.hpp) forks one
///    child per rank and hands the core its ends of AF_UNIX socketpairs;
///  * **TCP** — `run_net_coordinator` below accepts W dial-ins or dials W
///    listening workers, with connect/accept timeouts.
///
/// Three output shapes: a *local join* (forked ranks keep their rank files
/// on this host; the core concatenates them with copy_file_range), a
/// *streamed gather* (TCP workers stream their rank files back), and a
/// *manifest* (TCP workers keep their node-local rank files and the
/// coordinator writes a text manifest naming every piece — the
/// small-cluster deployment shape of Gupta's external-memory distributed
/// generation, PAPERS.md). The transport picks the join; `output_path` vs
/// `manifest_path` picks gather vs manifest.
///
/// One failure contract: every report is validated (rank id, chunk-range
/// echo against the assignment, semantics, degree size, file edge counts),
/// TCP receives carry deadlines (a dead forked rank reads as EOF at once),
/// and the first failure throws a
/// `RankFailure` naming the rank — no hang, and a failed run leaves no
/// partial output file behind. See DESIGN.md §8 for the wire format and
/// failure semantics.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/runner.hpp"
#include "net/socket.hpp"

namespace kagen {

struct Config; // kagen.hpp (which includes this header after defining it)

namespace net {

struct NetOptions {
    /// Exactly one of `listen` / `connect` selects how workers are reached:
    /// `listen` = "host:port" (":port" = every interface) accepts
    /// `expect_workers` dial-ins; `connect` dials each listed worker
    /// ("host:port" each, workers running `-worker :port`). Ranks are
    /// assigned in accept/connect order.
    std::string listen;
    std::vector<std::string> connect;
    u64 expect_workers = 0; ///< required with `listen`; with `connect` it
                            ///< must match connect.size() (or stay 0)

    u64 num_pes = 0; ///< simulated PEs P of the decomposition (C = K·P
                     ///< unless Config::total_chunks pins it); 0 = worker
                     ///< count. The graph depends only on C.
    u64 threads_per_worker = 1; ///< pool threads inside each worker

    std::string output_path;   ///< gather mode: merged binary edge file
    std::string manifest_path; ///< partitioned mode: workers keep their rank
                               ///< files; this text manifest names them.
                               ///< Mutually exclusive with output_path.
    bool degree_stats = false; ///< also collect + merge per-vertex degrees

    std::string dedup_path; ///< non-empty: em::sort_dedup_file over the
                            ///< gathered output into this file
    u64 sort_memory = u64{64} << 20;

    int connect_timeout_ms = 10000; ///< accept/connect + handshake + the
                                    ///< post-report file transfer deadline
    int job_deadline_ms = 0; ///< per-worker report deadline, covering the
                             ///< generation itself; 0 = wait forever (a
                             ///< *dead* worker still errors immediately via
                             ///< EOF — this bounds a live-but-hung one)

    /// Test hook: accept on this pre-bound listener instead of binding
    /// `listen` (lets tests use an ephemeral port). `expect_workers` still
    /// sizes the run.
    Listener* listener = nullptr;
};

/// One rank's connection to the coordinator.
struct RankLink {
    Socket sock;
    std::string peer; ///< how errors and the manifest name the rank:
                      ///< "ip:port" over TCP, "pid N" for a forked rank
};

/// What a transport hands the coordinator core.
struct Transport {
    u64 num_ranks = 0;
    /// Reaches every rank, in rank order. Runs after the core has checked
    /// the options and the config, so an invalid run never forks or binds.
    std::function<std::vector<RankLink>()> connect;
    /// The rank files live on this host (forked ranks): a gathered output
    /// joins them with fileio::copy_bytes instead of having them streamed.
    bool local_join = false;
    bool keep_rank_files = false; ///< local join: keep the joined rank files
};

/// A failure the coordinator pins on one rank. `what()` reads
/// "coordinator: rank 2 (10.0.0.7:41210): <detail>"; `rank` and `detail`
/// let a transport say what else it knows about that rank (the fork
/// backend adds the child's wait status).
class RankFailure : public std::runtime_error {
public:
    RankFailure(u64 rank, const std::string& peer, const std::string& detail)
        : std::runtime_error("coordinator: rank " + std::to_string(rank) + " (" +
                             peer + "): " + detail),
          rank(rank), detail(detail) {}

    u64 rank;
    std::string detail;
};

/// Runs `cfg`'s graph on the ranks `transport` reaches and merges their
/// outputs; see the file comment. Of `opts` it reads the run shape
/// (num_pes, threads_per_worker, output_path / manifest_path, degree_stats,
/// dedup_path, sort_memory) and the deadlines. Throws
/// std::invalid_argument on option conflicts before `transport.connect`
/// runs, and RankFailure (or std::runtime_error for coordinator-side I/O)
/// on any failure.
dist::DistResult coordinate(const Config& cfg, const NetOptions& opts,
                            const Transport& transport);

/// The TCP transport: reaches the workers `opts` describes (listen or
/// connect) and runs `coordinate` on them. Throws std::invalid_argument on
/// option conflicts and std::runtime_error naming the rank on any worker or
/// transport failure.
dist::DistResult run_net_coordinator(const Config& cfg, const NetOptions& opts);

} // namespace net
} // namespace kagen
