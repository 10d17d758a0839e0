/// \file worker.hpp
/// \brief The worker side of a distributed run: one connection, one job,
///        one report — then exit.
///
/// `run_worker_session` is the whole conversation a rank has with the
/// coordinator (net/coordinator.hpp), on a socket that is already
/// connected: it handshakes, receives one serialized job, runs
/// `dist::execute_rank_job`, and sends back the framed RankReport, the
/// optional telemetry, and then the rank file — streamed (gather) or kept
/// and named by a file-info message (manifest, and the forked backend,
/// whose coordinator joins the files itself). Forked ranks
/// (dist/runner.hpp) run it on their end of a socketpair; `run_net_worker`,
/// everything behind `kagen_tool -worker host:port`, runs it after reaching
/// the coordinator over TCP (dialing "host:port", or — with an empty host,
/// ":port" — listening for the coordinator to dial in, the `-connect`
/// counterpart). One session for both transports is why their outputs are
/// byte-identical. A job that throws is reported as a failure frame
/// (ok == false with the message), so the coordinator can name the rank;
/// only then does the worker exit nonzero. Transport failures (coordinator
/// gone, torn frame, deadline) throw for the caller to print.
#pragma once

#include <functional>
#include <string>

#include "common/types.hpp"
#include "net/socket.hpp"

namespace kagen::net {

struct NetWorkerOptions {
    std::string scratch_dir;       ///< rank-file location; empty = $TMPDIR
    int connect_timeout_ms = 10000; ///< connect/accept + handshake deadline
    int io_deadline_ms     = 0;     ///< job-frame receive deadline; 0 = none
                                    ///< (the coordinator sends jobs only
                                    ///< after every worker connected, so
                                    ///< this waits on the slowest peer)

    /// Test instrumentation: invoked with the assigned rank after the job
    /// decodes, before any generation (a forked rank runs
    /// DistOptions::rank_hook here).
    std::function<void(u64 rank)> rank_hook;
};

/// Runs one worker against `endpoint_spec` ("host:port" to dial the
/// coordinator, ":port" to listen for it). Returns the process exit code
/// (0 = job succeeded, 1 = job failed but was reported); throws
/// std::runtime_error on transport failures.
int run_net_worker(const std::string& endpoint_spec,
                   const NetWorkerOptions& opts = {});

/// Runs one worker session on the connected `sock` (see the file comment).
/// The rank file, if the job asks for one, is `rank_file_prefix + <rank> +
/// ".bin"`. The job runs the Config decoded from the job frame, on both
/// transports: a forked rank ignores the copy it shares with its
/// coordinator by memory image, so the encoding is the whole job contract.
/// Same return and throw contract as `run_net_worker`.
int run_worker_session(Socket& sock, const NetWorkerOptions& opts,
                       const std::string& rank_file_prefix);

} // namespace kagen::net
