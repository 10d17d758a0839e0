#include "net/worker.hpp"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <stdexcept>

#include <limits.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "dist/ipc.hpp"
#include "kagen.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"

namespace kagen::net {
namespace {

/// Distinguishes concurrent workers inside one process (tests run several
/// worker threads); the pid alone covers concurrent processes.
std::atomic<u64> g_job_counter{0};

std::string absolute_path(const std::string& path) {
    char buf[PATH_MAX];
    if (::realpath(path.c_str(), buf) != nullptr) return buf;
    return path; // diagnostics-quality fallback; the file provably exists
}

} // namespace

int run_net_worker(const std::string& endpoint_spec,
                   const NetWorkerOptions& opt) {
    const Endpoint ep = parse_endpoint(endpoint_spec);
    Socket sock;
    if (ep.host.empty()) {
        Listener listener(ep);
        sock = listener.accept(opt.connect_timeout_ms);
    } else {
        sock = connect_to(ep, opt.connect_timeout_ms);
    }
    return run_worker_session(sock, opt,
                              fileio::scratch_dir(opt.scratch_dir) + "/kagen_net." +
                                  std::to_string(::getpid()) + "." +
                                  std::to_string(g_job_counter.fetch_add(1)) +
                                  ".rank");
}

int run_worker_session(Socket& sock, const NetWorkerOptions& opt,
                       const std::string& rank_file_prefix) {
    // A coordinator that died mid-conversation must surface as an EPIPE
    // error, not kill the worker with SIGPIPE. MSG_NOSIGNAL covers frame
    // sends; the rank-file stream goes through plain write(2) in
    // fileio::copy_bytes.
    ::signal(SIGPIPE, SIG_IGN);

    // Two-way hello before any state exists on either side.
    sock.send_frame(encode_hello());
    std::vector<u8> payload;
    if (!sock.recv_frame(payload, opt.connect_timeout_ms)) {
        throw std::runtime_error(
            "net worker: coordinator closed the connection during handshake");
    }
    decode_hello(payload);

    if (!sock.recv_frame(payload, opt.io_deadline_ms)) {
        throw std::runtime_error(
            "net worker: coordinator closed the connection before sending a job");
    }
    const JobSpec job = decode_job(payload);
    // Clock handshake: this stamp pairs with the coordinator's job-send
    // timestamp to place this rank's timeline on the coordinator clock
    // (offset = t_sent − clock_base; DESIGN.md §13). Taken unconditionally —
    // it is one clock read and keeps the stamp as close to the job frame's
    // arrival as possible.
    const u64 clock_base_ns = obs::monotonic_now();
    obs::Snapshot obs_base;
    if (job.want_trace) obs_base = obs::begin_rank_telemetry();

    std::string rank_path;
    if (job.want_file) {
        rank_path = rank_file_prefix + std::to_string(job.rank) + ".bin";
    }

    dist::RankReport report;
    report.rank        = job.rank;
    report.chunk_begin = job.chunk_begin;
    report.chunk_end   = job.chunk_end;
    try {
        if (opt.rank_hook) opt.rank_hook(job.rank);
        dist::RankJob rj;
        rj.rank         = job.rank;
        rj.num_chunks   = job.num_chunks;
        rj.chunk_begin  = job.chunk_begin;
        rj.chunk_end    = job.chunk_end;
        rj.threads      = job.threads;
        rj.degree_stats = job.degree_stats;
        rj.rank_path    = rank_path;
        report = dist::execute_rank_job(job.cfg, rj);
    } catch (const std::exception& e) {
        report.ok    = false;
        report.error = e.what();
    } catch (...) {
        report.ok    = false;
        report.error = "unknown exception";
    }

    // Disarm the recorder before any send can throw: a worker thread shared
    // with a test harness must never leave recording enabled behind.
    obs::RankTelemetry telemetry;
    if (job.want_trace) {
        telemetry               = obs::end_rank_telemetry(job.rank, obs_base);
        telemetry.clock_base_ns = clock_base_ns;
    }

    if (!report.ok) {
        fileio::unlink_or_warn(rank_path.c_str(), "partial rank file");
    }

    sock.send_frame(encode_report(report));
    // Telemetry follows the report even on failure so the byte stream stays
    // aligned with what the coordinator was told to expect.
    if (job.want_trace) sock.send_frame(encode_telemetry(telemetry));
    if (!report.ok) return 1;
    if (!job.want_file) return 0;

    // Validate the rank file against the report before any byte of it is
    // announced: a file that disagrees with its own count fails here,
    // naming the file, instead of at the coordinator.
    const int fd = fileio::open_rank_file(rank_path, report.file_edges);
    if (!job.send_file) {
        // Manifest shape: keep the rank file, report where it is.
        fileio::close_or_warn(fd, "rank file"); // open only for the validation
        FileInfo info;
        info.path  = absolute_path(rank_path);
        info.edges = report.file_edges;
        info.bytes = 8 + 16 * report.file_edges;
        sock.send_frame(encode_file_info(info));
        return 0;
    }
    // Gather: announce, stream the payload (header stripped — the
    // coordinator writes one global header), discard.
    try {
        FileHeader header;
        header.edges         = report.file_edges;
        header.payload_bytes = 16 * report.file_edges;
        sock.send_frame(encode_file_header(header));
        sock.send_payload_from(fd, header.payload_bytes);
    } catch (...) {
        fileio::close_or_warn(fd, "rank file (stream failed)");
        fileio::unlink_or_warn(rank_path.c_str(), "rank file");
        throw;
    }
    // Read-only fd over already-durable data: close cannot fail in a way
    // that matters; the unlink reclaims the gathered temp file.
    fileio::close_or_warn(fd, "rank file");
    fileio::unlink_or_warn(rank_path.c_str(), "rank file");
    return 0;
}

} // namespace kagen::net
