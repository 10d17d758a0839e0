#include "net/coordinator.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "common/math.hpp"
#include "graph/em_sort.hpp"
#include "kagen.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"

namespace kagen::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error("coordinator: " + what + ": " + std::strerror(errno));
}

/// Receives one frame from the rank and decodes it; EOF, every transport
/// error and every decode error become a failure pinned on the rank.
template <class Decode>
auto recv_message(RankLink& link, u64 rank, int deadline_ms,
                  const char* waiting_for, Decode decode) {
    try {
        std::vector<u8> payload;
        if (!link.sock.recv_frame(payload, deadline_ms)) {
            throw std::runtime_error("connection closed before sending its " +
                                     std::string(waiting_for) +
                                     " (worker died?)");
        }
        return decode(payload);
    } catch (const std::exception& e) {
        throw RankFailure(rank, link.peer, e.what());
    }
}

/// send_frame wrapper that pins a failed send on the rank.
void send_message(RankLink& link, u64 rank, const std::vector<u8>& payload,
                  const char* what) {
    try {
        link.sock.send_frame(payload);
    } catch (const std::exception& e) {
        throw RankFailure(rank, link.peer,
                          std::string("sending ") + what + " failed: " + e.what());
    }
}

/// Test/ops escape hatch: force the local join onto the userspace
/// read/write fallback (pins byte-identity of both paths in CI).
bool copy_file_range_disabled() {
    const char* v = std::getenv("KAGEN_DISABLE_COPY_FILE_RANGE");
    return v != nullptr && *v != '\0' && *v != '0';
}

void write_manifest(const std::string& path, const Config& cfg,
                    const dist::DistResult& result) {
    std::FILE* mf = std::fopen(path.c_str(), "w");
    if (mf == nullptr) throw_errno("cannot open manifest '" + path + "'");
    u64 total_edges = 0;
    for (const auto& e : result.manifest) total_edges += e.edges;
    std::fprintf(mf,
                 "# kagen partitioned output manifest v1\n"
                 "model=%s n=%llu semantics=%s chunks=%llu workers=%llu "
                 "total_edges=%llu\n",
                 model_name(cfg.model), static_cast<unsigned long long>(result.n),
                 semantics_name(cfg.edge_semantics),
                 static_cast<unsigned long long>(result.num_chunks),
                 static_cast<unsigned long long>(result.num_ranks),
                 static_cast<unsigned long long>(total_edges));
    for (const auto& e : result.manifest) {
        std::fprintf(mf,
                     "rank=%llu peer=%s path=%s chunks=[%llu,%llu) "
                     "edges=%llu bytes=%llu\n",
                     static_cast<unsigned long long>(e.rank), e.peer.c_str(),
                     e.path.c_str(), static_cast<unsigned long long>(e.chunk_begin),
                     static_cast<unsigned long long>(e.chunk_end),
                     static_cast<unsigned long long>(e.edges),
                     static_cast<unsigned long long>(e.bytes));
    }
    if (std::fflush(mf) != 0 || std::ferror(mf)) {
        (void)std::fclose(mf); // stream already failed; error in flight
        fileio::unlink_or_warn(path.c_str(), "partial manifest");
        throw_errno("writing manifest '" + path + "' failed");
    }
    // The manifest is the run's deliverable in manifest mode: a close
    // failure after a clean flush (deferred writeback error) must not
    // leave a silently-corrupt file behind.
    if (std::fclose(mf) != 0) {
        fileio::unlink_or_warn(path.c_str(), "partial manifest");
        throw_errno("cannot close manifest '" + path + "'");
    }
}

/// Writes the merged Chrome trace and metrics: one timeline per rank,
/// placed on the coordinator clock by the job-send handshake, plus the
/// coordinator's own.
void write_telemetry(const Config& cfg, std::vector<obs::RankTelemetry>& ranks,
                     obs::RankTelemetry own, const std::vector<u64>& t_job_sent) {
    if (!cfg.trace_path.empty()) {
        std::vector<obs::RankTimeline> timelines;
        timelines.reserve(ranks.size() + 1);
        for (obs::RankTelemetry& t : ranks) {
            obs::RankTimeline tl;
            tl.rank = t.rank;
            // The rank's clock base was stamped (one transfer after) the job
            // send the coordinator timed.
            tl.offset_ns = static_cast<i64>(t_job_sent[t.rank]) -
                           static_cast<i64>(t.clock_base_ns);
            tl.label  = "rank " + std::to_string(t.rank);
            tl.events = std::move(t.events);
            timelines.push_back(std::move(tl));
        }
        obs::RankTimeline coord;
        coord.rank   = t_job_sent.size();
        coord.label  = "coordinator";
        coord.events = std::move(own.events);
        timelines.push_back(std::move(coord));
        obs::write_chrome_trace(cfg.trace_path, timelines);
    }
    if (!cfg.metrics_path.empty()) {
        obs::Snapshot merged = own.metrics;
        for (const obs::RankTelemetry& t : ranks) merged.merge(t.metrics);
        obs::write_metrics_file(cfg.metrics_path, merged);
    }
}

} // namespace

dist::DistResult coordinate(const Config& cfg, const NetOptions& opts,
                            const Transport& transport) {
    if (!opts.output_path.empty() && !opts.manifest_path.empty()) {
        throw std::invalid_argument(
            "coordinator: output_path (gather) and manifest_path "
            "(partitioned) are mutually exclusive");
    }
    if (!opts.dedup_path.empty() && opts.output_path.empty()) {
        throw std::invalid_argument("coordinator: dedup_path requires output_path");
    }
    if (cfg.chunks_per_pe == 0) {
        throw std::invalid_argument("coordinator: chunks_per_pe must be >= 1");
    }
    const u64 R       = transport.num_ranks;
    const u64 pes     = opts.num_pes != 0 ? opts.num_pes : R;
    const u64 threads = opts.threads_per_worker != 0 ? opts.threads_per_worker : 1;

    dist::DistResult result;
    result.n = num_vertices(cfg); // validates the config before any rank exists
    result.num_chunks =
        cfg.total_chunks != 0 ? cfg.total_chunks : cfg.chunks_per_pe * pes;
    result.num_ranks = R;

    const bool gather    = !opts.output_path.empty();
    const bool want_file = gather || !opts.manifest_path.empty();
    const bool stream    = gather && !transport.local_join;
    const bool want_telemetry =
        !cfg.trace_path.empty() || !cfg.metrics_path.empty();

    std::vector<RankLink> links = transport.connect();

    // --- handshake + job fan-out -----------------------------------------
    for (u64 r = 0; r < R; ++r) {
        recv_message(links[r], r, opts.connect_timeout_ms, "hello", decode_hello);
        send_message(links[r], r, encode_hello(), "hello");
    }
    std::vector<u64> t_job_sent(R, 0);
    for (u64 r = 0; r < R; ++r) {
        JobSpec job;
        job.cfg          = cfg;
        job.rank         = r;
        job.num_workers  = R;
        job.num_chunks   = result.num_chunks;
        job.chunk_begin  = block_begin(result.num_chunks, R, r);
        job.chunk_end    = block_begin(result.num_chunks, R, r + 1);
        job.threads      = threads;
        job.want_file    = want_file;
        job.send_file    = stream;
        job.degree_stats = opts.degree_stats;
        job.want_trace   = want_telemetry;
        // The send stamp is the coordinator half of the clock handshake:
        // paired with the rank's receipt stamp it places that rank's
        // timeline on the coordinator clock (the transfer latency shifts the
        // alignment by less than one RTT — fine for a utilization view).
        t_job_sent[r] = obs::monotonic_now();
        send_message(links[r], r, encode_job(job), "job");
    }

    // Arm the coordinator's own telemetry only after `connect`: a forked
    // rank copies this process's recorder, so arming it earlier would hand
    // every child the coordinator's events.
    obs::Snapshot obs_base;
    struct ObsGuard {
        bool active = false;
        ~ObsGuard() {
            if (active) obs::TraceRecorder::global().enable(false);
        }
    } obs_guard;
    if (want_telemetry) {
        obs_base         = obs::begin_rank_telemetry();
        obs_guard.active = true;
    }
    std::vector<obs::RankTelemetry> telemetry;

    // --- collect reports (and files) in rank order ------------------------
    // The merged payloads land behind a placeholder header; the real total
    // is pwritten once every rank arrived. Any failure unlinks the partial
    // file before rethrowing — no partial outputs, ever.
    const bool allow_cfr = !copy_file_range_disabled();
    int out_fd           = -1;
    try {
        if (gather) {
            out_fd = ::open(opts.output_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
            if (out_fd < 0) {
                throw_errno("cannot open output '" + opts.output_path + "'");
            }
            const u64 placeholder = 0;
            fileio::write_all(out_fd, &placeholder, sizeof(placeholder));
        }

        result.ranks.resize(R);
        for (u64 r = 0; r < R; ++r) {
            RankLink& link = links[r];
            auto fail      = [&](const std::string& detail) {
                throw RankFailure(r, link.peer, detail);
            };
            dist::RankReport report = recv_message(
                link, r, opts.job_deadline_ms, "report", decode_report);
            // Validate every field the merge is about to trust.
            if (!report.ok) fail(report.error);
            if (report.rank != r) {
                fail("report carries wrong rank id " + std::to_string(report.rank));
            }
            const u64 lo = block_begin(result.num_chunks, R, r);
            const u64 hi = block_begin(result.num_chunks, R, r + 1);
            if (report.chunk_begin != lo || report.chunk_end != hi) {
                fail("report covers chunks [" + std::to_string(report.chunk_begin) +
                     ", " + std::to_string(report.chunk_end) + "), assigned [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + ")");
            }
            if (report.count.semantics != cfg.edge_semantics) {
                fail("report semantics '" +
                     std::string(semantics_name(report.count.semantics)) +
                     "' do not match the run's '" +
                     semantics_name(cfg.edge_semantics) + "'");
            }
            if (opts.degree_stats && (!report.has_degrees ||
                                      report.degrees.degrees.size() != result.n)) {
                fail("degree summary missing or sized for the wrong n");
            }
            if (want_file && report.file_edges != report.count.num_edges) {
                fail("rank file has " + std::to_string(report.file_edges) +
                     " edges but the rank counted " +
                     std::to_string(report.count.num_edges));
            }

            if (want_telemetry) {
                obs::RankTelemetry t = recv_message(
                    link, r, opts.connect_timeout_ms, "telemetry", decode_telemetry);
                if (t.rank != r) {
                    fail("telemetry carries wrong rank id " + std::to_string(t.rank));
                }
                telemetry.push_back(std::move(t));
            }

            if (stream) {
                const FileHeader header = recv_message(
                    link, r, opts.connect_timeout_ms, "file header",
                    decode_file_header);
                if (header.edges != report.file_edges ||
                    header.payload_bytes != 16 * report.file_edges) {
                    fail("file header announces " + std::to_string(header.edges) +
                         " edges / " + std::to_string(header.payload_bytes) +
                         " bytes, report said " + std::to_string(report.file_edges));
                }
                try {
                    const obs::Span span(obs::Phase::merge, r);
                    link.sock.recv_payload_to(out_fd, header.payload_bytes,
                                              opts.connect_timeout_ms);
                } catch (const std::exception& e) {
                    fail(e.what());
                }
                result.merged_bytes += header.payload_bytes;
            } else if (want_file) {
                const FileInfo info = recv_message(
                    link, r, opts.connect_timeout_ms, "file info", decode_file_info);
                if (info.edges != report.file_edges ||
                    info.bytes != 8 + 16 * report.file_edges) {
                    fail("file info contradicts the report (" +
                         std::to_string(info.edges) + " vs " +
                         std::to_string(report.file_edges) + " edges)");
                }
                if (gather) {
                    // Local join: the rank file is on this host; check it,
                    // append its payload kernel-side, then reclaim it.
                    const obs::Span span(obs::Phase::merge, r);
                    const int fd = fileio::open_rank_file(info.path, info.edges);
                    fileio::CopyStats copied;
                    try {
                        copied = fileio::copy_bytes(fd, out_fd, 16 * info.edges,
                                                    allow_cfr);
                    } catch (const std::exception& e) {
                        fileio::close_or_warn(fd, "rank file (join failed)");
                        throw std::runtime_error("coordinator: joining '" +
                                                 info.path + "': " + e.what());
                    }
                    fileio::close_or_warn(fd, "rank file");
                    if (!transport.keep_rank_files) {
                        fileio::unlink_or_warn(info.path.c_str(), "rank file");
                    }
                    result.merged_bytes += copied.bytes_copied;
                    result.copy_file_range_bytes += copied.cfr_bytes;
                } else {
                    dist::ManifestEntry entry;
                    entry.rank        = r;
                    entry.peer        = link.peer;
                    entry.path        = info.path;
                    entry.chunk_begin = report.chunk_begin;
                    entry.chunk_end   = report.chunk_end;
                    entry.edges       = info.edges;
                    entry.bytes       = info.bytes;
                    result.manifest.push_back(entry);
                }
            }

            result.edges_written += report.file_edges;
            result.seconds = std::max(result.seconds, report.stats.seconds);
            result.peak_buffered_bytes = std::max(result.peak_buffered_bytes,
                                                  report.stats.peak_buffered_bytes);
            result.spilled_chunks += report.stats.spilled_chunks;
            result.spilled_bytes += report.stats.spilled_bytes;
            result.buffers_recycled += report.stats.buffers_recycled;
            result.ranks[r] = std::move(report);
        }

        // --- merge summaries: rank 0 seeds (it carries the semantics/n
        // tags), the rest fold by exact integer addition. Per-rank degree
        // vectors are released once merged — keeping them would make the
        // result O(n·ranks) where only the merged O(n) vector is wanted.
        result.count       = result.ranks[0].count;
        result.has_degrees = opts.degree_stats;
        if (opts.degree_stats) result.degrees = std::move(result.ranks[0].degrees);
        for (u64 r = 1; r < R; ++r) {
            result.count.merge(result.ranks[r].count);
            if (opts.degree_stats) result.degrees.merge(result.ranks[r].degrees);
        }
        for (u64 r = 0; r < R; ++r) {
            std::vector<u64>().swap(result.ranks[r].degrees.degrees);
        }

        if (gather) {
            if (::pwrite(out_fd, &result.edges_written,
                         sizeof(result.edges_written), 0) !=
                static_cast<ssize_t>(sizeof(result.edges_written))) {
                throw_errno("cannot finalize output header");
            }
            // Close outside the catch's reach: close(2) releases the
            // descriptor even when it reports an error.
            const int fd = out_fd;
            out_fd       = -1;
            if (::close(fd) != 0) {
                throw_errno("cannot close output '" + opts.output_path + "'");
            }
        }
    } catch (...) {
        fileio::close_or_warn(out_fd, "merged output (error unwind)");
        if (gather) fileio::unlink_or_warn(opts.output_path.c_str(), "partial output");
        throw;
    }

    if (gather) {
        obs::Registry& reg = obs::Registry::global();
        reg.counter("dist.merged_bytes").add(result.merged_bytes);
        if (transport.local_join) {
            reg.counter("dist.copy_file_range_bytes").add(result.copy_file_range_bytes);
        }
    } else {
        result.edges_written = 0;
    }

    if (!opts.manifest_path.empty()) write_manifest(opts.manifest_path, cfg, result);

    if (!opts.dedup_path.empty()) {
        try {
            const em::SortStats sorted = em::sort_dedup_file(
                opts.output_path, opts.dedup_path, opts.sort_memory);
            result.dedup_edges = sorted.output_edges;
        } catch (...) {
            fileio::unlink_or_warn(opts.dedup_path.c_str(), "partial dedup output");
            throw;
        }
    }

    if (want_telemetry) {
        obs::RankTelemetry own = obs::end_rank_telemetry(R, obs_base);
        obs_guard.active       = false;
        write_telemetry(cfg, telemetry, std::move(own), t_job_sent);
    }
    return result;
}

dist::DistResult run_net_coordinator(const Config& cfg, const NetOptions& opts) {
    const bool listening = !opts.listen.empty() || opts.listener != nullptr;
    if (listening == !opts.connect.empty()) {
        throw std::invalid_argument(
            "net coordinator: exactly one of listen / connect must be set");
    }
    if (listening && opts.expect_workers == 0) {
        throw std::invalid_argument(
            "net coordinator: listen mode requires expect_workers >= 1");
    }
    if (!opts.connect.empty() && opts.expect_workers != 0 &&
        opts.expect_workers != opts.connect.size()) {
        throw std::invalid_argument(
            "net coordinator: expect_workers (" +
            std::to_string(opts.expect_workers) + ") contradicts the " +
            std::to_string(opts.connect.size()) + " connect endpoints");
    }

    Transport tcp;
    tcp.num_ranks = !opts.connect.empty() ? opts.connect.size() : opts.expect_workers;
    tcp.connect   = [&opts, W = tcp.num_ranks] {
        std::vector<RankLink> links(W);
        std::unique_ptr<Listener> owned;
        Listener* listener = opts.listener;
        if (opts.connect.empty() && listener == nullptr) {
            owned    = std::make_unique<Listener>(parse_endpoint(opts.listen));
            listener = owned.get();
        }
        for (u64 w = 0; w < W; ++w) {
            try {
                links[w].sock = !opts.connect.empty()
                                    ? connect_to(parse_endpoint(opts.connect[w]),
                                                 opts.connect_timeout_ms)
                                    : listener->accept(opts.connect_timeout_ms);
            } catch (const std::exception& e) {
                throw std::runtime_error(
                    "net coordinator: worker " + std::to_string(w) + " of " +
                    std::to_string(W) +
                    (opts.connect.empty() ? " never connected: " : ": ") + e.what());
            }
            links[w].peer = links[w].sock.peer();
        }
        return links;
    };
    return coordinate(cfg, opts, tcp);
}

} // namespace kagen::net
