#include "dist/runner.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "kagen.hpp"
#include "net/coordinator.hpp"
#include "net/worker.hpp"

namespace kagen::dist {
namespace {

/// Distinguishes concurrent distributed runs of one coordinator process in
/// the rank-file names (the pid alone covers concurrent processes).
std::atomic<u64> g_run_counter{0};

/// Worker-side fan-out sink: forwards every batch to the rank's binary file
/// (when writing one) and to the local statistics sinks. With a file the
/// stream must be ordered (canonical chunk order is what makes rank-file
/// concatenation byte-identical to the single-process run); without one the
/// statistics sinks take concurrent delivery themselves, so the engine can
/// stream fully parallel.
class RankSink final : public EdgeSink {
public:
    RankSink(BinaryFileSink* file, CountingSink& count, DegreeStatsSink* degrees)
        : file_(file), count_(count), degrees_(degrees) {}

    bool ordered() const override { return file_ != nullptr; }

protected:
    void consume(const Edge* edges, std::size_t count) override {
        if (file_ != nullptr) file_->deliver(edges, count);
        count_.deliver(edges, count);
        if (degrees_ != nullptr) degrees_->deliver(edges, count);
    }

private:
    BinaryFileSink* file_;
    CountingSink& count_;
    DegreeStatsSink* degrees_;
};

/// Human-readable death cause from a waitpid status.
std::string describe_status(int status) {
    if (WIFEXITED(status)) {
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        return "killed by signal " + std::to_string(sig) + " (" +
               strsignal(sig) + ")";
    }
    return "ended with unrecognized wait status " + std::to_string(status);
}

int wait_for(pid_t pid) {
    int status = 0;
    for (;;) {
        if (::waitpid(pid, &status, 0) >= 0) return status;
        if (errno != EINTR) {
            throw std::runtime_error(std::string("generate_distributed: waitpid "
                                                 "failed: ") +
                                     std::strerror(errno));
        }
    }
}

/// The forked half of the socketpair transport: creates rank r's pair,
/// forks, and runs the worker session in the child, which never returns —
/// it leaves via _exit so it cannot run the coordinator's atexit handlers
/// or flush inherited stdio buffers twice.
net::RankLink fork_rank(const Config& cfg, const DistOptions& opt, u64 r,
                        const std::string& rank_prefix,
                        std::vector<net::RankLink>& earlier,
                        std::vector<pid_t>& pids) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
        throw std::runtime_error("generate_distributed: socketpair failed for "
                                 "rank " + std::to_string(r) + ": " +
                                 std::strerror(errno));
    }
    net::RankLink link;
    link.sock = net::Socket(fds[0]);
    net::Socket child(fds[1]);
    const pid_t pid = ::fork();
    if (pid == 0) {
        // Drop every coordinator end this child inherited, its own
        // included, so a coordinator that closes its end makes the child's
        // sends fail with EPIPE instead of blocking forever.
        for (net::RankLink& l : earlier) l.sock.close();
        link.sock.close();
        int code = 1;
        try {
            net::NetWorkerOptions wopt;
            wopt.connect_timeout_ms = 0; // a dead local coordinator reads as EOF
            wopt.rank_hook          = opt.rank_hook;
            code = net::run_worker_session(child, wopt, rank_prefix, &cfg);
        } catch (...) {
            code = 1; // coordinator gone; nothing left to report to
        }
        ::_exit(code);
    }
    if (pid < 0) {
        throw std::runtime_error("generate_distributed: fork failed for rank " +
                                 std::to_string(r) + ": " + std::strerror(errno));
    }
    pids.push_back(pid);
    link.peer = "pid " + std::to_string(pid);
    return link; // `child` closes here: a dead rank reads as EOF
}

} // namespace

RankReport execute_rank_job(const Config& cfg, const RankJob& job) {
    RankReport report;
    report.rank        = job.rank;
    report.chunk_begin = job.chunk_begin;
    report.chunk_end   = job.chunk_end;

    std::unique_ptr<BinaryFileSink> file;
    if (!job.rank_path.empty()) {
        file = std::make_unique<BinaryFileSink>(
            job.rank_path, static_cast<std::size_t>(cfg.sink_buffer_edges));
    }
    CountingSink count(cfg.edge_semantics);
    std::unique_ptr<DegreeStatsSink> degrees;
    if (job.degree_stats) {
        degrees = std::make_unique<DegreeStatsSink>(num_vertices(cfg),
                                                    cfg.edge_semantics);
    }
    RankSink sink(file.get(), count, degrees.get());

    if (job.chunk_begin < job.chunk_end) {
        pe::ChunkOptions copt;
        copt.total_chunks       = job.num_chunks;
        copt.num_pes            = 1; // decomposition pinned by total_chunks
        copt.chunks_per_pe      = 1;
        copt.chunk_begin        = job.chunk_begin;
        copt.chunk_end          = job.chunk_end;
        copt.max_buffered_bytes = cfg.max_buffered_bytes;
        copt.arena_slab_bytes   = cfg.arena_slab_bytes;
        copt.pin_threads        = cfg.pin_threads;
        copt.deal_granularity   = chunk_deal_granularity(cfg);
        if (!cfg.spill_path.empty()) {
            // Each rank needs its own scratch file, not a shared name.
            copt.spill_path = cfg.spill_path + ".rank" + std::to_string(job.rank);
        }
        // A forked child must never run a parallel section on a pool born in
        // another process, and a TCP worker wants its pool sized to the job:
        // threads == 1 keeps run_chunked on the inline path; more threads
        // get a pool born in *this* process, scoped to this job.
        std::unique_ptr<pe::ThreadPool> pool;
        copt.threads = std::max<u64>(job.threads, 1);
        if (copt.threads > 1) {
            pool      = std::make_unique<pe::ThreadPool>(copt.threads - 1);
            copt.pool = pool.get();
        }
        report.stats = pe::run_chunked(
            copt,
            [&cfg](u64 chunk, u64 total, EdgeSink& chunk_sink) {
                generate(cfg, chunk, total, chunk_sink);
            },
            sink);
    }

    sink.finish();
    if (file) {
        file->finish();
        report.file_edges = file->num_edges();
    }
    count.finish();
    if (degrees) degrees->finish();
    report.count = count.summarize();
    if (degrees) {
        report.has_degrees = true;
        report.degrees     = degrees->summarize();
    }
    return report;
}

DistResult run_distributed(const Config& cfg, const DistOptions& opts) {
    net::NetOptions plan;
    plan.num_pes            = opts.num_pes;
    plan.threads_per_worker = opts.threads_per_rank;
    plan.output_path        = opts.output_path;
    plan.degree_stats       = opts.degree_stats;
    plan.dedup_path         = opts.dedup_path;
    plan.sort_memory        = opts.sort_memory;
    plan.connect_timeout_ms = 0; // local ranks: a dead one reads as EOF at once

    const u64 ranks = opts.num_ranks != 0 ? opts.num_ranks : 1;
    const std::string rank_prefix =
        fileio::scratch_dir(opts.scratch_dir) + "/kagen_dist." +
        std::to_string(::getpid()) + "." +
        std::to_string(g_run_counter.fetch_add(1)) + ".rank";
    std::vector<pid_t> pids;

    net::Transport fork;
    fork.num_ranks       = ranks;
    fork.local_join      = true;
    fork.keep_rank_files = opts.keep_rank_files;
    fork.connect         = [&] {
        // Flush stdio first: the children inherit the parent's FILE
        // buffers, and although they always leave via _exit (which does not
        // flush), any library printf inside a rank must not re-emit
        // buffered coordinator output.
        std::fflush(stdout);
        std::fflush(stderr);
        std::vector<net::RankLink> links;
        for (u64 r = 0; r < ranks; ++r) {
            links.push_back(fork_rank(cfg, opts, r, rank_prefix, links, pids));
        }
        return links;
    };

    // Reaps every child. After a failure every rank but `failed` is killed
    // first (the failed rank is left to exit, so its wait status tells what
    // happened) and the rank files the coordinator did not join are
    // removed. Returns "rank r <wait status>" for the failed rank, or for
    // the first rank that did not exit cleanly.
    auto reap = [&](bool failure, u64 failed) {
        for (u64 r = 0; r < pids.size(); ++r) {
            if (failure && r != failed) ::kill(pids[r], SIGKILL);
        }
        std::string described;
        for (u64 r = 0; r < pids.size(); ++r) {
            const int status = wait_for(pids[r]);
            const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
            if ((failure ? r == failed : !clean) && described.empty()) {
                described = "rank " + std::to_string(r) + " " + describe_status(status);
            }
        }
        if (failure && !opts.keep_rank_files) {
            for (u64 r = 0; r < ranks; ++r) {
                const std::string path = rank_prefix + std::to_string(r) + ".bin";
                fileio::unlink_or_warn(path.c_str(), "rank file");
            }
        }
        return described;
    };

    DistResult result;
    try {
        result = net::coordinate(cfg, plan, fork);
    } catch (const net::RankFailure& f) {
        throw std::runtime_error("generate_distributed: " + reap(true, f.rank) +
                                 ": " + f.detail);
    } catch (...) {
        reap(true, ranks); // no rank to spare: kill them all
        throw;
    }
    const std::string failure = reap(false, 0);
    if (!failure.empty()) {
        // A rank whose report and file arrived intact but which then died
        // still fails the run: its exit status is part of the contract.
        fileio::unlink_or_warn(opts.output_path.c_str(), "merged output");
        fileio::unlink_or_warn(opts.dedup_path.c_str(), "dedup output");
        throw std::runtime_error("generate_distributed: " + failure);
    }
    return result;
}

} // namespace kagen::dist
