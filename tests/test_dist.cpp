// Distributed backend: multi-process byte-identity against the in-process
// chunked engine, merged-stats exactness, worker failure propagation (no
// hang, no partial files, no leftover children), the coordinator leaving
// the process's signal handling alone, chunk-range scheduling, and the
// O_CLOEXEC descriptor hygiene that keeps exec'd children off the
// coordinator's files.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "graph/io.hpp"
#include "kagen.hpp"
#include "net/coordinator.hpp"
#include "net/worker.hpp"
#include "sink/spill.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

std::string tmp_path(const std::string& name) {
    return ::testing::TempDir() + "kagen_dist_" + std::to_string(::getpid()) +
           "_" + name;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool file_exists(const std::string& path) {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

Config model_config(Model model) {
    Config cfg;
    cfg.model = model;
    cfg.n     = 1500;
    cfg.seed  = 7;
    switch (model) {
        case Model::GnmDirected:
        case Model::GnmUndirected:
            cfg.m = 9000;
            break;
        case Model::Rgg2D:
            cfg.r = 0.05;
            break;
        case Model::Rhg:
        case Model::RhgStreaming:
            cfg.avg_deg = 6.0;
            cfg.gamma   = 2.8;
            break;
        default:
            break;
    }
    return cfg;
}

/// Single-process reference: generate_chunked into a BinaryFileSink.
std::string single_process_file(const Config& cfg, u64 pes, const std::string& tag) {
    const std::string path = tmp_path(tag + ".ref.bin");
    BinaryFileSink sink(path);
    generate_chunked(cfg, pes, sink);
    sink.finish();
    return path;
}

// ---------------------------------------------------------------------------
// Byte-identity: multi-process output == single-process output
// ---------------------------------------------------------------------------

class DistByteIdentity : public ::testing::TestWithParam<Model> {};

// The acceptance matrix of the subsystem: >= 3 models x ranks {1, 2, 4} x
// K {1, 3}, merged file byte-identical to the single-process chunked run.
TEST_P(DistByteIdentity, MatchesSingleProcessAcrossRanksAndK) {
    const Model model = GetParam();
    const u64 pes     = 4; // decomposition P, shared by both sides
    for (const u64 k : {u64{1}, u64{3}}) {
        Config cfg        = model_config(model);
        cfg.chunks_per_pe = k;
        const std::string tag =
            std::string(model_name(model)) + "_k" + std::to_string(k);
        const std::string ref_path = single_process_file(cfg, pes, tag);
        const std::string ref      = read_bytes(ref_path);
        ASSERT_GE(ref.size(), 8u);
        for (const u64 ranks : {u64{1}, u64{2}, u64{4}}) {
            dist::DistOptions opts;
            opts.num_ranks   = ranks;
            opts.num_pes     = pes;
            opts.output_path = tmp_path(tag + "_r" + std::to_string(ranks) + ".bin");
            const dist::DistResult res = generate_distributed(cfg, opts);
            EXPECT_EQ(res.num_ranks, ranks);
            EXPECT_EQ(res.num_chunks, k * pes);
            EXPECT_EQ(read_bytes(opts.output_path), ref)
                << model_name(model) << " ranks=" << ranks << " K=" << k;
            EXPECT_EQ(res.edges_written * 16 + 8, ref.size());
            std::remove(opts.output_path.c_str());
        }
        std::remove(ref_path.c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(Models, DistByteIdentity,
                         ::testing::Values(Model::GnmDirected, Model::GnmUndirected,
                                           Model::Rgg2D, Model::RhgStreaming));

TEST(Dist, ExactOnceSemanticsStayByteIdentical) {
    // The ownership filters are per-chunk pure functions; process isolation
    // must not change the exact-once stream either.
    Config cfg         = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe  = 3;
    cfg.edge_semantics = EdgeSemantics::exact_once;
    const std::string ref_path = single_process_file(cfg, 4, "exact_once");
    dist::DistOptions opts;
    opts.num_ranks   = 3;
    opts.num_pes     = 4;
    opts.output_path = tmp_path("exact_once_dist.bin");
    generate_distributed(cfg, opts);
    EXPECT_EQ(read_bytes(opts.output_path), read_bytes(ref_path));
    std::remove(opts.output_path.c_str());
    std::remove(ref_path.c_str());
}

TEST(Dist, MoreRanksThanChunksLeavesEmptyRanks) {
    Config cfg        = model_config(Model::GnmDirected);
    cfg.chunks_per_pe = 1;
    cfg.total_chunks  = 2; // ranks 2..4 own empty chunk ranges
    const std::string ref_path = single_process_file(cfg, 2, "fewchunks");
    dist::DistOptions opts;
    opts.num_ranks   = 5;
    opts.num_pes     = 2;
    opts.output_path = tmp_path("fewchunks_dist.bin");
    const dist::DistResult res = generate_distributed(cfg, opts);
    EXPECT_EQ(read_bytes(opts.output_path), read_bytes(ref_path));
    ASSERT_EQ(res.ranks.size(), 5u);
    EXPECT_EQ(res.ranks[4].chunk_begin, res.ranks[4].chunk_end);
    EXPECT_EQ(res.ranks[4].file_edges, 0u);
    std::remove(opts.output_path.c_str());
    std::remove(ref_path.c_str());
}

TEST(Dist, PinnedTotalChunksIndependentOfRankCount) {
    Config cfg       = model_config(Model::Rgg2D);
    cfg.total_chunks = 10; // decomposition pinned: every (ranks, P) agrees
    const std::string ref_path = single_process_file(cfg, 3, "pinned");
    for (const u64 ranks : {u64{2}, u64{4}}) {
        dist::DistOptions opts;
        opts.num_ranks   = ranks;
        opts.num_pes     = 7; // irrelevant under pinned total_chunks
        opts.output_path = tmp_path("pinned_r" + std::to_string(ranks) + ".bin");
        generate_distributed(cfg, opts);
        EXPECT_EQ(read_bytes(opts.output_path), read_bytes(ref_path));
        std::remove(opts.output_path.c_str());
    }
    std::remove(ref_path.c_str());
}

// ---------------------------------------------------------------------------
// Merged coordinator stats == in-process sink stats
// ---------------------------------------------------------------------------

TEST(Dist, MergedStatsEqualInProcessSinks) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 3;

    CountingSink count(cfg.edge_semantics);
    generate_chunked(cfg, 5, count);
    count.finish();
    DegreeStatsSink degrees(num_vertices(cfg), cfg.edge_semantics);
    generate_chunked(cfg, 5, degrees);
    degrees.finish();

    dist::DistOptions opts;
    opts.num_ranks    = 4;
    opts.num_pes      = 5;
    opts.degree_stats = true;
    const dist::DistResult res = generate_distributed(cfg, opts);

    EXPECT_EQ(res.count, count.summarize());
    EXPECT_EQ(res.count.str(), count.summary());
    ASSERT_TRUE(res.has_degrees);
    EXPECT_EQ(res.degrees, degrees.summarize());
    EXPECT_EQ(res.degrees.str(), degrees.summary());
    EXPECT_EQ(res.degrees.degrees, degrees.degrees()); // per-vertex, exact
}

TEST(Dist, ExactOnceMergedCountMatchesUnion) {
    // Distributed exact-once totals equal the canonical edge set size.
    Config cfg         = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe  = 2;
    cfg.edge_semantics = EdgeSemantics::exact_once;
    const u64 C        = 2 * 4;
    const auto per_chunk  = testing::per_pe(cfg, C);
    Config as_gen         = cfg;
    as_gen.edge_semantics = EdgeSemantics::as_generated;
    const auto legacy     = testing::per_pe(as_gen, C);
    const u64 canonical = pe::union_undirected(legacy).size();

    dist::DistOptions opts;
    opts.num_ranks = 4;
    opts.num_pes   = 4;
    const dist::DistResult res = generate_distributed(cfg, opts);
    EXPECT_EQ(res.count.num_edges, canonical);
    u64 streamed = 0;
    for (const auto& part : per_chunk) streamed += part.size();
    EXPECT_EQ(res.count.num_edges, streamed);
}

// ---------------------------------------------------------------------------
// Optional dedup pass over the merged output
// ---------------------------------------------------------------------------

TEST(Dist, DedupPassMatchesUnionUndirected) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    const u64 C       = 2 * 3;
    const auto per_chunk    = testing::per_pe(cfg, C);
    const EdgeList expected = pe::union_undirected(per_chunk);

    dist::DistOptions opts;
    opts.num_ranks   = 3;
    opts.num_pes     = 3;
    opts.output_path = tmp_path("dedup_raw.bin");
    opts.dedup_path  = tmp_path("dedup_out.bin");
    const dist::DistResult res = generate_distributed(cfg, opts);
    EXPECT_EQ(res.dedup_edges, expected.size());
    EXPECT_EQ(io::read_edge_list_binary(opts.dedup_path), expected);
    std::remove(opts.output_path.c_str());
    std::remove(opts.dedup_path.c_str());
}

// ---------------------------------------------------------------------------
// Worker failure propagation: descriptive error, no hang, no partial files
// ---------------------------------------------------------------------------

/// The coordinator must have killed and reaped every child it forked:
/// waitpid(-1) then finds no child at all.
void expect_no_children(const std::string& tag) {
    int status = 0;
    errno      = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << tag << ": child left behind";
    EXPECT_EQ(errno, ECHILD) << tag;
}

/// Runs a failing distributed job with a dedicated scratch dir and returns
/// the thrown message; asserts no file (rank scratch or output) and no
/// child process survives.
std::string run_failing(Config cfg, dist::DistOptions opts,
                        const std::string& tag) {
    const std::string scratch = tmp_path(tag + "_scratch");
    if (::mkdir(scratch.c_str(), 0755) != 0) {
        ADD_FAILURE() << "mkdir " << scratch << ": " << std::strerror(errno);
        return {};
    }
    opts.scratch_dir = scratch;
    opts.output_path = tmp_path(tag + "_out.bin");
    std::string message;
    try {
        generate_distributed(cfg, opts);
        ADD_FAILURE() << tag << ": expected generate_distributed to throw";
    } catch (const std::runtime_error& e) {
        message = e.what();
    }
    EXPECT_FALSE(file_exists(opts.output_path)) << tag << ": partial output left";
    // The scratch dir must be empty again: rmdir fails on leftovers.
    EXPECT_EQ(::rmdir(scratch.c_str()), 0)
        << tag << ": rank files left behind in " << scratch;
    std::remove(opts.output_path.c_str());
    expect_no_children(tag);
    return message;
}

TEST(DistFailure, WorkerExceptionPropagatesItsMessage) {
    Config cfg        = model_config(Model::GnmDirected);
    cfg.chunks_per_pe = 2;
    dist::DistOptions opts;
    opts.num_ranks = 3;
    opts.rank_hook = [](u64 rank) {
        if (rank == 1) throw std::runtime_error("injected fault in rank 1");
    };
    const std::string message = run_failing(cfg, opts, "throw");
    EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
    EXPECT_NE(message.find("injected fault in rank 1"), std::string::npos) << message;
}

TEST(DistFailure, WorkerNonzeroExitIsDescribed) {
    Config cfg        = model_config(Model::GnmDirected);
    cfg.chunks_per_pe = 2;
    dist::DistOptions opts;
    opts.num_ranks = 4;
    opts.rank_hook = [](u64 rank) {
        if (rank == 2) ::_exit(7);
    };
    const std::string message = run_failing(cfg, opts, "exit");
    EXPECT_NE(message.find("rank 2"), std::string::npos) << message;
    EXPECT_NE(message.find("exited with status 7"), std::string::npos) << message;
}

TEST(DistFailure, WorkerCrashIsDescribedWithoutHanging) {
    Config cfg        = model_config(Model::GnmDirected);
    cfg.chunks_per_pe = 2;
    dist::DistOptions opts;
    opts.num_ranks = 2;
    opts.rank_hook = [](u64 rank) {
        if (rank == 0) ::raise(SIGKILL);
    };
    const std::string message = run_failing(cfg, opts, "crash");
    EXPECT_NE(message.find("rank 0"), std::string::npos) << message;
    EXPECT_NE(message.find("signal 9"), std::string::npos) << message;
}

TEST(DistFailure, InvalidOptionsThrowBeforeForking) {
    Config cfg = model_config(Model::GnmDirected);
    dist::DistOptions opts;
    opts.dedup_path = "/tmp/never.bin"; // dedup without an output file
    EXPECT_THROW(generate_distributed(cfg, opts), std::invalid_argument);
    Config bad        = cfg;
    bad.chunks_per_pe = 0;
    EXPECT_THROW(generate_distributed(bad, {}), std::invalid_argument);
    expect_no_children("invalid options");
}

// ---------------------------------------------------------------------------
// The coordinator leaves the process's signal handling alone
// ---------------------------------------------------------------------------

/// The current SIGPIPE handler of this process.
void (*sigpipe_handler())(int) {
    struct sigaction current{};
    EXPECT_EQ(::sigaction(SIGPIPE, nullptr, &current), 0);
    return current.sa_handler;
}

TEST(DistSignals, CoordinatorLeavesSigpipeDispositionAlone) {
    // Every coordinator send passes MSG_NOSIGNAL and it writes only files,
    // so neither transport may touch SIGPIPE. Start from the default so a
    // coordinator that ignores the signal shows up as a change.
    struct sigaction saved{};
    ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &saved), 0);
    ASSERT_NE(::signal(SIGPIPE, SIG_DFL), SIG_ERR);

    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;

    // TCP: the workers run in child processes, so their own SIG_IGN stays
    // out of this process.
    {
        net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
        const std::string spec = "127.0.0.1:" + std::to_string(listener.port());
        std::fflush(stdout);
        std::fflush(stderr);
        std::vector<pid_t> workers;
        for (int w = 0; w < 2; ++w) {
            const pid_t pid = ::fork();
            ASSERT_GE(pid, 0);
            if (pid == 0) {
                int code = 1;
                try {
                    net::NetWorkerOptions wopts;
                    wopts.scratch_dir = ::testing::TempDir();
                    code              = net::run_net_worker(spec, wopts);
                } catch (...) {
                }
                ::_exit(code);
            }
            workers.push_back(pid);
        }
        net::NetOptions opts;
        opts.listener       = &listener;
        opts.expect_workers = 2;
        opts.output_path    = tmp_path("sigpipe_tcp.bin");
        EXPECT_NO_THROW(net::run_net_coordinator(cfg, opts));
        for (const pid_t pid : workers) {
            int status = 0;
            ASSERT_EQ(::waitpid(pid, &status, 0), pid);
            EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
        }
        std::remove(opts.output_path.c_str());
        EXPECT_EQ(sigpipe_handler(), SIG_DFL) << "TCP run changed SIGPIPE";
    }

    // Fork: the ranks ignore SIGPIPE in their own processes only.
    {
        dist::DistOptions opts;
        opts.num_ranks   = 2;
        opts.output_path = tmp_path("sigpipe_fork.bin");
        EXPECT_NO_THROW(generate_distributed(cfg, opts));
        std::remove(opts.output_path.c_str());
        EXPECT_EQ(sigpipe_handler(), SIG_DFL) << "fork run changed SIGPIPE";
    }

    ASSERT_EQ(::sigaction(SIGPIPE, &saved, nullptr), 0);
}

// ---------------------------------------------------------------------------
// Chunk-range scheduling (the pe-level mechanism under the ranks)
// ---------------------------------------------------------------------------

TEST(ChunkRange, SlicesConcatenateToFullRun) {
    Config cfg       = model_config(Model::GnmUndirected);
    cfg.total_chunks = 7;
    MemorySink whole;
    generate_chunked(cfg, 2, whole);
    whole.finish();

    EdgeList sliced;
    for (const auto [lo, hi] :
         std::vector<std::pair<u64, u64>>{{0, 3}, {3, 4}, {4, 4}, {4, 7}}) {
        pe::ChunkOptions opt;
        opt.total_chunks = 7;
        opt.chunk_begin  = lo;
        opt.chunk_end    = hi;
        opt.threads      = 1;
        MemorySink part;
        const auto stats = pe::run_chunked(
            opt,
            [&](u64 chunk, u64 num_chunks, EdgeSink& sink) {
                generate(cfg, chunk, num_chunks, sink);
            },
            part);
        EXPECT_EQ(stats.num_chunks, hi - lo);
        part.finish();
        append(sliced, part.edges());
    }
    EXPECT_EQ(sliced, whole.edges());
}

TEST(ChunkRange, OutOfRangeThrows) {
    pe::ChunkOptions opt;
    opt.total_chunks = 4;
    opt.chunk_begin  = 3;
    opt.chunk_end    = 5;
    MemorySink sink;
    EXPECT_THROW(pe::run_chunked(
                     opt, [](u64, u64, EdgeSink&) {}, sink),
                 std::invalid_argument);
    opt.chunk_begin = 3;
    opt.chunk_end   = 2;
    EXPECT_THROW(pe::run_chunked(
                     opt, [](u64, u64, EdgeSink&) {}, sink),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Descriptor hygiene: O_CLOEXEC on sink/spill fds
// ---------------------------------------------------------------------------

bool has_cloexec(int fd) {
    const int flags = ::fcntl(fd, F_GETFD);
    EXPECT_GE(flags, 0);
    return (flags & FD_CLOEXEC) != 0;
}

TEST(Cloexec, BinaryFileSinkAndSpillFileDescriptors) {
    const std::string sink_path = tmp_path("cloexec_sink.bin");
    BinaryFileSink sink(sink_path);
    EXPECT_TRUE(has_cloexec(sink.fd()));
    sink.finish();
    std::remove(sink_path.c_str());

    spill::SpillFile anon;
    EXPECT_TRUE(has_cloexec(anon.fd()));

    const std::string named_path = tmp_path("cloexec_spill.bin");
    spill::SpillFile named(named_path);
    EXPECT_TRUE(has_cloexec(named.fd()));
}

TEST(Cloexec, ExecdChildCannotClobberCoordinatorSpillFile) {
    // Regression for the satellite contract: a worker that execs a
    // subprocess must not hand it a writable descriptor onto the
    // coordinator's scratch. The child shell tries to write through the
    // inherited fd *number*; with O_CLOEXEC the descriptor is closed by the
    // exec, the redirection fails, and the spilled segment stays intact.
    if (::access("/bin/sh", X_OK) != 0) GTEST_SKIP() << "no /bin/sh";

    const std::string path = tmp_path("clobber_spill.bin");
    spill::SpillFile file(path);
    EdgeList edges;
    for (u64 i = 0; i < 1000; ++i) edges.emplace_back(i, i + 1);
    const auto seg = file.append(edges.data(), edges.size());

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const std::string cmd =
            "echo CLOBBERCLOBBER >&" + std::to_string(file.fd());
        ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
        ::_exit(127); // exec itself failed
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_NE(WEXITSTATUS(status), 127) << "child failed to exec /bin/sh";
    // The shell must have failed to use the fd at all.
    EXPECT_NE(WEXITSTATUS(status), 0)
        << "child wrote through the inherited spill fd";

    std::vector<Edge> back(edges.size());
    ASSERT_EQ(file.read(seg, 0, back.data(), back.size()), edges.size());
    EXPECT_EQ(EdgeList(back.begin(), back.end()), edges);
}

} // namespace
} // namespace kagen
