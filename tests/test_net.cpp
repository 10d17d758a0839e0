// Multi-node TCP backend: frame/codec round-trips over real sockets, torn
// frames and deadline expiry, localhost coordinator + worker threads
// byte-identical to both the in-process chunked engine and the forked
// backend, partitioned (manifest) output, and the injected transport
// failures — dead worker, torn report frame, never-connects — all erroring
// fast and naming the rank, with no partial output left behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "kagen.hpp"
#include "net/coordinator.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "obs/trace.hpp"

namespace kagen {
namespace {

std::string tmp_path(const std::string& name) {
    return ::testing::TempDir() + "kagen_net_" + std::to_string(::getpid()) +
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

/// A connected AF_UNIX stream pair wrapped in two framed Sockets — the
/// frame layer is transport-agnostic, so unix sockets exercise it fully
/// without ports.
struct SocketPair {
    net::Socket a, b;
    SocketPair() {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = net::Socket(fds[0]);
        b = net::Socket(fds[1]);
    }
};

/// Spawns `count` worker threads dialing 127.0.0.1:`port`, each running the
/// real `run_net_worker`. Transport errors are captured, not thrown out of
/// the thread (failure tests tear the coordinator down mid-conversation).
class WorkerFleet {
public:
    WorkerFleet(std::uint16_t port, u64 count,
                net::NetWorkerOptions opts = {}) {
        if (opts.scratch_dir.empty()) opts.scratch_dir = ::testing::TempDir();
        errors_.resize(count);
        const std::string spec = "127.0.0.1:" + std::to_string(port);
        for (u64 i = 0; i < count; ++i) {
            threads_.emplace_back([this, spec, opts, i] {
                try {
                    net::run_net_worker(spec, opts);
                } catch (const std::exception& e) {
                    errors_[i] = e.what();
                }
            });
        }
    }
    ~WorkerFleet() { join(); }
    void join() {
        for (auto& t : threads_) {
            if (t.joinable()) t.join();
        }
    }
    const std::vector<std::string>& errors() const { return errors_; }

private:
    std::vector<std::thread> threads_;
    std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Endpoints and the frame layer
// ---------------------------------------------------------------------------

TEST(NetEndpoint, ParsesHostPortAndWildcard) {
    const net::Endpoint ep = net::parse_endpoint("example.org:5555");
    EXPECT_EQ(ep.host, "example.org");
    EXPECT_EQ(ep.port, 5555);
    const net::Endpoint wild = net::parse_endpoint(":80");
    EXPECT_TRUE(wild.host.empty());
    EXPECT_EQ(wild.port, 80);
    // IPv6 literals keep their colons; the LAST colon splits the port.
    EXPECT_EQ(net::parse_endpoint("::1:4242").port, 4242);
}

TEST(NetEndpoint, RejectsMalformedSpecs) {
    EXPECT_THROW(net::parse_endpoint(""), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("no-port"), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("host:"), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("host:banana"), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("host:70000"), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("host:-1"), std::invalid_argument);
}

TEST(NetFrame, RoundTripsPayloads) {
    SocketPair pair;
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   std::size_t{4096}, std::size_t{100000}}) {
        std::vector<u8> sent(size);
        for (std::size_t i = 0; i < size; ++i) sent[i] = static_cast<u8>(i * 31);
        pair.a.send_frame(sent);
        std::vector<u8> got;
        ASSERT_TRUE(pair.b.recv_frame(got, 2000));
        EXPECT_EQ(got, sent);
    }
}

TEST(NetFrame, CleanEofBetweenFramesReturnsFalse) {
    SocketPair pair;
    pair.a.close();
    std::vector<u8> got;
    EXPECT_FALSE(pair.b.recv_frame(got, 2000));
}

TEST(NetFrame, TornFrameThrows) {
    SocketPair pair;
    // A valid header announcing 100 payload bytes, then death after 10.
    std::vector<u8> partial;
    bytes::put_u64(partial, dist::kFrameMagic);
    bytes::put_u64(partial, 100);
    partial.resize(partial.size() + 10, u8{0xab});
    ASSERT_EQ(::send(pair.a.fd(), partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    pair.a.close();
    std::vector<u8> got;
    try {
        pair.b.recv_frame(got, 2000);
        FAIL() << "torn frame must throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("torn"), std::string::npos)
            << e.what();
    }
}

TEST(NetFrame, BadMagicThrows) {
    SocketPair pair;
    std::vector<u8> junk;
    bytes::put_u64(junk, 0xdeadbeefdeadbeefULL);
    bytes::put_u64(junk, 4);
    ASSERT_EQ(::send(pair.a.fd(), junk.data(), junk.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(junk.size()));
    std::vector<u8> got;
    EXPECT_THROW(pair.b.recv_frame(got, 2000), std::runtime_error);
}

TEST(NetFrame, DeadlineExpiresInsteadOfHanging) {
    SocketPair pair; // peer stays alive but silent
    std::vector<u8> got;
    const auto start = std::chrono::steady_clock::now();
    try {
        pair.b.recv_frame(got, 150);
        FAIL() << "silent peer must time out";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
            << e.what();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              5000);
}

// ---------------------------------------------------------------------------
// Config + message codecs
// ---------------------------------------------------------------------------

TEST(NetCodec, ConfigRoundTripsEveryField) {
    Config cfg;
    cfg.model              = Model::Rhg;
    cfg.n                  = 123456;
    cfg.m                  = 789;
    cfg.p                  = 0.25;
    cfg.r                  = 0.0625;
    cfg.avg_deg            = 6.5;
    cfg.gamma              = 2.9;
    cfg.ba_degree          = 3;
    cfg.rmat_a             = 0.5;
    cfg.rmat_b             = 0.3;
    cfg.rmat_c             = 0.1;
    cfg.seed               = 424242;
    cfg.chunks_per_pe      = 5;
    cfg.total_chunks       = 40;
    cfg.max_buffered_bytes = 1 << 20;
    cfg.spill_path         = "/tmp/spill.scratch";
    cfg.sampler_version    = SamplerVersion::v2;
    cfg.edge_semantics     = EdgeSemantics::exact_once;

    std::vector<u8> buf;
    encode_config(buf, cfg);
    const u8* p       = buf.data();
    const u8* end     = p + buf.size();
    const Config back = decode_config(p, end);
    EXPECT_EQ(p, end) << "decode must consume the encoding exactly";
    EXPECT_EQ(back.model, cfg.model);
    EXPECT_EQ(back.n, cfg.n);
    EXPECT_EQ(back.m, cfg.m);
    EXPECT_EQ(back.p, cfg.p);
    EXPECT_EQ(back.r, cfg.r);
    EXPECT_EQ(back.avg_deg, cfg.avg_deg);
    EXPECT_EQ(back.gamma, cfg.gamma);
    EXPECT_EQ(back.ba_degree, cfg.ba_degree);
    EXPECT_EQ(back.rmat_a, cfg.rmat_a);
    EXPECT_EQ(back.rmat_b, cfg.rmat_b);
    EXPECT_EQ(back.rmat_c, cfg.rmat_c);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.chunks_per_pe, cfg.chunks_per_pe);
    EXPECT_EQ(back.total_chunks, cfg.total_chunks);
    EXPECT_EQ(back.max_buffered_bytes, cfg.max_buffered_bytes);
    EXPECT_EQ(back.spill_path, cfg.spill_path);
    EXPECT_EQ(back.sampler_version, cfg.sampler_version);
    EXPECT_EQ(back.edge_semantics, cfg.edge_semantics);
}

TEST(NetCodec, ConfigRejectsUnknownVersionAndEnums) {
    Config cfg;
    std::vector<u8> buf;
    encode_config(buf, cfg);
    {
        std::vector<u8> bad = buf;
        bad[0] ^= 0xff; // corrupt the version word
        const u8* p   = bad.data();
        const u8* end = p + bad.size();
        EXPECT_THROW(decode_config(p, end), std::runtime_error);
    }
    {
        std::vector<u8> bad = buf;
        bad[8] = 0xee; // model id far outside the enum
        const u8* p   = bad.data();
        const u8* end = p + bad.size();
        EXPECT_THROW(decode_config(p, end), std::runtime_error);
    }
    { // truncation must throw, not read past the end
        const u8* p   = buf.data();
        const u8* end = p + buf.size() / 2;
        EXPECT_THROW(decode_config(p, end), std::runtime_error);
    }
}

TEST(NetCodec, JobAndReportRoundTrip) {
    net::JobSpec job;
    job.cfg          = model_config(Model::GnmUndirected);
    job.rank         = 2;
    job.num_workers  = 4;
    job.num_chunks   = 16;
    job.chunk_begin  = 8;
    job.chunk_end    = 12;
    job.threads      = 3;
    job.want_file    = true;
    job.send_file    = false;
    job.degree_stats = true;
    job.want_trace   = true;
    const net::JobSpec back = net::decode_job(net::encode_job(job));
    EXPECT_EQ(back.want_trace, job.want_trace);
    EXPECT_EQ(back.rank, job.rank);
    EXPECT_EQ(back.num_workers, job.num_workers);
    EXPECT_EQ(back.num_chunks, job.num_chunks);
    EXPECT_EQ(back.chunk_begin, job.chunk_begin);
    EXPECT_EQ(back.chunk_end, job.chunk_end);
    EXPECT_EQ(back.threads, job.threads);
    EXPECT_EQ(back.want_file, job.want_file);
    EXPECT_EQ(back.send_file, job.send_file);
    EXPECT_EQ(back.degree_stats, job.degree_stats);
    EXPECT_EQ(back.cfg.n, job.cfg.n);
    EXPECT_EQ(back.cfg.seed, job.cfg.seed);

    dist::RankReport report;
    report.rank        = 2;
    report.ok          = false;
    report.error       = "injected";
    report.chunk_begin = 8;
    report.chunk_end   = 12;
    const dist::RankReport rback =
        net::decode_report(net::encode_report(report));
    EXPECT_EQ(rback.rank, report.rank);
    EXPECT_EQ(rback.ok, report.ok);
    EXPECT_EQ(rback.error, report.error);

    net::JobSpec bad = job;
    bad.chunk_end    = 99; // past num_chunks
    EXPECT_THROW(net::decode_job(net::encode_job(bad)), std::runtime_error);

    // A job frame must never decode as a report and vice versa.
    EXPECT_THROW(net::decode_report(net::encode_job(job)), std::runtime_error);
    EXPECT_THROW(net::decode_job(net::encode_report(report)),
                 std::runtime_error);
}

TEST(NetCodec, TelemetryMessageRoundTripsAndRejectsCorruption) {
    obs::RankTelemetry t;
    t.rank          = 1;
    t.clock_base_ns = 123456;
    obs::TraceEvent ev;
    ev.begin_ns = 10;
    ev.dur_ns   = 5;
    ev.phase    = obs::Phase::generate;
    t.events.push_back(ev);
    t.metrics.counters["pe.chunks"] = {4, obs::MergeKind::sum};

    const std::vector<u8> wire    = net::encode_telemetry(t);
    const obs::RankTelemetry back = net::decode_telemetry(wire);
    EXPECT_EQ(back.rank, 1u);
    EXPECT_EQ(back.clock_base_ns, 123456u);
    ASSERT_EQ(back.events.size(), 1u);
    EXPECT_EQ(back.events[0].phase, obs::Phase::generate);
    EXPECT_EQ(back.metrics.counter_or("pe.chunks"), 4u);

    // Wrong message type behind the tag.
    dist::RankReport report;
    report.rank = 1;
    EXPECT_THROW(net::decode_telemetry(net::encode_report(report)),
                 std::runtime_error);
    EXPECT_THROW(net::decode_report(net::encode_telemetry(t)),
                 std::runtime_error);

    // Torn frame: every proper prefix must be rejected, not mis-decoded.
    for (const std::size_t cut :
         {wire.size() - 1, wire.size() / 2, std::size_t{12}}) {
        const std::vector<u8> torn(wire.begin(),
                                   wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(net::decode_telemetry(torn), std::runtime_error)
            << "cut at " << cut;
    }
    // Trailing garbage after a well-formed telemetry body.
    std::vector<u8> oversized = wire;
    oversized.insert(oversized.end(), 64, u8{0});
    EXPECT_THROW(net::decode_telemetry(oversized), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Byte-identity: TCP workers == forked ranks == single process
// ---------------------------------------------------------------------------

class NetByteIdentity
    : public ::testing::TestWithParam<std::tuple<Model, EdgeSemantics>> {};

TEST_P(NetByteIdentity, MatchesSingleProcessAndForkBackend) {
    const auto [model, semantics] = GetParam();
    Config cfg          = model_config(model);
    cfg.chunks_per_pe   = 2;
    cfg.edge_semantics  = semantics;
    const u64 pes       = 4;
    const std::string tag = std::string(model_name(model)) + "_" +
                            semantics_name(semantics);
    const std::string ref_path = single_process_file(cfg, pes, tag);
    const std::string ref      = read_bytes(ref_path);
    ASSERT_GE(ref.size(), 8u);

    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = 4;
    opts.num_pes        = pes;
    opts.output_path    = tmp_path(tag + ".net.bin");
    WorkerFleet fleet(listener.port(), 4);
    const dist::DistResult res = net::run_net_coordinator(cfg, opts);
    fleet.join();
    for (const auto& err : fleet.errors()) EXPECT_TRUE(err.empty()) << err;

    EXPECT_EQ(res.num_ranks, 4u);
    EXPECT_EQ(res.num_chunks, cfg.chunks_per_pe * pes);
    EXPECT_EQ(read_bytes(opts.output_path), ref)
        << model_name(model) << " over TCP diverged from single-process";
    EXPECT_EQ(res.edges_written * 16 + 8, ref.size());
    EXPECT_EQ(res.merged_bytes, ref.size() - 8);
    EXPECT_EQ(res.count.semantics, semantics);

    // Triangulate against the fork backend too: same cfg, same P.
    dist::DistOptions fork;
    fork.num_ranks   = 4;
    fork.num_pes     = pes;
    fork.output_path = tmp_path(tag + ".fork.bin");
    generate_distributed(cfg, fork);
    EXPECT_EQ(read_bytes(fork.output_path), ref)
        << model_name(model) << " forked backend diverged";

    std::remove(opts.output_path.c_str());
    std::remove(fork.output_path.c_str());
    std::remove(ref_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSemantics, NetByteIdentity,
    ::testing::Combine(::testing::Values(Model::GnmUndirected, Model::Rgg2D),
                       ::testing::Values(EdgeSemantics::as_generated,
                                         EdgeSemantics::exact_once)));

TEST(NetTelemetry, TelemetryRunStaysByteIdenticalAndMergesEveryRank) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    const u64 pes     = 4;
    const std::string ref_path = single_process_file(cfg, pes, "telemetry");
    const std::string ref      = read_bytes(ref_path);

    cfg.trace_path   = tmp_path("net.trace.json");
    cfg.metrics_path = tmp_path("net.metrics.json");

    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = 2;
    opts.num_pes        = pes;
    opts.output_path    = tmp_path("telemetry.net.bin");
    WorkerFleet fleet(listener.port(), 2);
    const dist::DistResult res = net::run_net_coordinator(cfg, opts);
    fleet.join();
    for (const auto& err : fleet.errors()) EXPECT_TRUE(err.empty()) << err;

    // Telemetry must not change one output byte.
    EXPECT_EQ(read_bytes(opts.output_path), ref);

    // The TCP summary no longer drops the engine stats the ranks reported.
    u64 peak = 0;
    for (const auto& rep : res.ranks) {
        peak = std::max(peak, rep.stats.peak_buffered_bytes);
    }
    EXPECT_EQ(res.peak_buffered_bytes, peak);
    EXPECT_EQ(res.spilled_chunks, 0u);

    // Merged timeline names every rank plus the coordinator.
    const std::string trace = read_bytes(cfg.trace_path);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"rank 0\""), std::string::npos);
    EXPECT_NE(trace.find("\"rank 1\""), std::string::npos);
    EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);

    const std::string metrics = read_bytes(cfg.metrics_path);
    EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
    EXPECT_NE(metrics.find("\"pe.chunks\""), std::string::npos);
    // The report carries no arena stats; the ranks' metrics do.
    EXPECT_NE(metrics.find("\"pe.arena.slabs_reserved\""), std::string::npos);
    // One metric name for merged bytes, whichever transport gathered them.
    EXPECT_NE(metrics.find("\"dist.merged_bytes\""), std::string::npos);

    std::remove(opts.output_path.c_str());
    std::remove(ref_path.c_str());
    std::remove(cfg.trace_path.c_str());
    std::remove(cfg.metrics_path.c_str());
}

TEST(NetCoordinator, StatsOnlyRunMergesExactly) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;

    // In-process reference summary.
    CountingSink ref_sink(cfg.edge_semantics);
    generate_chunked(cfg, 4, ref_sink);
    ref_sink.finish();
    const CountingSummary ref = ref_sink.summarize();

    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = 3;
    opts.num_pes        = 4;
    opts.degree_stats   = true;
    WorkerFleet fleet(listener.port(), 3);
    const dist::DistResult res = net::run_net_coordinator(cfg, opts);
    fleet.join();

    EXPECT_EQ(res.count.num_edges, ref.num_edges);
    EXPECT_EQ(res.count.num_self_loops, ref.num_self_loops);
    EXPECT_TRUE(res.has_degrees);
    EXPECT_EQ(res.degrees.degrees.size(), res.n);
    EXPECT_EQ(res.edges_written, 0u) << "stats-only run must write no file";
}

TEST(NetCoordinator, ManifestModeKeepsRankFilesAndNamesThem) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    const u64 pes     = 4;
    const std::string ref_path = single_process_file(cfg, pes, "manifest");
    const std::string ref      = read_bytes(ref_path);

    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = 2;
    opts.num_pes        = pes;
    opts.manifest_path  = tmp_path("run.manifest");
    WorkerFleet fleet(listener.port(), 2);
    const dist::DistResult res = net::run_net_coordinator(cfg, opts);
    fleet.join();

    ASSERT_EQ(res.manifest.size(), 2u);
    EXPECT_TRUE(file_exists(opts.manifest_path));
    // The rank files named by the manifest, concatenated in rank order with
    // their 8-byte headers stripped, are exactly the reference payload.
    std::string payload;
    u64 manifest_edges = 0;
    for (u64 w = 0; w < res.manifest.size(); ++w) {
        const dist::ManifestEntry& entry = res.manifest[w];
        EXPECT_EQ(entry.rank, w);
        ASSERT_TRUE(file_exists(entry.path)) << entry.path;
        const std::string bytes = read_bytes(entry.path);
        EXPECT_EQ(bytes.size(), entry.bytes);
        payload += bytes.substr(8);
        manifest_edges += entry.edges;
        std::remove(entry.path.c_str());
    }
    EXPECT_EQ(payload, ref.substr(8));
    EXPECT_EQ(manifest_edges, res.count.num_edges);
    std::remove(opts.manifest_path.c_str());
    std::remove(ref_path.c_str());
}

// ---------------------------------------------------------------------------
// Failure containment: fail fast, name the rank, leave no partial files
// ---------------------------------------------------------------------------

TEST(NetFailure, WorkerNeverConnectsWithinDeadline) {
    Config cfg = model_config(Model::GnmUndirected);
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener           = &listener;
    opts.expect_workers     = 1;
    opts.connect_timeout_ms = 200;
    const auto start = std::chrono::steady_clock::now();
    try {
        net::run_net_coordinator(cfg, opts);
        FAIL() << "no worker ever connected; the coordinator must not hang";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("never connected"), std::string::npos) << msg;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              10000);
}

TEST(NetFailure, FailingRankIsNamedAndOutputRemoved) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = 3;
    opts.num_pes        = 4;
    opts.output_path    = tmp_path("failing.bin");
    net::NetWorkerOptions wopts;
    wopts.rank_hook = [](u64 rank) {
        if (rank == 1) throw std::runtime_error("injected rank-1 fault");
    };
    WorkerFleet fleet(listener.port(), 3, wopts);
    try {
        net::run_net_coordinator(cfg, opts);
        FAIL() << "a failing rank must fail the run";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("injected rank-1 fault"), std::string::npos) << msg;
    }
    fleet.join();
    EXPECT_FALSE(file_exists(opts.output_path))
        << "failed run left a partial output file";
}

/// A fake worker that handshakes, accepts the job, then misbehaves —
/// injecting the exact wire-level failures a real network produces.
enum class Sabotage { die_silently, torn_report };

void sabotaged_worker(std::uint16_t port, Sabotage mode) {
    net::Socket sock =
        net::connect_to(net::parse_endpoint("127.0.0.1:" + std::to_string(port)),
                        2000);
    sock.send_frame(net::encode_hello());
    std::vector<u8> payload;
    ASSERT_TRUE(sock.recv_frame(payload, 2000));
    net::decode_hello(payload);
    ASSERT_TRUE(sock.recv_frame(payload, 2000)); // the job
    if (mode == Sabotage::die_silently) {
        sock.close(); // killed mid-job: RST/EOF instead of a report
        return;
    }
    // torn_report: a valid header promising a report that never finishes.
    std::vector<u8> partial;
    bytes::put_u64(partial, dist::kFrameMagic);
    bytes::put_u64(partial, 1000);
    partial.resize(partial.size() + 17, u8{0x5a});
    ASSERT_EQ(::send(sock.fd(), partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    sock.close();
}

class NetSabotage : public ::testing::TestWithParam<Sabotage> {};

TEST_P(NetSabotage, DeadOrTornWorkerErrorsFastNamingTheRank) {
    Config cfg = model_config(Model::GnmUndirected);
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = 1;
    opts.output_path    = tmp_path("sabotage.bin");
    std::thread saboteur(sabotaged_worker, listener.port(), GetParam());
    const auto start = std::chrono::steady_clock::now();
    try {
        net::run_net_coordinator(cfg, opts);
        FAIL() << "a dead worker must fail the run";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    }
    saboteur.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              10000)
        << "dead socket must surface via EOF, not a hang";
    EXPECT_FALSE(file_exists(opts.output_path));
}

INSTANTIATE_TEST_SUITE_P(Modes, NetSabotage,
                         ::testing::Values(Sabotage::die_silently,
                                           Sabotage::torn_report));

TEST(NetFailure, SilentWorkerHitsTheJobDeadline) {
    Config cfg = model_config(Model::GnmUndirected);
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener        = &listener;
    opts.expect_workers  = 1;
    opts.job_deadline_ms = 300;
    // Alive-but-silent worker: handshakes, takes the job, then stalls past
    // the deadline without closing the socket.
    std::thread stalled([port = listener.port()] {
        net::Socket sock = net::connect_to(
            net::parse_endpoint("127.0.0.1:" + std::to_string(port)), 2000);
        sock.send_frame(net::encode_hello());
        std::vector<u8> payload;
        ASSERT_TRUE(sock.recv_frame(payload, 2000));
        ASSERT_TRUE(sock.recv_frame(payload, 2000)); // the job
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    });
    try {
        net::run_net_coordinator(cfg, opts);
        FAIL() << "a stalled worker must hit the job deadline";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("timed out"), std::string::npos) << msg;
    }
    stalled.join();
}

TEST(NetCoordinator, RejectsContradictoryOptions) {
    const Config cfg = model_config(Model::GnmUndirected);
    {
        net::NetOptions opts; // neither listen nor connect
        EXPECT_THROW(net::run_net_coordinator(cfg, opts), std::invalid_argument);
    }
    {
        net::NetOptions opts;
        opts.listen = ":0"; // listen without expect_workers
        EXPECT_THROW(net::run_net_coordinator(cfg, opts), std::invalid_argument);
    }
    {
        net::NetOptions opts;
        opts.connect        = {"127.0.0.1:1", "127.0.0.1:2"};
        opts.expect_workers = 3; // contradicts connect.size()
        EXPECT_THROW(net::run_net_coordinator(cfg, opts), std::invalid_argument);
    }
    {
        net::NetOptions opts;
        opts.listen         = ":0";
        opts.expect_workers = 1;
        opts.output_path    = tmp_path("x.bin");
        opts.manifest_path  = tmp_path("x.manifest"); // both output modes
        EXPECT_THROW(net::run_net_coordinator(cfg, opts), std::invalid_argument);
    }
}

} // namespace
} // namespace kagen
