/// \file kagen_bench.cpp
/// \brief Outside-in benchmark binary: times calls into KaGen's public API
///        from the caller's side and checks every output it produces.
///
/// run.py owns the process layout, the medians and the result line; this
/// binary runs one mode per process and prints one JSON object per line:
///
///   kagen_bench list                     workload names, one per line
///   kagen_bench info                     build fingerprint
///   kagen_bench setup   -w W -s S -d DIR one cold call in this fresh process
///   kagen_bench measure -w W -s S -d DIR -t SECONDS
///                                        one warm-up call (output kept as
///                                        DIR/ref.bin), then timed calls
///   kagen_bench xref    -w W -s S -d DIR the other path of a file workload
///                                        (in-process <-> forked ranks) into
///                                        DIR/xref.bin
///   kagen_bench trace   -w W -s S -d DIR the per-layer sweep
///
/// `--inject corrupt|count` damages the first timed call's output (a flipped
/// payload byte, or an edge count off by one) before it is checked; the
/// self-test uses it to prove that a damaged output fails the run.
///
/// Every clock here is the benchmark's own, around whole public calls:
/// sink construction, the generation, sink.finish() and the rank merge.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fileio.hpp"
#include "kagen.hpp"

namespace {

using kagen::u64;
using Clock = std::chrono::steady_clock;

// Execution shape shared by every workload: P = 4 simulated PEs with K = 4
// chunks each (16 canonical chunks), on 4 threads or 4 forked ranks.
constexpr u64 kPes         = 4;
constexpr u64 kChunksPerPe = 4;
constexpr u64 kChunks      = kPes * kChunksPerPe;
constexpr u64 kThreads     = 4;
constexpr u64 kRanks       = 4;
constexpr u64 kMinTimedCalls = 3;
constexpr int kOverheadPairs = 5; // untraced/traced call pairs of a traced run

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Path {
    file,  ///< generate_chunked into a BinaryFileSink
    count, ///< generate_chunked into a CountingSink
    dist,  ///< generate_distributed with forked ranks and a merged file
};

struct Workload {
    const char* name;
    kagen::Config cfg;
    Path path;
    /// Sink edges at seed 1. For the G(n,m) and R-MAT workloads this is m
    /// at every seed; RHG's count depends on the seed and is pinned here
    /// for seed 1 only.
    u64 seed1_edges;
    bool edges_are_m;
    /// Graphs the timed calls of one run cycle through (seeds seed,
    /// seed + kSeedStride, ...). RHG's cost and memory depend on the graph
    /// (its largest-degree vertices), so one graph per run would make the
    /// run's median the graph's, not the workload's.
    u64 graphs_per_run;
};

constexpr u64 kSeedStride = u64{1} << 32;

kagen::Config gnm_file_config() {
    kagen::Config cfg;
    cfg.model           = kagen::Model::GnmDirected;
    cfg.n               = u64{1} << 20;
    cfg.m               = u64{1} << 23;
    cfg.sampler_version = kagen::SamplerVersion::v1; // same bytes on every ISA
    cfg.chunks_per_pe   = kChunksPerPe;
    return cfg;
}

kagen::Config gnm_count_config() {
    kagen::Config cfg;
    cfg.model           = kagen::Model::GnmDirected;
    cfg.n               = u64{1} << 22;
    cfg.m               = u64{1} << 26;
    cfg.sampler_version = kagen::SamplerVersion::v2;
    cfg.chunks_per_pe   = kChunksPerPe;
    return cfg;
}

kagen::Config rhg_config() {
    kagen::Config cfg;
    cfg.model          = kagen::Model::Rhg;
    cfg.n              = u64{1} << 18;
    cfg.avg_deg        = 16.0;
    cfg.gamma          = 2.6;
    cfg.edge_semantics = kagen::EdgeSemantics::exact_once;
    cfg.chunks_per_pe  = kChunksPerPe;
    return cfg;
}

kagen::Config rmat_config() {
    kagen::Config cfg;
    cfg.model         = kagen::Model::Rmat;
    cfg.n             = u64{1} << 20;
    cfg.m             = u64{1} << 23;
    cfg.chunks_per_pe = kChunksPerPe;
    return cfg;
}

constexpr u64 kRhgSeed1Edges = 2097783;

std::vector<Workload> all_workloads() {
    const kagen::Config gf = gnm_file_config();
    const kagen::Config gc = gnm_count_config();
    const kagen::Config rm = rmat_config();
    return {
        {"gnm_file", gf, Path::file, gf.m, true, 1},
        {"gnm_count", gc, Path::count, gc.m, true, 1},
        {"rhg_count", rhg_config(), Path::count, kRhgSeed1Edges, false, 4},
        {"rmat_count", rm, Path::count, rm.m, true, 1},
        {"dist_file", gf, Path::dist, gf.m, true, 1},
    };
}

Workload find_workload(const std::string& name, u64 seed) {
    for (Workload w : all_workloads()) {
        if (name == w.name) {
            w.cfg.seed = seed;
            return w;
        }
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Process resources
// ---------------------------------------------------------------------------

double cpu_seconds(int who) {
    struct rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Resets this process's VmHWM to its current resident size, so the next
/// read reports the peak of one call rather than of the process lifetime.
void reset_peak_rss() {
    const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
    if (fd < 0 || ::write(fd, "5", 1) != 1) {
        if (fd >= 0) ::close(fd);
        throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
    }
    ::close(fd);
}

u64 peak_rss_self() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Largest resident size of any reaped child. Every distributed call forks
/// the same four rank jobs afresh, so this maximum is the per-rank peak of
/// each call, not a stale lifetime high.
u64 peak_rss_children() {
    struct rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<u64>(ru.ru_maxrss) * 1024;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Fast order-sensitive 64-bit digest of a whole file (four independent
/// multiply-rotate lanes over the little-endian words; every step is a
/// bijection of the lane state, so any single changed word changes the
/// result). Used to compare every timed call's bytes with the warm-up
/// output, whose sha256 run.py checks.
u64 file_digest(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw std::runtime_error("cannot open '" + path + "' for checking");
    // Mapped per call and unmapped after: a heap buffer would stay resident
    // in this process and inflate the forked ranks' inherited RSS.
    constexpr std::size_t kWords = std::size_t{1} << 17;
    void* map = ::mmap(nullptr, kWords * 8, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) {
        ::close(fd);
        throw std::runtime_error("cannot map the checking buffer");
    }
    struct Unmap {
        void* p;
        ~Unmap() { ::munmap(p, kWords * 8); }
    } unmap{map};
    u64* buf = static_cast<u64*>(map);
    u64 lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                   0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
    u64 total = 0;
    for (;;) {
        std::size_t got = 0;
        char* bytes     = reinterpret_cast<char*>(buf);
        while (got < kWords * 8) {
            const ssize_t r = ::read(fd, bytes + got, kWords * 8 - got);
            if (r < 0 && errno == EINTR) continue;
            if (r < 0) {
                ::close(fd);
                throw std::runtime_error("read error while checking '" + path + "'");
            }
            if (r == 0) break;
            got += static_cast<std::size_t>(r);
        }
        if (got == 0) break;
        std::memset(bytes + got, 0, (8 - got % 8) % 8);
        const std::size_t words = (got + 7) / 8;
        for (std::size_t i = 0; i < words; ++i) {
            u64& h = lane[i & 3];
            h = (h ^ (buf[i] * 0x9E3779B97F4A7C15ULL));
            h = ((h << 29) | (h >> 35)) * 0xBF58476D1CE4E5B9ULL;
        }
        total += got;
        if (got < kWords * 8) break;
    }
    ::close(fd);
    u64 h = total * 0x94D049BB133111EBULL;
    for (u64 l : lane) h = ((h ^ l) * 0x9E3779B97F4A7C15ULL) ^ (h >> 31);
    return h;
}

/// Binary edge file invariants: size 8 + 16·edges and a u64 header equal
/// to the edge count. Returns what is wrong, or "".
std::string check_edge_file(const std::string& path, u64 edges) {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) return "output file '" + path + "' missing";
    if (static_cast<u64>(st.st_size) != 8 + 16 * edges) {
        return "output file is " + std::to_string(st.st_size) + " bytes, expected " +
               std::to_string(8 + 16 * edges);
    }
    std::ifstream in(path, std::ios::binary);
    u64 header = 0;
    in.read(reinterpret_cast<char*>(&header), sizeof(header));
    if (!in || header != edges) {
        return "output header claims " + std::to_string(header) + " edges, expected " +
               std::to_string(edges);
    }
    return "";
}

struct Reference {
    bool set    = false;
    u64 edges   = 0;
    u64 digest  = 0;
};

u64 expected_edges(const Workload& w) {
    if (w.edges_are_m) return w.cfg.m;
    return w.cfg.seed == 1 ? w.seed1_edges : 0; // 0 = not pinned at this seed
}

// ---------------------------------------------------------------------------
// One call
// ---------------------------------------------------------------------------

struct CallResult {
    double wall_s       = 0.0;
    double cpu_s        = 0.0;
    u64 edges           = 0;
    u64 peak_rss_bytes  = 0;
    u64 digest          = 0;
    kagen::ChunkStats stats; ///< in-process paths only
    std::string error;       ///< empty = the call and its checks passed
};

/// Runs one whole public call of `path` on `cfg`, timed from sink
/// construction to sink.finish() (or through the rank merge).
CallResult run_call(Path path, const kagen::Config& cfg, const std::string& out,
                    const std::string& dir) {
    if (path != Path::count) ::unlink(out.c_str()); // every call makes a new file
    CallResult r;
    reset_peak_rss();
    const double cpu0 = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
    const auto t0     = Clock::now();
    switch (path) {
        case Path::file: {
            kagen::BinaryFileSink sink(out);
            r.stats = kagen::generate_chunked(cfg, kPes, sink, kThreads);
            sink.finish();
            r.edges = sink.num_edges();
            break;
        }
        case Path::count: {
            kagen::CountingSink sink(cfg.edge_semantics);
            r.stats = kagen::generate_chunked(cfg, kPes, sink, kThreads);
            sink.finish();
            r.edges = sink.num_edges();
            break;
        }
        case Path::dist: {
            kagen::dist::DistOptions opt;
            opt.num_ranks        = kRanks;
            opt.num_pes          = kPes;
            opt.threads_per_rank = 1;
            opt.output_path      = out;
            opt.scratch_dir      = dir;
            r.edges = kagen::generate_distributed(cfg, opt).edges_written;
            break;
        }
    }
    r.wall_s = seconds_since(t0);
    r.cpu_s  = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN) - cpu0;
    r.peak_rss_bytes = peak_rss_self();
    if (path == Path::dist) r.peak_rss_bytes += kRanks * peak_rss_children();
    return r;
}

/// Checks a finished call: edge count against the pinned value (or the
/// reference call at unpinned seeds), file invariants, and the file's
/// bytes against the reference call's bytes. Fills r.digest for files.
void check_call(const Workload& w, Path path, const std::string& out, CallResult& r,
                const Reference& ref) {
    if (!r.error.empty()) return;
    u64 want = expected_edges(w);
    if (want == 0 && ref.set) want = ref.edges;
    if (want != 0 && r.edges != want) {
        r.error = "sink received " + std::to_string(r.edges) + " edges, expected " +
                  std::to_string(want);
        return;
    }
    if (path == Path::count) return;
    r.error = check_edge_file(out, r.edges);
    if (!r.error.empty()) return;
    r.digest = file_digest(out);
    if (ref.set && r.digest != ref.digest) {
        r.error = "output bytes differ from the reference call's";
    }
}

/// Runs and checks one call; an exception counts as a failed call.
CallResult checked_call(const Workload& w, Path path, const kagen::Config& cfg,
                        const std::string& out, const std::string& dir,
                        const Reference& ref, const std::string& inject = "") {
    CallResult r;
    try {
        r = run_call(path, cfg, out, dir);
        if (inject == "count") {
            ++r.edges;
        } else if (inject == "corrupt") {
            const int fd = ::open(out.c_str(), O_RDWR | O_CLOEXEC);
            unsigned char byte = 0;
            const off_t at     = static_cast<off_t>(8 + 16 * (r.edges / 2) + 5);
            if (fd < 0 || ::pread(fd, &byte, 1, at) != 1) {
                throw std::runtime_error("cannot open output to inject corruption");
            }
            byte ^= 0x10;
            const bool ok = ::pwrite(fd, &byte, 1, at) == 1;
            ::close(fd);
            if (!ok) throw std::runtime_error("cannot inject corruption");
        }
        check_call(w, path, out, r, ref);
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    return r;
}

// ---------------------------------------------------------------------------
// JSON lines
// ---------------------------------------------------------------------------

class JsonLine {
public:
    JsonLine& num(const char* key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }
    JsonLine& num(const char* key, u64 v) { return raw(key, std::to_string(v)); }
    JsonLine& boolean(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
    JsonLine& str(const char* key, const std::string& v) {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\') q += '\\';
            q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
        }
        return raw(key, q + "\"");
    }
    JsonLine& nums(const char* key, const std::vector<double>& vs) {
        std::string a = "[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", vs[i]);
            a += buf;
        }
        return raw(key, a + "]");
    }
    void print() const {
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

private:
    JsonLine& raw(const char* key, const std::string& v) {
        if (!body_.empty()) body_ += ", ";
        body_ += "\"" + std::string(key) + "\": " + v;
        return *this;
    }
    std::string body_;
};

void print_call(const char* kind, const CallResult& r) {
    JsonLine()
        .str("call", kind)
        .boolean("ok", r.error.empty())
        .str("error", r.error)
        .num("wall_s", r.wall_s)
        .num("cpu_s", r.cpu_s)
        .num("edges", r.edges)
        .num("peak_rss_bytes", r.peak_rss_bytes)
        .str("digest", std::to_string(r.digest))
        .print();
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
    std::string mode, workload, dir, inject;
    u64 seed       = 1;
    double seconds = 10.0;
};

void mode_measure(const Args& a) {
    const std::string out = a.dir + "/out.bin";
    std::vector<Workload> graphs;
    std::vector<Reference> refs;
    const Workload w = find_workload(a.workload, a.seed);
    for (u64 g = 0; g < w.graphs_per_run; ++g) {
        Workload wg = find_workload(a.workload, a.seed + g * kSeedStride);
        // The first warm-up is this process's cold call; its file is the
        // one run.py hashes.
        CallResult warm =
            checked_call(wg, wg.path, wg.cfg, g == 0 ? a.dir + "/ref.bin" : out, a.dir, {});
        print_call("warmup", warm);
        if (!warm.error.empty()) return;
        graphs.push_back(wg);
        refs.push_back({true, warm.edges, warm.digest});
    }

    const auto start = Clock::now();
    for (u64 i = 0; i < kMinTimedCalls || seconds_since(start) < a.seconds; ++i) {
        const Workload& wg = graphs[i % graphs.size()];
        const CallResult r = checked_call(wg, wg.path, wg.cfg, out, a.dir,
                                          refs[i % graphs.size()], i == 0 ? a.inject : "");
        print_call("timed", r);
    }
    ::unlink(out.c_str());
}

void mode_setup(const Args& a) {
    const Workload w          = find_workload(a.workload, a.seed);
    const std::string out     = a.dir + "/setup.bin";
    const CallResult r        = checked_call(w, w.path, w.cfg, out, a.dir, Reference{});
    print_call("setup", r);
    ::unlink(out.c_str());
}

void mode_xref(const Args& a) {
    const Workload w = find_workload(a.workload, a.seed);
    if (w.path == Path::count) throw std::invalid_argument("xref: not a file workload");
    const Path other = w.path == Path::file ? Path::dist : Path::file;
    print_call("xref", checked_call(w, other, w.cfg, a.dir + "/xref.bin", a.dir, Reference{}));
}

/// Sink that only counts edges: the discarding unordered sink of the
/// generator layers, or (ordered) the discarding end of the delivery layer.
class DiscardSink final : public kagen::EdgeSink {
public:
    bool ordered() const override { return ordered_; }
    explicit DiscardSink(bool ordered = false) : ordered_(ordered) {}
    u64 edges() const { return edges_.load(std::memory_order_relaxed); }

private:
    void consume(const kagen::Edge*, std::size_t count) override {
        edges_.fetch_add(count, std::memory_order_relaxed);
    }
    bool ordered_;
    std::atomic<u64> edges_{0};
};

/// Σ wall time of kagen::generate over every chunk of `cfg`, one chunk at a
/// time on this thread, into a discarding unordered sink; `edges` gets the
/// edges generated.
double time_generator(const kagen::Config& cfg, u64& edges) {
    double secs = 0.0;
    edges       = 0;
    for (u64 chunk = 0; chunk < kChunks; ++chunk) {
        DiscardSink sink;
        const auto t0 = Clock::now();
        kagen::generate(cfg, chunk, kChunks, sink);
        sink.flush();
        secs += seconds_since(t0);
        edges += sink.edges();
    }
    return secs;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/// The traced per-layer sweep. Each layer is timed from outside, one call
/// at a time on this thread: the generators (er, rhg, rmat) per chunk into
/// a discarding sink, the ownership filter and the file sink over
/// pre-generated chunk edges, the pool/arena/delivery path with generation
/// replaced by a copy, and the distributed rank jobs and merge. The real
/// calls of the workload run with the program's own trace and metrics
/// files switched on, for run.py to set beside these numbers.
void mode_trace(const Args& a) {
    const Workload w = find_workload(a.workload, a.seed);
    JsonLine line;
    line.str("call", "trace");
    u64 attempted = 0, failed = 0;
    std::string errors;
    auto account = [&](const std::string& what, const std::string& error) {
        ++attempted;
        if (error.empty()) return;
        ++failed;
        errors += (errors.empty() ? "" : "; ") + what + ": " + error;
    };
    auto expect = [&](const std::string& what, u64 got, u64 want) {
        account(what, got == want ? "" : "got " + std::to_string(got) + ", expected " +
                                              std::to_string(want));
    };
    auto traced = [&](kagen::Config cfg, const std::string& tag) {
        cfg.trace_path   = a.dir + "/" + tag + "_trace.json";
        cfg.metrics_path = a.dir + "/" + tag + "_metrics.json";
        return cfg;
    };

    // -- The workload's own calls: untraced and traced, interleaved. ------
    Reference ref;
    const std::string own_out = a.dir + "/own.bin";
    CallResult warm = checked_call(w, w.path, w.cfg, own_out, a.dir, ref);
    account(std::string(w.name) + " warm-up", warm.error);
    ref = {true, warm.edges, warm.digest};
    std::vector<double> untraced, traced_walls;
    u64 dropped = 0;
    const kagen::Config own_traced = traced(w.cfg, "own");
    for (int i = 0; i < kOverheadPairs; ++i) {
        CallResult u = checked_call(w, w.path, w.cfg, own_out, a.dir, ref);
        account(std::string(w.name) + " untraced", u.error);
        untraced.push_back(u.wall_s);
        const u64 d0 = kagen::obs::TraceRecorder::global().dropped();
        CallResult t = checked_call(w, w.path, own_traced, own_out, a.dir, ref);
        dropped += kagen::obs::TraceRecorder::global().dropped() - d0;
        account(std::string(w.name) + " traced", t.error);
        traced_walls.push_back(t.wall_s);
    }
    ::unlink(own_out.c_str());
    line.nums("own_untraced_s", untraced)
        .nums("own_traced_s", traced_walls)
        .num("own_dropped_events", dropped)
        .str("own_trace", own_traced.trace_path)
        .str("own_metrics", own_traced.metrics_path);

    // -- er: the workload's own chunks when it is a G(n,m) workload. ------
    {
        kagen::Config cfg =
            w.cfg.model == kagen::Model::GnmDirected ? w.cfg : gnm_count_config();
        cfg.seed       = a.seed;
        u64 edges      = 0;
        const double s = time_generator(cfg, edges);
        expect("er edges", edges, cfg.m);
        line.num("er_s", s).num("er_edges", edges);
    }

    // -- rhg generation (as generated) and the ownership filter over it. --
    {
        kagen::Config cfg  = rhg_config();
        cfg.seed           = a.seed;
        cfg.edge_semantics = kagen::EdgeSemantics::as_generated;
        std::vector<kagen::EdgeList> chunks(kChunks);
        std::vector<double> chunk_s;
        u64 emitted = 0;
        for (u64 chunk = 0; chunk < kChunks; ++chunk) {
            kagen::MemorySink sink(&chunks[chunk]);
            const auto t0 = Clock::now();
            kagen::generate(cfg, chunk, kChunks, sink);
            sink.flush();
            chunk_s.push_back(seconds_since(t0));
            emitted += chunks[chunk].size();
        }
        double filter_s = 0.0;
        DiscardSink kept;
        for (u64 chunk = 0; chunk < kChunks; ++chunk) {
            const auto t0 = Clock::now();
            kagen::OwnershipFilterSink filter(
                kagen::owned_vertex_intervals(cfg, chunk, kChunks), kept);
            filter.deliver(chunks[chunk].data(), chunks[chunk].size());
            filter.finish();
            filter_s += seconds_since(t0);
        }
        if (a.seed == 1) expect("rhg exact-once edges", kept.edges(), kRhgSeed1Edges);
        line.nums("rhg_chunk_s", chunk_s)
            .num("rhg_edges", emitted)
            .num("ownership_s", filter_s)
            .num("ownership_kept", kept.edges());
    }

    // -- rmat generation. -------------------------------------------------
    {
        kagen::Config cfg = rmat_config();
        cfg.seed          = a.seed;
        u64 edges         = 0;
        const double s    = time_generator(cfg, edges);
        expect("rmat edges", edges, cfg.m);
        line.num("rmat_s", s).num("rmat_edges", edges);
    }

    // -- gnm_file: a real traced call, then pe delivery and the file sink
    //    over its pre-generated chunk edges. ------------------------------
    const Workload gnm_file = find_workload("gnm_file", a.seed);
    const kagen::Config gcfg = gnm_file.cfg;
    const std::string gnm_out = a.dir + "/gnm.bin";
    const CallResult real = checked_call(gnm_file, Path::file, traced(gcfg, "gnm"), gnm_out,
                                         a.dir, Reference{});
    account("gnm_file traced", real.error);
    ::unlink(gnm_out.c_str());
    line.num("gnm_wall_s", real.wall_s)
        .num("pe_peak_buffered_bytes", real.stats.peak_buffered_bytes)
        .num("pe_spilled_bytes", real.stats.spilled_bytes)
        .str("gnm_trace", a.dir + "/gnm_trace.json")
        .str("gnm_metrics", a.dir + "/gnm_metrics.json");
    {
        std::vector<kagen::EdgeList> chunks(kChunks);
        for (u64 chunk = 0; chunk < kChunks; ++chunk) {
            kagen::MemorySink sink(&chunks[chunk]);
            kagen::generate(gcfg, chunk, kChunks, sink);
            sink.flush();
        }

        kagen::pe::ChunkOptions opt;
        opt.num_pes       = kPes;
        opt.chunks_per_pe = kChunksPerPe;
        opt.threads       = kThreads;
        DiscardSink ordered(/*ordered=*/true);
        auto t0 = Clock::now();
        kagen::pe::run_chunked(
            opt,
            [&chunks](u64 chunk, u64, kagen::EdgeSink& sink) {
                sink.deliver(chunks[chunk].data(), chunks[chunk].size());
            },
            ordered);
        ordered.finish();
        line.num("pe_deliver_s", seconds_since(t0));
        expect("pe delivered edges", ordered.edges(), gcfg.m);

        const std::string file_out = a.dir + "/layer_file.bin";
        ::unlink(file_out.c_str());
        u64 bytes = 0;
        t0 = Clock::now();
        {
            kagen::BinaryFileSink sink(file_out);
            for (const kagen::EdgeList& edges : chunks) sink.deliver(edges.data(), edges.size());
            sink.finish();
            bytes = sink.bytes_written();
        }
        line.num("file_write_s", seconds_since(t0)).num("file_bytes", bytes);
        account("file sink bytes", check_edge_file(file_out, gcfg.m));
        expect("file sink digest", file_digest(file_out), real.digest);
        ::unlink(file_out.c_str());
    }

    // -- dist: a real traced call, the rank jobs one by one, the merge. ---
    {
        const Workload dist = find_workload("dist_file", a.seed);
        const std::string out = a.dir + "/dist.bin";
        const Reference gnm_ref{true, real.edges, real.digest};
        CallResult d = checked_call(dist, Path::dist, traced(dist.cfg, "dist"), out, a.dir,
                                    gnm_ref);
        account("dist_file traced", d.error);
        double e2e = median(untraced);
        if (w.path != Path::dist) {
            d = checked_call(dist, Path::dist, dist.cfg, out, a.dir, gnm_ref);
            account("dist_file untraced", d.error);
            e2e = d.wall_s;
        }
        ::unlink(out.c_str());

        double rank_max = 0.0;
        u64 rank_edges  = 0;
        std::vector<std::string> rank_paths;
        for (u64 r = 0; r < kRanks; ++r) {
            kagen::dist::RankJob job;
            job.rank        = r;
            job.num_chunks  = kChunks;
            job.chunk_begin = kagen::block_begin(kChunks, kRanks, r);
            job.chunk_end   = kagen::block_begin(kChunks, kRanks, r + 1);
            job.threads     = 1;
            job.rank_path   = a.dir + "/rank" + std::to_string(r) + ".bin";
            ::unlink(job.rank_path.c_str());
            const auto t0 = Clock::now();
            const kagen::dist::RankReport rep = kagen::dist::execute_rank_job(dist.cfg, job);
            rank_max = std::max(rank_max, seconds_since(t0));
            rank_edges += rep.file_edges;
            rank_paths.push_back(job.rank_path);
        }
        expect("rank job edges", rank_edges, dist.cfg.m);

        const std::string merged = a.dir + "/merged.bin";
        u64 copied = 0, cfr = 0;
        const auto t0 = Clock::now();
        const int out_fd =
            ::open(merged.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (out_fd < 0) throw std::runtime_error("cannot create '" + merged + "'");
        kagen::fileio::write_all(out_fd, &rank_edges, sizeof(rank_edges));
        for (const std::string& path : rank_paths) {
            const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
            struct stat st{};
            if (fd < 0 || ::fstat(fd, &st) != 0 || ::lseek(fd, 8, SEEK_SET) != 8) {
                throw std::runtime_error("cannot reopen rank file '" + path + "'");
            }
            const kagen::fileio::CopyStats s =
                kagen::fileio::copy_bytes(fd, out_fd, static_cast<u64>(st.st_size) - 8);
            copied += s.bytes_copied;
            cfr += s.cfr_bytes;
            ::close(fd);
        }
        if (::close(out_fd) != 0) throw std::runtime_error("cannot close '" + merged + "'");
        const double merge_s = seconds_since(t0);
        expect("merged digest", file_digest(merged), real.digest);
        ::unlink(merged.c_str());
        for (const std::string& path : rank_paths) ::unlink(path.c_str());
        line.num("dist_e2e_s", e2e)
            .num("dist_rank_job_s", rank_max)
            .num("dist_merge_s", merge_s)
            .num("dist_merged_bytes", copied)
            .num("dist_cfr_bytes", cfr)
            .str("dist_trace", a.dir + "/dist_trace.json");
    }

    line.num("attempted", attempted).num("failed", failed).str("errors", errors).print();
}

void mode_info() {
    const bool avx512 =
        __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl");
    JsonLine()
        .str("compiler", KAGEN_BENCH_COMPILER)
        .str("build_type", KAGEN_BENCH_BUILD_TYPE)
        // The predicate variates/exp_fill.hpp dispatches the v2 fill on.
        .str("v2_fill_isa", avx512 ? "avx512dq+avx512vl" : "portable")
        .print();
}

Args parse(int argc, char** argv) {
    if (argc < 2) throw std::invalid_argument("usage: kagen_bench MODE [-w W -s S -d DIR -t SECONDS]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("flag " + flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "-w") a.workload = v;
        else if (flag == "-s") a.seed = std::stoull(v);
        else if (flag == "-d") a.dir = v;
        else if (flag == "-t") a.seconds = std::stod(v);
        else if (flag == "--inject") a.inject = v;
        else throw std::invalid_argument("unknown flag " + flag);
    }
    if (!a.inject.empty() && a.inject != "corrupt" && a.inject != "count") {
        throw std::invalid_argument("--inject takes corrupt or count");
    }
    return a;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Args a = parse(argc, argv);
        if (a.mode == "list") {
            for (const Workload& w : all_workloads()) std::printf("%s\n", w.name);
        } else if (a.mode == "info") {
            mode_info();
        } else if (a.mode == "setup") {
            mode_setup(a);
        } else if (a.mode == "measure") {
            mode_measure(a);
        } else if (a.mode == "xref") {
            mode_xref(a);
        } else if (a.mode == "trace") {
            mode_trace(a);
        } else {
            throw std::invalid_argument("unknown mode '" + a.mode + "'");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "kagen_bench: %s\n", e.what());
        return 1;
    }
    return 0;
}
