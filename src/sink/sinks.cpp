#include "sink/sinks.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/fileio.hpp"
#include "obs/trace.hpp"

namespace kagen {

// ---------------------------------------------------------------------------
// Mergeable summaries
// ---------------------------------------------------------------------------

namespace {

EdgeSemantics semantics_from_wire(u64 value) {
    switch (value) {
        case 0: return EdgeSemantics::as_generated;
        case 1: return EdgeSemantics::exact_once;
    }
    throw std::runtime_error("summary: unknown edge semantics tag " +
                             std::to_string(value));
}

u64 semantics_to_wire(EdgeSemantics semantics) {
    return semantics == EdgeSemantics::exact_once ? 1 : 0;
}

} // namespace

void CountingSummary::merge(const CountingSummary& other) {
    if (semantics != other.semantics) {
        throw std::invalid_argument(
            "CountingSummary::merge: semantics mismatch (" +
            std::string(semantics_name(semantics)) + " vs " +
            semantics_name(other.semantics) + ")");
    }
    num_edges += other.num_edges;
    num_self_loops += other.num_self_loops;
}

std::string CountingSummary::str() const {
    return "edges[" + std::string(semantics_name(semantics)) +
           "]=" + std::to_string(num_edges) +
           " self_loops=" + std::to_string(num_self_loops);
}

void CountingSummary::serialize(std::vector<u8>& out) const {
    bytes::put_u64(out, semantics_to_wire(semantics));
    bytes::put_u64(out, num_edges);
    bytes::put_u64(out, num_self_loops);
}

CountingSummary CountingSummary::deserialize(const u8*& p, const u8* end) {
    CountingSummary s;
    s.semantics      = semantics_from_wire(bytes::get_u64(p, end));
    s.num_edges      = bytes::get_u64(p, end);
    s.num_self_loops = bytes::get_u64(p, end);
    return s;
}

void DegreeStatsSummary::merge(const DegreeStatsSummary& other) {
    if (semantics != other.semantics) {
        throw std::invalid_argument(
            "DegreeStatsSummary::merge: semantics mismatch (" +
            std::string(semantics_name(semantics)) + " vs " +
            semantics_name(other.semantics) + ")");
    }
    if (degrees.size() != other.degrees.size()) {
        throw std::invalid_argument(
            "DegreeStatsSummary::merge: vertex count mismatch (" +
            std::to_string(degrees.size()) + " vs " +
            std::to_string(other.degrees.size()) + ")");
    }
    num_edges += other.num_edges;
    for (std::size_t v = 0; v < degrees.size(); ++v) degrees[v] += other.degrees[v];
}

double DegreeStatsSummary::average_degree() const {
    if (degrees.empty()) return 0.0;
    u128 sum = 0;
    for (const u64 d : degrees) sum += d;
    return static_cast<double>(sum) / static_cast<double>(degrees.size());
}

u64 DegreeStatsSummary::max_degree() const {
    return degrees.empty() ? 0 : *std::max_element(degrees.begin(), degrees.end());
}

std::string DegreeStatsSummary::str() const {
    char avg[32];
    std::snprintf(avg, sizeof(avg), "%.4f", average_degree());
    return "edges[" + std::string(semantics_name(semantics)) +
           "]=" + std::to_string(num_edges) + " avg_deg=" + avg +
           " max_deg=" + std::to_string(max_degree());
}

void DegreeStatsSummary::serialize(std::vector<u8>& out) const {
    bytes::put_u64(out, semantics_to_wire(semantics));
    bytes::put_u64(out, num_edges);
    bytes::put_u64_vector(out, degrees);
}

DegreeStatsSummary DegreeStatsSummary::deserialize(const u8*& p, const u8* end) {
    DegreeStatsSummary s;
    s.semantics = semantics_from_wire(bytes::get_u64(p, end));
    s.num_edges = bytes::get_u64(p, end);
    s.degrees   = bytes::get_u64_vector(p, end);
    return s;
}

std::string CountingSink::summary() const {
    return summarize().str();
}

CountingSummary CountingSink::summarize() const {
    CountingSummary s;
    s.semantics      = semantics_;
    s.num_edges      = num_edges_;
    s.num_self_loops = num_self_loops_;
    return s;
}

void CountingSink::consume(const Edge* edges, std::size_t count) {
    u64 loops = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (edges[i].first == edges[i].second) ++loops;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    num_edges_ += count;
    num_self_loops_ += loops;
}

std::string DegreeStatsSink::summary() const {
    return summarize().str();
}

DegreeStatsSummary DegreeStatsSink::summarize() const {
    DegreeStatsSummary s;
    s.semantics = semantics_;
    s.num_edges = num_edges_;
    s.degrees   = degrees_;
    return s;
}

void DegreeStatsSink::consume(const Edge* edges, std::size_t count) {
    // Validate the whole batch before touching any counter: an endpoint
    // >= n (corrupt input file, miscounted n) must throw, not scribble past
    // the end of degrees_ — and must leave the histogram unchanged.
    const u64 n = degrees_.size();
    for (std::size_t i = 0; i < count; ++i) {
        if (edges[i].first >= n || edges[i].second >= n) {
            const VertexId bad =
                edges[i].first >= n ? edges[i].first : edges[i].second;
            throw std::out_of_range(
                "DegreeStatsSink: edge endpoint " + std::to_string(bad) +
                " out of range for n=" + std::to_string(n));
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    num_edges_ += count;
    for (std::size_t i = 0; i < count; ++i) {
        ++degrees_[edges[i].first];
        ++degrees_[edges[i].second];
    }
}

double DegreeStatsSink::average_degree() const {
    if (degrees_.empty()) return 0.0;
    u128 sum = 0;
    for (const u64 d : degrees_) sum += d;
    return static_cast<double>(sum) / static_cast<double>(degrees_.size());
}

u64 DegreeStatsSink::max_degree() const {
    return degrees_.empty() ? 0 : *std::max_element(degrees_.begin(), degrees_.end());
}

std::vector<u64> DegreeStatsSink::degree_histogram() const {
    std::vector<u64> hist(max_degree() + 1, 0);
    for (const u64 d : degrees_) ++hist[d];
    return hist;
}

// The bulk-write fast path hands Edge arrays to write(2) as raw bytes, so
// the in-memory layout must equal the file format (u64 u, u64 v, no padding).
// (Standard-layout members sit in declaration order — first, then second —
// so the array's object representation is exactly the u64 pair stream the
// format specifies; reading an object's bytes for a write needs no
// trivially-copyable guarantee. The spill layer has written Edge arrays as
// raw bytes since PR 3 under the same reasoning, and
// tests/test_bulk_io.cpp pins bulk output == the reference writer's.)
static_assert(sizeof(Edge) == 2 * sizeof(u64),
              "Edge must be two packed u64 for the bulk file-sink write");
static_assert(std::is_standard_layout_v<Edge>,
              "Edge layout must be declaration-ordered for the bulk write");

BinaryFileSink::BinaryFileSink(const std::string& path, std::size_t buffer_edges)
    : EdgeSink(buffer_edges), path_(path),
      fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)) {
    if (fd_ < 0) throw std::runtime_error("cannot open '" + path + "'");
    stage_ = std::make_unique<char[]>(kStageBytes);
    // make_unique zeroes the stage, so its first 8 bytes are the
    // placeholder edge count that finish() patches.
    staged_        = sizeof(num_edges_);
    bytes_written_ = sizeof(num_edges_);
}

BinaryFileSink::~BinaryFileSink() {
    // Reached with fd_ >= 0 only when finish() was never called — an
    // abort/exception path where the output is already invalid (header
    // still holds the placeholder count). finish() is where a close error
    // must be (and is) surfaced; here a warning is all a destructor can do.
    fileio::close_or_warn(fd_, "abandoned output file");
}

void BinaryFileSink::write_out(const void* data, std::size_t bytes) {
    try {
        fileio::write_all(fd_, data, bytes);
    } catch (const std::runtime_error& e) {
        // Fail loudly now, and for good: finish() would otherwise back-patch
        // a header claiming edges that never reached the disk (e.g. ENOSPC).
        failed_ = true;
        throw std::runtime_error("short write to '" + path_ + "': " + e.what());
    }
}

void BinaryFileSink::write_staged() {
    if (staged_ == 0) return;
    write_out(stage_.get(), staged_);
    staged_ = 0;
}

void BinaryFileSink::consume(const Edge* edges, std::size_t count) {
    static obs::Counter& edges_ctr =
        obs::Registry::global().counter("sink.edges_written");
    static obs::Counter& bytes_ctr =
        obs::Registry::global().counter("sink.bytes_written");
    const std::size_t bytes = count * sizeof(Edge);
    const obs::Span span(obs::Phase::sink_write, bytes);
    // Large batches (arena slabs) are written in place: copying them into
    // the stage first would only add a memcpy in front of the same write.
    const bool direct = bytes >= kDirectWriteBytes;
    if (direct || staged_ + bytes > kStageBytes) write_staged();
    if (direct) {
        write_out(edges, bytes);
    } else {
        std::memcpy(stage_.get() + staged_, edges, bytes);
        staged_ += bytes;
    }
    num_edges_ += count;
    bytes_written_ += bytes;
    edges_ctr.add(count);
    bytes_ctr.add(bytes);
}

void BinaryFileSink::finish() {
    if (finished_) return;
    flush();
    if (failed_) {
        throw std::runtime_error("cannot finish '" + path_ +
                                 "': an earlier write failed");
    }
    write_staged();
    if (::pwrite(fd_, &num_edges_, sizeof(num_edges_), 0) !=
        static_cast<ssize_t>(sizeof(num_edges_))) {
        throw std::runtime_error("cannot patch edge count in '" + path_ + "'");
    }
    bytes_written_ += sizeof(num_edges_);
    const int fd = fd_;
    fd_          = -1;
    if (::close(fd) != 0) throw std::runtime_error("cannot close '" + path_ + "'");
    finished_ = true;
}

} // namespace kagen
