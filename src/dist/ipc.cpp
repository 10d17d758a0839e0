#include "dist/ipc.hpp"

#include <stdexcept>

#include "common/bytes.hpp"

namespace kagen::dist {
namespace {

void put_chunk_run_stats(std::vector<u8>& out, const pe::ChunkRunStats& s) {
    bytes::put_u64(out, s.num_chunks);
    bytes::put_u64(out, s.workers);
    bytes::put_f64(out, s.seconds);
    bytes::put_u64(out, s.peak_buffered_bytes);
    bytes::put_u64(out, s.spilled_chunks);
    bytes::put_u64(out, s.spilled_bytes);
}

pe::ChunkRunStats get_chunk_run_stats(const u8*& p, const u8* end) {
    pe::ChunkRunStats s;
    s.num_chunks          = bytes::get_u64(p, end);
    s.workers             = bytes::get_u64(p, end);
    s.seconds             = bytes::get_f64(p, end);
    s.peak_buffered_bytes = bytes::get_u64(p, end);
    s.spilled_chunks      = bytes::get_u64(p, end);
    s.spilled_bytes       = bytes::get_u64(p, end);
    return s;
}

} // namespace

std::vector<u8> serialize_report(const RankReport& report) {
    std::vector<u8> out;
    bytes::put_u64(out, report.rank);
    bytes::put_u64(out, report.ok ? 1 : 0);
    if (!report.ok) {
        bytes::put_string(out, report.error);
        return out;
    }
    put_chunk_run_stats(out, report.stats);
    bytes::put_u64(out, report.chunk_begin);
    bytes::put_u64(out, report.chunk_end);
    bytes::put_u64(out, report.file_edges);
    report.count.serialize(out);
    bytes::put_u64(out, report.has_degrees ? 1 : 0);
    if (report.has_degrees) report.degrees.serialize(out);
    return out;
}

RankReport deserialize_report(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    RankReport report;
    report.rank = bytes::get_u64(p, end);
    report.ok   = bytes::get_u64(p, end) != 0;
    if (!report.ok) {
        report.error = bytes::get_string(p, end);
        return report;
    }
    report.stats       = get_chunk_run_stats(p, end);
    report.chunk_begin = bytes::get_u64(p, end);
    report.chunk_end   = bytes::get_u64(p, end);
    report.file_edges  = bytes::get_u64(p, end);
    report.count       = CountingSummary::deserialize(p, end);
    report.has_degrees = bytes::get_u64(p, end) != 0;
    if (report.has_degrees) report.degrees = DegreeStatsSummary::deserialize(p, end);
    if (p != end) throw std::runtime_error("dist ipc: trailing bytes in report frame");
    return report;
}

} // namespace kagen::dist
