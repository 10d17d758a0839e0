/// \file protocol.hpp
/// \brief Wire messages between the coordinator and its ranks, over TCP or
///        a forked rank's socketpair.
///
/// Every message is one frame (dist/ipc layout over net/socket.hpp) whose
/// payload starts with a u64 message type. The conversation per worker is:
///
///   worker      → coordinator   hello        {protocol version}
///   coordinator → worker        hello        {protocol version}
///   coordinator → worker        job          {JobSpec: canonical Config
///                                             encode + rank/chunk range}
///   worker      → coordinator   report       {dist::RankReport —
///                                             dist::serialize_report bytes}
///   worker      → coordinator   telemetry    {obs::RankTelemetry}
///                                            (only if the job set want_trace)
///   worker      → coordinator   file header  {edges, payload bytes}   (gather)
///                               …raw payload bytes, outside any frame…
///           or                  file info    {path, edges, bytes}   (manifest)
///
/// The two-way hello catches a non-kagen peer (or a version skew) on both
/// ends before any job state exists. Decoders validate the type tag, every
/// enum, and that the payload is consumed exactly — trailing bytes are a
/// protocol error, not padding.
///
/// Version 2 added `JobSpec::want_trace` and the telemetry message; the
/// strict hello means v1/v2 peers refuse each other up front instead of
/// mis-framing mid-run.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/ipc.hpp"
#include "kagen.hpp"
#include "obs/trace.hpp"

namespace kagen::net {

constexpr u64 kProtocolVersion = 2;

enum class Msg : u64 {
    hello     = 1,
    job       = 2,
    report    = 3,
    file      = 4,
    file_info = 5,
    telemetry = 6,
};

/// First u64 of a frame payload; throws on an empty/truncated payload.
Msg peek_type(const std::vector<u8>& payload);

/// Human-readable message-type name for diagnostics.
const char* msg_name(Msg type);

// --- hello -----------------------------------------------------------------

std::vector<u8> encode_hello();

/// Validates type + protocol version; throws a descriptive error otherwise.
void decode_hello(const std::vector<u8>& payload);

// --- job -------------------------------------------------------------------

/// Everything a worker needs to run its share: the full generation Config
/// (canonical encode, kagen.hpp) plus the slice assignment and the output
/// contract.
struct JobSpec {
    Config cfg;
    u64 rank        = 0;
    u64 num_workers = 0; ///< total workers W of the run (diagnostics)
    u64 num_chunks  = 0; ///< canonical chunk count C
    u64 chunk_begin = 0; ///< [chunk_begin, chunk_end) assigned to this rank
    u64 chunk_end   = 0;
    u64 threads     = 1; ///< pool threads inside the worker
    bool want_file  = false; ///< write a rank file at all
    bool send_file  = false; ///< stream it back (gather) vs keep it (manifest)
    bool degree_stats = false; ///< collect + ship the O(n) degree summary
    bool want_trace = false; ///< record + ship trace spans and metrics (v2)
};

std::vector<u8> encode_job(const JobSpec& job);
JobSpec decode_job(const std::vector<u8>& payload);

// --- report ----------------------------------------------------------------

std::vector<u8> encode_report(const dist::RankReport& report);
dist::RankReport decode_report(const std::vector<u8>& payload);

// --- telemetry -------------------------------------------------------------

/// The rank's trace events + metrics delta (obs::serialize_telemetry bytes
/// behind the type tag). Sent right after the report when the job asked for
/// it, before any file transfer.
std::vector<u8> encode_telemetry(const obs::RankTelemetry& telemetry);
obs::RankTelemetry decode_telemetry(const std::vector<u8>& payload);

// --- file transfer ---------------------------------------------------------

/// Announces the raw rank-file payload that follows the frame: exactly
/// `payload_bytes` bytes (16 per edge, header already stripped by the
/// worker) streamed outside any frame.
struct FileHeader {
    u64 edges         = 0;
    u64 payload_bytes = 0;
};

std::vector<u8> encode_file_header(const FileHeader& header);
FileHeader decode_file_header(const std::vector<u8>& payload);

/// Manifest mode: the worker keeps its rank file node-local and reports
/// where it lives instead of streaming it back.
struct FileInfo {
    std::string path; ///< absolute path on the worker's machine
    u64 edges = 0;
    u64 bytes = 0; ///< on-disk size (8-byte header + 16 per edge)
};

std::vector<u8> encode_file_info(const FileInfo& info);
FileInfo decode_file_info(const std::vector<u8>& payload);

} // namespace kagen::net
