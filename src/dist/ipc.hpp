/// \file ipc.hpp
/// \brief The end-of-run rank report and its wire layout.
///
/// The paper's generators need *zero* communication to produce the graph;
/// the only bytes a rank sends back are one tiny end-of-run report — its
/// `pe::ChunkRunStats`, the edge count of its rank file, and the mergeable
/// sink summaries (sink/sinks.hpp) — or, if the rank failed, the error
/// message. This header is that report and its little-endian encoding
/// (common/bytes.hpp); net/protocol.hpp carries it as the `report` message
/// over a socket, whether the rank is a forked child on a socketpair or a
/// TCP worker on another machine.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

namespace kagen::dist {

/// Frame header constants of net/socket.hpp: every frame is
/// `[kFrameMagic u64][payload bytes u64][payload]`, little-endian.
constexpr u64 kFrameMagic = 0x4b47444953545321ULL; // "KGDIST!" + version nibble

/// Sanity bound on a frame payload so a corrupt length field fails as a
/// protocol error, not an allocation attempt. A report is the fixed stats
/// fields plus at most one 8-bytes-per-vertex degree vector, so 2^37
/// (128 GiB) leaves room for degree summaries up to ~2^34 vertices —
/// far past what a single frame should ever carry in practice.
constexpr u64 kMaxFrameBytes = u64{1} << 37;

/// Everything one worker reports back to the coordinator.
struct RankReport {
    u64 rank = 0;

    /// Outcome: `ok == true` carries the stats below; `ok == false` carries
    /// only `error` (the worker caught an exception and exited nonzero).
    bool ok = true;
    std::string error;

    pe::ChunkRunStats stats;     ///< the rank's chunk-range run
    u64 chunk_begin = 0;         ///< canonical chunk range the rank executed
    u64 chunk_end   = 0;
    u64 file_edges  = 0;         ///< edges written to the rank file (0 = none)
    CountingSummary count;       ///< always collected (O(1) per worker)
    bool has_degrees = false;    ///< degree summary shipped (opt-in, O(n));
                                 ///< the coordinator releases the per-rank
                                 ///< degree vectors after merging, so in
                                 ///< DistResult::ranks only the merged
                                 ///< DistResult::degrees carries them
    DegreeStatsSummary degrees;
};

/// Serializes a report into the frame payload layout.
std::vector<u8> serialize_report(const RankReport& report);

/// Decodes a frame payload; throws std::runtime_error on malformed input.
RankReport deserialize_report(const std::vector<u8>& payload);

} // namespace kagen::dist
