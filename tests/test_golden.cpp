// Golden-file byte-identity: the v1 sampler stream is a *format*, not just
// a distribution — PR after PR may rearrange the engines, but the default
// (v1) output for a pinned (model, params, seed, rank, size) must never
// move by a single byte, or silently re-generated datasets stop matching
// published ones. These fixtures freeze a small instance of every Model
// (both RHG generators), plus the four row-major ER instances under
// sampler v2, whose bytes are pinned too; the byte-identity sweeps in
// test_er/test_dist cover self-consistency, this suite covers consistency
// *across commits*.
//
// Fixture format: u64 edge count, then count x (u64 u, u64 v), little
// endian, exactly as the edge list falls out of generate().
//
// Regeneration (only when intentionally changing a pinned stream, which is
// an API break and needs calling out in DESIGN.md):
//   KAGEN_GOLDEN_REGEN=1 ./build/test_golden
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kagen.hpp"

namespace kagen {
namespace {

struct GoldenCase {
    const char* file;
    Model model;
    u64 n;
    u64 m;       // gnm models
    double p;    // gnp models
    double r;    // rgg models
    u64 seed;
    u64 rank;
    u64 size;
    double avg_deg = 8.0; // rhg models
    double gamma   = 3.0; // rhg models
    EdgeSemantics semantics = EdgeSemantics::as_generated;
    SamplerVersion sampler  = SamplerVersion::v1;
};

// Small on purpose: a few thousand edges pin the stream just as hard as a
// few million, and the fixtures live in git.
const GoldenCase kCases[] = {
    {"gnm_directed_n2048_m4096_s7_r0of2.bin", Model::GnmDirected, 2048, 4096,
     0.0, 0.0, 7, 0, 2},
    {"gnm_undirected_n2048_m4096_s7_r1of2.bin", Model::GnmUndirected, 2048,
     4096, 0.0, 0.0, 7, 1, 2},
    {"gnp_directed_n2048_p0.001_s11_r0of2.bin", Model::GnpDirected, 2048, 0,
     0.001, 0.0, 11, 0, 2},
    {"rgg2d_n4096_r0.02_s13_r0of2.bin", Model::Rgg2D, 4096, 0, 0.0, 0.02, 13,
     0, 2},
    // The in-memory RHG's exact_once stream in query order: edges leave the
    // annulus query loop unsorted, so this pins the loop, not just the set.
    {"rhg_n2048_d8_g2.8_s7_r1of4_exact_once.bin", Model::Rhg, 2048, 0, 0.0, 0.0,
     7, 1, 4, 8.0, 2.8, EdgeSemantics::exact_once},
    // The default (as_generated) in-memory RHG stream, also in query order.
    // n = 2^13 on 2 chunks puts >= 64 cells in each outer-annulus chunk, so
    // the neighbour chunk is only partly reached by the boundary windows.
    {"rhg_n8192_d8_g3_s5_r1of2.bin", Model::Rhg, 8192, 0, 0.0, 0.0, 5, 1, 2},
    // R-MAT's alias-table stream: log_n = 12 = 5 + 5 + 2, so this also pins
    // the partial last draw.
    {"rmat_n4096_m4096_s7_r1of2.bin", Model::Rmat, 4096, 4096, 0.0, 0.0, 7, 1, 2},
    // Sampler v2 on the first instance: its bytes are ISA-independent
    // (DESIGN.md §10), so they can be pinned like v1's. Chunk 0 draws 2062
    // samples from 2^21 positions: one halving split, two spacings leaves.
    {"gnm_directed_n2048_m4096_s7_r0of2_v2.bin", Model::GnmDirected, 2048, 4096,
     0.0, 0.0, 7, 0, 2, 8.0, 3.0, EdgeSemantics::as_generated, SamplerVersion::v2},
    // Undirected G(n,p): the binomial chunk counts plus both-owner chunks.
    {"gnp_undirected_n2048_p0.002_s11_r1of2.bin", Model::GnpUndirected, 2048, 0,
     0.002, 0.0, 11, 1, 2},
    {"rgg3d_n4096_r0.06_s13_r1of2.bin", Model::Rgg3D, 4096, 0, 0.0, 0.06, 13,
     1, 2},
    // RDG streams its per-PE deduplicated edge set once the halo converges.
    {"rdg2d_n1024_s7_r0of2.bin", Model::Rdg2D, 1024, 0, 0.0, 0.0, 7, 0, 2},
    {"rdg3d_n512_s9_r1of2.bin", Model::Rdg3D, 512, 0, 0.0, 0.0, 9, 1, 2},
    // The streaming RHG's request order (sweep events, not query order).
    {"rhg_streaming_n4096_d8_g3_s9_r1of2.bin", Model::RhgStreaming, 4096, 0,
     0.0, 0.0, 9, 1, 2},
    // BA with the default ba_degree = 4: pins the dependency-chain resolve.
    {"ba_n2048_d4_s7_r1of2.bin", Model::Ba, 2048, 0, 0.0, 0.0, 7, 1, 2},
    // Sampler v2 on the other row-major ER paths, which share the block row
    // decoder with directed G(n,m): the undirected rectangle chunks, the
    // directed geometric-skip stream and the undirected per-chunk streams.
    {"gnm_undirected_n2048_m4096_s7_r1of2_v2.bin", Model::GnmUndirected, 2048,
     4096, 0.0, 0.0, 7, 1, 2, 8.0, 3.0, EdgeSemantics::as_generated, SamplerVersion::v2},
    {"gnp_directed_n2048_p0.001_s11_r0of2_v2.bin", Model::GnpDirected, 2048, 0,
     0.001, 0.0, 11, 0, 2, 8.0, 3.0, EdgeSemantics::as_generated, SamplerVersion::v2},
    {"gnp_undirected_n2048_p0.002_s11_r1of2_v2.bin", Model::GnpUndirected, 2048, 0,
     0.002, 0.0, 11, 1, 2, 8.0, 3.0, EdgeSemantics::as_generated, SamplerVersion::v2},
};

std::string golden_path(const char* file) {
    return std::string(GOLDEN_DIR) + "/" + file;
}

std::vector<unsigned char> serialize(const EdgeList& edges) {
    std::vector<unsigned char> bytes;
    bytes.reserve(8 + edges.size() * 16);
    const auto push_u64 = [&](u64 v) {
        for (int b = 0; b < 8; ++b) bytes.push_back((v >> (8 * b)) & 0xff);
    };
    push_u64(edges.size());
    for (const auto& [u, v] : edges) {
        push_u64(u);
        push_u64(v);
    }
    return bytes;
}

EdgeList generate_case(const GoldenCase& c) {
    Config cfg;
    cfg.model = c.model;
    cfg.n     = c.n;
    cfg.m     = c.m;
    cfg.p     = c.p;
    cfg.r     = c.r;
    cfg.seed  = c.seed;
    cfg.avg_deg        = c.avg_deg;
    cfg.gamma          = c.gamma;
    cfg.edge_semantics = c.semantics;
    cfg.sampler_version = c.sampler;
    return generate(cfg, c.rank, c.size).edges;
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, ByteIdentical) {
    const GoldenCase c = GetParam();
    const auto bytes   = serialize(generate_case(c));
    ASSERT_GT(bytes.size(), 8u) << "fixture instance generated no edges";

    const std::string path = golden_path(c.file);
    if (std::getenv("KAGEN_GOLDEN_REGEN") != nullptr) {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr) << "cannot write " << path;
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
        std::fclose(f);
        GTEST_SKIP() << "regenerated " << path << " (" << bytes.size()
                     << " bytes)";
    }

    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "missing fixture " << path
                          << " (run with KAGEN_GOLDEN_REGEN=1 to create)";
    std::vector<unsigned char> expect;
    unsigned char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
        expect.insert(expect.end(), buf, buf + got);
    }
    std::fclose(f);

    ASSERT_EQ(bytes.size(), expect.size())
        << c.file << ": edge count moved — the pinned stream changed";
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        ASSERT_EQ(bytes[i], expect[i])
            << c.file << ": first divergence at byte " << i
            << " — the pinned stream is no longer bit-identical";
    }
}

INSTANTIATE_TEST_SUITE_P(PinnedStreams, Golden, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                             std::string name = info.param.file;
                             for (char& ch : name) {
                                 if (!std::isalnum(static_cast<unsigned char>(ch))) {
                                     ch = '_';
                                 }
                             }
                             return name;
                         });

} // namespace
} // namespace kagen
