/// \file test_config_codec.cpp
/// \brief Adversarial coverage for encode_config/decode_config (kagen.hpp).
///
/// The config encoding is the TCP backend's job payload today and the
/// planned daemon's cache key tomorrow, so a malformed buffer must never do
/// anything but throw: no out-of-bounds read (the ASan/UBSan configurations
/// of this suite check that mechanically), no silent misdecode into a
/// *different* graph than the one encoded. Three layers of attack:
///   1. every strict prefix of a valid encoding (truncation at each byte);
///   2. every single-bit flip of a valid encoding (must throw or decode —
///      and when it decodes, re-encoding must reproduce the mutated bytes,
///      i.e. the decode was faithful, not a lucky OOB read);
///   3. a committed corpus (tests/corpus/config/*.bin, encoding v2): `ok_*`
///      files must decode and re-encode byte-identically (the
///      content-address property), `bad_*` files must throw with the
///      reason their name gives (kBadReasons below), so a file that starts
///      failing for another reason — say, an older version word — fails
///      the test instead of passing it by accident.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "kagen.hpp"

namespace {

using kagen::Config;
using kagen::u8;
using kagen::u64;

std::vector<u8> encode(const Config& cfg) {
    std::vector<u8> out;
    kagen::encode_config(out, cfg);
    return out;
}

/// Decodes a whole buffer; fails the test if trailing bytes remain.
Config decode_all(const std::vector<u8>& buf) {
    const u8* p   = buf.data();
    const u8* end = buf.data() + buf.size();
    Config cfg    = kagen::decode_config(p, end);
    EXPECT_EQ(p, end) << "decode_config left trailing bytes";
    return cfg;
}

/// A config exercising every field with distinctive values.
Config rich_config() {
    Config cfg;
    cfg.model              = kagen::Model::Rhg;
    cfg.n                  = 0x0123456789abcdefULL;
    cfg.m                  = 42;
    cfg.p                  = 0.001;
    cfg.r                  = 0.25;
    cfg.avg_deg            = 16.5;
    cfg.gamma              = 2.9;
    cfg.ba_degree          = 7;
    cfg.rmat_a             = 0.5;
    cfg.rmat_b             = 0.3;
    cfg.rmat_c             = 0.1;
    cfg.seed               = 1337;
    cfg.chunks_per_pe      = 8;
    cfg.total_chunks       = 64;
    cfg.max_buffered_bytes = 1 << 20;
    cfg.spill_path         = "/tmp/spill scratch.bin";
    cfg.sampler_version    = kagen::SamplerVersion::v2;
    cfg.edge_semantics     = kagen::EdgeSemantics::exact_once;
    return cfg;
}

bool config_equal(const Config& a, const Config& b) {
    return encode(a) == encode(b); // canonical bytes ARE config identity
}

TEST(ConfigCodec, RoundTripRich) {
    const Config cfg = rich_config();
    const Config dec = decode_all(encode(cfg));
    EXPECT_TRUE(config_equal(cfg, dec));
}

TEST(ConfigCodec, RoundTripDefault) {
    const Config dec = decode_all(encode(Config{}));
    EXPECT_TRUE(config_equal(Config{}, dec));
}

TEST(ConfigCodec, EveryTruncationThrows) {
    const std::vector<u8> full = encode(rich_config());
    for (std::size_t len = 0; len < full.size(); ++len) {
        std::vector<u8> cut(full.begin(), full.begin() + len);
        const u8* p   = cut.data();
        const u8* end = cut.data() + cut.size();
        EXPECT_THROW((void)kagen::decode_config(p, end), std::runtime_error)
            << "prefix of length " << len << " decoded without error";
    }
}

TEST(ConfigCodec, EveryBitFlipThrowsOrDecodesFaithfully) {
    const std::vector<u8> full = encode(rich_config());
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<u8> mut = full;
            mut[byte] = static_cast<u8>(mut[byte] ^ (1u << bit));
            const u8* p   = mut.data();
            const u8* end = mut.data() + mut.size();
            try {
                const Config dec = kagen::decode_config(p, end);
                // Accepted: the flip hit a non-validated field or the
                // spill-path length shrank consistently. Either way the
                // decode must be faithful: re-encoding reproduces the
                // consumed bytes exactly.
                std::vector<u8> re = encode(dec);
                ASSERT_EQ(re.size(), static_cast<std::size_t>(p - mut.data()))
                    << "byte " << byte << " bit " << bit;
                EXPECT_TRUE(std::equal(re.begin(), re.end(), mut.begin()))
                    << "unfaithful decode at byte " << byte << " bit " << bit;
            } catch (const std::runtime_error&) {
                // Rejected loudly: exactly the contract.
            }
        }
    }
}

TEST(ConfigCodec, HugeStringLengthRejectedWithoutOverflow) {
    // Craft an encoding whose spill_path length field claims 2^64 - 8
    // bytes: a naive `p + size` bound check would wrap and pass.
    Config cfg     = rich_config();
    cfg.spill_path = "";
    std::vector<u8> buf = encode(cfg);
    // The empty string's length field is followed by exactly 2 u64 fields
    // (sampler version, edge semantics).
    const std::size_t len_off = buf.size() - 3 * 8;
    for (int i = 0; i < 8; ++i) buf[len_off + static_cast<std::size_t>(i)] = 0xff;
    buf[len_off] = 0xf8;
    const u8* p   = buf.data();
    const u8* end = buf.data() + buf.size();
    EXPECT_THROW((void)kagen::decode_config(p, end), std::runtime_error);
}

TEST(ConfigCodec, UnknownEnumsRejected) {
    const Config cfg = rich_config();
    {
        std::vector<u8> buf = encode(cfg);
        buf[8] = 0x7f; // model id 127
        const u8* p = buf.data();
        EXPECT_THROW((void)kagen::decode_config(p, buf.data() + buf.size()),
                     std::runtime_error);
    }
    {
        std::vector<u8> buf = encode(cfg);
        buf[0] = 99; // encoding version 99
        const u8* p = buf.data();
        EXPECT_THROW((void)kagen::decode_config(p, buf.data() + buf.size()),
                     std::runtime_error);
    }
}

// ---------------------------------------------------------------------------
// Committed corpus
// ---------------------------------------------------------------------------

std::vector<u8> read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<u8>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Each committed `bad_*` file and a fragment of the message it must throw.
/// The v2 layout, in u64 words: version, model, n, m, p, r, avg_deg, gamma,
/// ba_degree, rmat_a, rmat_b, rmat_c, seed, chunks_per_pe, total_chunks,
/// max_buffered_bytes, spill_path (length word + bytes), sampler_version,
/// edge_semantics. Every bad file is ok_default.bin (152 bytes) with one
/// defect, except bad_version_1, which is the v1 encoding of rich_config.
const std::map<std::string, std::string> kBadReasons = {
    {"bad_empty.bin", "truncated u64"},
    {"bad_truncated_header.bin", "truncated u64"},
    {"bad_truncated_mid.bin", "truncated u64"},
    {"bad_truncated_tail.bin", "truncated u64"},
    {"bad_version_0.bin", "encoding version 0 not supported"},
    {"bad_version_1.bin", "encoding version 1 not supported"},
    {"bad_version_3.bin", "encoding version 3 not supported"},
    {"bad_model_12.bin", "unknown model id 12"},
    {"bad_model_max.bin", "unknown model id 18446744073709551615"},
    {"bad_huge_strlen.bin", "truncated string"},
    {"bad_overlong_strlen.bin", "truncated string"},
    {"bad_sampler_2.bin", "unknown sampler version 2"},
    {"bad_semantics_2.bin", "unknown edge semantics 2"},
};

TEST(ConfigCodecCorpus, CommittedFilesBehaveByName) {
    const std::filesystem::path dir = CONFIG_CORPUS_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    std::size_t ok = 0, bad = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".bin") continue;
        const std::string name  = entry.path().filename().string();
        const std::vector<u8> b = read_file(entry.path());
        const u8* p   = b.data();
        const u8* end = b.data() + b.size();
        if (name.rfind("ok_", 0) == 0) {
            ++ok;
            Config cfg;
            ASSERT_NO_THROW(cfg = kagen::decode_config(p, end)) << name;
            EXPECT_EQ(p, end) << name << " decoded with trailing bytes";
            EXPECT_EQ(encode(cfg), b)
                << name << " re-encode differs: not a canonical encoding";
        } else if (name.rfind("bad_", 0) == 0) {
            ++bad;
            const auto reason = kBadReasons.find(name);
            ASSERT_NE(reason, kBadReasons.end())
                << name << " has no expected reason in kBadReasons";
            try {
                (void)kagen::decode_config(p, end);
                ADD_FAILURE() << name << " decoded without error";
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find(reason->second), std::string::npos)
                    << name << " threw '" << e.what() << "', want '"
                    << reason->second << "'";
            }
        } else {
            FAIL() << "corpus file " << name
                   << " must be named ok_* or bad_*";
        }
    }
    // The corpus must actually exist — an empty directory would silently
    // turn this test into a no-op.
    EXPECT_GE(ok, 2u);
    EXPECT_EQ(bad, kBadReasons.size()) << "a listed bad_* file is missing";
}

} // namespace
