/// \file testing.hpp
/// \brief Shared statistical and edge-semantics helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "graph/edge_list.hpp"
#include "kagen.hpp"

namespace kagen::testing {

/// Configs for the facade from the per-model parameter structs the oracles
/// (brute_force, reference, resolve, edge_at) take, so a test can generate
/// through kagen::generate and check against the oracle on one instance.
inline Config to_config(Model model, const rgg::Params& params) {
    Config cfg;
    cfg.model = model; // Rgg2D or Rgg3D
    cfg.n     = params.n;
    cfg.r     = params.r;
    cfg.seed  = params.seed;
    return cfg;
}

inline Config to_config(Model model, const rdg::Params& params) {
    Config cfg;
    cfg.model = model; // Rdg2D or Rdg3D
    cfg.n     = params.n;
    cfg.seed  = params.seed;
    return cfg;
}

inline Config to_config(Model model, const hyp::Params& params) {
    Config cfg;
    cfg.model   = model; // Rhg or RhgStreaming
    cfg.n       = params.n;
    cfg.avg_deg = params.avg_deg;
    cfg.gamma   = params.gamma;
    cfg.seed    = params.seed;
    return cfg;
}

inline Config to_config(const ba::Params& params) {
    Config cfg;
    cfg.model     = Model::Ba;
    cfg.n         = params.n;
    cfg.ba_degree = params.degree;
    cfg.seed      = params.seed;
    return cfg;
}

inline Config to_config(const rmat::Params& params) {
    Config cfg;
    cfg.model  = Model::Rmat;
    cfg.n      = u64{1} << params.log_n;
    cfg.m      = params.m;
    cfg.rmat_a = params.a;
    cfg.rmat_b = params.b;
    cfg.rmat_c = params.c;
    cfg.seed   = params.seed;
    return cfg;
}

/// The edge lists ranks 0..size-1 hold after `kagen::generate(cfg, rank,
/// size)` — what an MPI job of `size` PEs would produce, one rank at a time.
inline std::vector<EdgeList> per_pe(const Config& cfg, u64 size) {
    std::vector<EdgeList> out;
    out.reserve(size);
    for (u64 rank = 0; rank < size; ++rank) {
        out.push_back(generate(cfg, rank, size).edges);
    }
    return out;
}

/// Redundant emissions in the concatenated per-chunk streams beyond the
/// canonical undirected edge set — i.e. how many duplicate copies the
/// paper's §4.2/§5.1 recomputation trick produced. 0 iff the streams are
/// globally exact-once. (Undirected canonicalization is applied, so use
/// this on undirected models only.)
inline u64 duplicate_excess(const std::vector<EdgeList>& per_chunk) {
    u64 total = 0;
    EdgeList all;
    for (const auto& part : per_chunk) {
        total += part.size();
        append(all, part);
    }
    return total - undirected_set(std::move(all)).size();
}

/// `expected_duplicates`-style assertion: a streamed emission total must be
/// the canonical edge count plus exactly the expected duplicate copies —
/// `expected_duplicates == 0` is the exact-once contract, and
/// `expected_duplicates == duplicate_excess(per_chunk)` pins as-generated
/// streams to the legacy per-chunk outputs.
inline ::testing::AssertionResult total_matches_semantics(u64 streamed_total,
                                                          u64 canonical_edges,
                                                          u64 expected_duplicates) {
    if (streamed_total == canonical_edges + expected_duplicates) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "streamed total " << streamed_total << " != canonical "
           << canonical_edges << " + expected duplicates " << expected_duplicates
           << " (off by "
           << (static_cast<i64>(streamed_total) -
               static_cast<i64>(canonical_edges + expected_duplicates))
           << ")";
}

/// Pearson chi-square statistic over observed vs expected counts.
inline double chi_square(const std::vector<double>& observed,
                         const std::vector<double>& expected) {
    double stat = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double diff = observed[i] - expected[i];
        stat += diff * diff / expected[i];
    }
    return stat;
}

/// Approximate upper critical value of the chi-square distribution with `df`
/// degrees of freedom at significance ~1e-4 (Wilson–Hilferty). Tests using
/// fixed seeds are deterministic, so a rare-tail threshold avoids flakes
/// while still catching real distribution bugs by orders of magnitude.
inline double chi_square_critical(double df, double z = 3.72) {
    const double t = 1.0 - 2.0 / (9.0 * df) + z * std::sqrt(2.0 / (9.0 * df));
    return df * t * t * t;
}

/// Bins integer samples against an exact pmf: consecutive support values are
/// merged until each bin's expected count is >= `min_expected`, then the
/// chi-square statistic and degrees of freedom are computed.
struct BinnedChiSquare {
    double statistic = 0.0;
    double df        = 0.0;
};

inline BinnedChiSquare binned_chi_square(const std::map<u64, u64>& histogram,
                                         const std::vector<double>& pmf, u64 support_lo,
                                         u64 total_samples, double min_expected = 8.0) {
    std::vector<double> obs_bins;
    std::vector<double> exp_bins;
    double obs_acc = 0.0;
    double exp_acc = 0.0;
    for (std::size_t k = 0; k < pmf.size(); ++k) {
        const auto it = histogram.find(support_lo + k);
        obs_acc += (it == histogram.end()) ? 0.0 : static_cast<double>(it->second);
        exp_acc += pmf[k] * static_cast<double>(total_samples);
        if (exp_acc >= min_expected) {
            obs_bins.push_back(obs_acc);
            exp_bins.push_back(exp_acc);
            obs_acc = exp_acc = 0.0;
        }
    }
    if (exp_acc > 0.0 && !exp_bins.empty()) { // fold the tail into the last bin
        obs_bins.back() += obs_acc;
        exp_bins.back() += exp_acc;
    }
    BinnedChiSquare out;
    out.statistic = chi_square(obs_bins, exp_bins);
    out.df        = static_cast<double>(obs_bins.size()) - 1.0;
    return out;
}

/// One-sample Kolmogorov–Smirnov statistic: sup |F_n(x) - F(x)| over the
/// sample, with `cdf` the hypothesized CDF evaluated at each sample value.
/// Samples need not be pre-sorted. For n iid samples the ~1e-4-significance
/// threshold is ks_critical(n) (asymptotic K-distribution tail:
/// c(alpha) / sqrt(n) with c(1e-4) ~ 2.08) — same rare-tail philosophy as
/// chi_square_critical: fixed-seed tests never flake, real bugs exceed the
/// threshold by orders of magnitude.
template <typename Cdf>
double ks_statistic(std::vector<double> samples, Cdf&& cdf) {
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    double stat    = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double f  = cdf(samples[i]);
        const double lo = static_cast<double>(i) / n;
        const double hi = static_cast<double>(i + 1) / n;
        stat            = std::max({stat, f - lo, hi - f});
    }
    return stat;
}

inline double ks_critical(std::size_t n, double c = 2.08) {
    return c / std::sqrt(static_cast<double>(n));
}

} // namespace kagen::testing
