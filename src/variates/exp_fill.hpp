/// \file exp_fill.hpp
/// \brief Fused bulk Exp(1) fill: counter -> mix -> uniform -> -log, one pass.
///
/// The fill supplies every Exp(1) variate of sampler v2: the spacings of a
/// `sorted_sample` leaf and the gaps of `bernoulli_sample`. A two-pass
/// refill (uniforms first, then a table-indexed log per element) gathers,
/// which blocks vectorization. This header fuses the whole derivation into
/// one branchless, table-free loop — SplitMix64 mix, uniform conversion,
/// and a division-reduced atanh-series log — that the compiler vectorizes
/// end to end when the ISA allows.
///
/// Dispatch: an AVX-512 clone is selected once per process via
/// __builtin_cpu_supports; every other build or machine takes the portable
/// scalar loop of the same arithmetic. Both copies are compiled with FP
/// contraction off (KAGEN_NO_FP_CONTRACT), in this header rather than as a
/// build flag, because every translation unit that includes it compiles its
/// own copies. Without contraction each element is the same sequence of
/// IEEE-rounded operations in either copy, so the two are bitwise equal
/// (tests/test_variates.cpp compares them) and v2 bytes do not depend on
/// the ISA of the machine that draws them (DESIGN.md §10).
#pragma once

#include <bit>
#include <cstddef>

#include "common/types.hpp"
#include "prng/rng.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define KAGEN_EXP_FILL_AVX512 1
#endif

#if defined(__clang__)
#define KAGEN_NO_FP_CONTRACT
#define KAGEN_FP_CONTRACT_OFF_PRAGMA _Pragma("clang fp contract(off)")
#elif defined(__GNUC__)
#define KAGEN_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#define KAGEN_FP_CONTRACT_OFF_PRAGMA
#else
#define KAGEN_NO_FP_CONTRACT
#define KAGEN_FP_CONTRACT_OFF_PRAGMA
#endif

namespace kagen {

namespace expfill_detail {

/// out[i] = -log(U_i) with U_i in (0, 1] the uniform of draw base+(i+1).
/// log(x): split x = 2^e * m, fold m into [1/sqrt2, sqrt2) branchlessly,
/// then log(m) = 2*atanh(t) with t = (m-1)/(m+1), |t| <= 0.1716, by the
/// odd series through t^13 (abs error < 5e-13). One divide per element,
/// amortized across vector lanes; everything else is mul/add.
#define KAGEN_EXP_FILL_BODY                                                    \
    KAGEN_FP_CONTRACT_OFF_PRAGMA                                               \
    constexpr double kLn2   = 6.93147180559945309417e-01;                      \
    constexpr double kSqrt2 = 1.41421356237309514547;                          \
    for (std::size_t i = 0; i < n; ++i) {                                      \
        const u64 z    = Rng::mix64(base + (static_cast<u64>(i) + 1) *         \
                                               Rng::kStateGamma);              \
        const double u = 1.0 - static_cast<double>(z >> 11) * 0x1.0p-53;       \
        const u64 bits = std::bit_cast<u64>(u);                                \
        const double e =                                                       \
            static_cast<double>(static_cast<i64>(bits >> 52)) - 1023.0;       \
        const double m = std::bit_cast<double>(                                \
            (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);           \
        const bool adj  = m >= kSqrt2;                                         \
        const double ms = adj ? m * 0.5 : m;                                   \
        const double ed = adj ? e + 1.0 : e;                                   \
        const double t  = (ms - 1.0) / (ms + 1.0);                             \
        const double t2 = t * t;                                               \
        double p        = 1.0 / 13.0;                                          \
        p               = p * t2 + 1.0 / 11.0;                                 \
        p               = p * t2 + 1.0 / 9.0;                                  \
        p               = p * t2 + 1.0 / 7.0;                                  \
        p               = p * t2 + 0.2;                                        \
        p               = p * t2 + 1.0 / 3.0;                                  \
        p               = p * t2 + 1.0;                                        \
        out[i]          = -(ed * kLn2 + (2.0 * t) * p);                        \
    }

KAGEN_NO_FP_CONTRACT inline void fill_scalar(u64 base, double* out, std::size_t n) {
    KAGEN_EXP_FILL_BODY
}

#if KAGEN_EXP_FILL_AVX512
__attribute__((target("avx512f,avx512dq,avx512vl,fma"))) KAGEN_NO_FP_CONTRACT inline void
fill_avx512(u64 base, double* out, std::size_t n) {
    KAGEN_EXP_FILL_BODY
}
#endif

#undef KAGEN_EXP_FILL_BODY
#undef KAGEN_FP_CONTRACT_OFF_PRAGMA
#undef KAGEN_NO_FP_CONTRACT

} // namespace expfill_detail

/// Fills `out` with `n` Exp(1) variates, consuming `n` draws from `rng`
/// (state-compatible with n bits() calls). ISA-dispatched once per process.
inline void fill_exponential(Rng& rng, double* out, std::size_t n) {
    const u64 base = rng.reserve_block(n);
#if KAGEN_EXP_FILL_AVX512
    static const bool kHaveAvx512 = __builtin_cpu_supports("avx512dq") &&
                                    __builtin_cpu_supports("avx512vl");
    if (kHaveAvx512) {
        expfill_detail::fill_avx512(base, out, n);
        return;
    }
#endif
    expfill_detail::fill_scalar(base, out, n);
}

} // namespace kagen
