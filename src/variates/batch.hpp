/// \file batch.hpp
/// \brief Block-refilled exponential variate buffer (sampler v2).
///
/// `bernoulli_sample` draws one Exp(1) variate per emitted position. A
/// scalar draw pays a SplitMix64 step plus a libm log each; this buffer
/// instead refills 256 slots at once with the fused counter->-log(U)
/// kernel of variates/exp_fill.hpp, so the transcendental work runs at
/// vector throughput instead of one scalar call per skip.
///
/// Determinism: a BatchedVariates over a chunk-seeded Rng is a pure
/// function of (seed, consumption sequence). Both owners of a duplicated
/// chunk run the identical v2 sampler code, hence consume in the same
/// order and see identical variates — the communication-free
/// recomputation contract (DESIGN.md §2) holds for v2 exactly as for v1.
///
/// Block size: 256 doubles = 2 KiB, comfortably L1-resident alongside the
/// sampler's working set while long enough that the refill loop's vector
/// throughput dominates its ramp-up.
#pragma once

#include <cstddef>

#include "prng/rng.hpp"
#include "variates/exp_fill.hpp"

namespace kagen {

class BatchedVariates {
public:
    /// Borrows `rng`; the caller keeps it alive and must not interleave its
    /// own draws with buffered ones if reproducibility matters.
    explicit BatchedVariates(Rng& rng) : rng_(&rng) {}

    /// Next Exp(1) variate, i.e. -log(U) with U in (0, 1].
    double exponential() {
        if (exp_pos_ == kBlock) {
            fill_exponential(*rng_, exp_, kBlock);
            exp_pos_ = 0;
        }
        return exp_[exp_pos_++];
    }

private:
    static constexpr std::size_t kBlock = 256;

    alignas(64) double exp_[kBlock];
    std::size_t exp_pos_ = kBlock;
    Rng* rng_;
};

} // namespace kagen
