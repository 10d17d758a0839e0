// Ablation (§8.6.1): "Due to the costs of generating these variates,
// minimizing the number of variates yields large performance benefits."
// Quantifies the cost hierarchy the generators are built around:
//   * uniform draws (what R-MAT burns log2 n of per edge),
//   * binomial variates: inversion (small mean) vs BTRS rejection,
//   * hypergeometric variates: inversion vs HRUA rejection,
//   * hash-seeded Mersenne Twister construction (what one recursion-node
//     reseed costs — why seeds are drawn per subtree, not per sample),
//   * the sampler-v2 engine pieces: the fused bulk Exp(1) fill, and
//     sorted_sample v1 vs v2 at three densities — the ablation behind the
//     >= 2x Gnm headline claim,
//   * a ladder over one G(n,m) v2 chunk: sampler, + row decoder and sink
//     buffer, + counting sink; adjacent rungs give each layer's cost.
#include "bench_common.hpp"
#include "er/er.hpp"
#include "prng/rng.hpp"
#include "sampling/sampling.hpp"
#include "variates/batch.hpp"
#include "variates/exp_fill.hpp"
#include "variates/variates.hpp"

namespace {

using namespace kagen;

void Uniform64(benchmark::State& state) {
    Rng rng(1);
    u64 acc = 0;
    for (auto _ : state) acc += rng.bits();
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}

void Binomial_SmallMean_Inversion(benchmark::State& state) {
    Rng rng(1);
    u64 acc = 0;
    for (auto _ : state) acc += binomial(rng, 1000, 0.005); // mean 5
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}

void Binomial_LargeMean_BTRS(benchmark::State& state) {
    Rng rng(1);
    u64 acc = 0;
    for (auto _ : state) acc += binomial(rng, u64{1} << 30, 0.5);
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}

void Hypergeometric_Small_Inversion(benchmark::State& state) {
    Rng rng(1);
    u64 acc = 0;
    for (auto _ : state) acc += hypergeometric(rng, 100000, 50, 1000);
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}

void Hypergeometric_Large_HRUA(benchmark::State& state) {
    Rng rng(1);
    u64 acc = 0;
    for (auto _ : state) {
        acc += hypergeometric(rng, u64{1} << 40, u64{1} << 39, u64{1} << 24);
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}

void HashSeededRngConstruction(benchmark::State& state) {
    u64 acc = 0;
    u64 i   = 0;
    for (auto _ : state) {
        Rng rng = Rng::for_ids(42, {0x5eedULL, i++});
        acc += rng.bits();
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}

void ExpFill_FusedBranchless(benchmark::State& state) {
    // variates/exp_fill.hpp: counter -> mix -> uniform -> -log in one
    // vectorizable pass (AVX-512 clone where available).
    constexpr std::size_t kBlock = 256;
    alignas(64) double buf[kBlock];
    Rng rng(1);
    double acc = 0.0;
    for (auto _ : state) {
        fill_exponential(rng, buf, kBlock);
        acc += buf[17];
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * kBlock);
}

// sorted_sample at three densities u/k, k = 2^18 per call: 16 (just above
// the u < 13k switch to Method A), 2^14 (PerCoreThroughput's chunk shape)
// and 2^18 (perfbench gnm_count's chunk shape). items/s is samples/s.
constexpr u64 kSampleK = u64{1} << 18;

void sorted_sample_bench(benchmark::State& state, SamplerVersion version) {
    const u64 universe = kSampleK * static_cast<u64>(state.range(0));
    Rng rng(7);
    u64 acc = 0;
    for (auto _ : state) {
        sorted_sample(rng, universe, kSampleK, [&](u64 s) { acc += s; }, version);
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * kSampleK);
}

void SortedSample_V1(benchmark::State& state) { sorted_sample_bench(state, SamplerVersion::v1); }
void SortedSample_V2(benchmark::State& state) { sorted_sample_bench(state, SamplerVersion::v2); }

// The Gnp fast path's universe: PerCoreThroughput's chunk shape.
constexpr u64 kChunkUniverse = u64{16384} * 262143;

void BernoulliSample_V2(benchmark::State& state) {
    // The Gnp fast path: geometric skips at the headline density p = 1/16384.
    Rng rng(7);
    u64 acc = 0, emitted = 0;
    const double p = 1.0 / 16384.0;
    for (auto _ : state) {
        bernoulli_sample(rng, kChunkUniverse, p, [&](u64 s) {
            acc += s;
            ++emitted;
        });
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(static_cast<int64_t>(emitted));
}

// perfbench gnm_count's chunk shape: n = 2^22 and m = 2^26 on 16 chunks
// give each chunk 2^18 rows of 2^22 - 1 slots and about 2^22 samples.
// items/s is edges/s on every rung.
constexpr u64 kGnmChunkWidth    = (u64{1} << 22) - 1;
constexpr u64 kGnmChunkUniverse = (u64{1} << 18) * kGnmChunkWidth;
constexpr u64 kGnmChunkK        = u64{1} << 22;

/// A sink that drops every batch: the rung between sampler and count sink.
class NullSink final : public EdgeSink {
    void consume(const Edge*, std::size_t) override {}
};

void GnmChunkV2_Sampler(benchmark::State& state) {
    Rng rng(7);
    u64 acc = 0;
    for (auto _ : state) {
        sorted_sample_blocks(rng, kGnmChunkUniverse, kGnmChunkK,
                             [&](const u64* pos, std::size_t count, u64 offset) {
                                 acc += offset + pos[count - 1] + count;
                             },
                             SamplerVersion::v2);
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * kGnmChunkK);
}

template <typename Sink>
void gnm_chunk_emit(benchmark::State& state) {
    Sink sink;
    Rng rng(7);
    const er::RowDecoder rows(kGnmChunkWidth, 0, 0, true, sink);
    for (auto _ : state) {
        sorted_sample_blocks(rng, kGnmChunkUniverse, kGnmChunkK, rows, SamplerVersion::v2);
        sink.flush();
    }
    state.SetItemsProcessed(state.iterations() * kGnmChunkK);
}

void GnmChunkV2_NullSink(benchmark::State& state) { gnm_chunk_emit<NullSink>(state); }
void GnmChunkV2_CountingSink(benchmark::State& state) { gnm_chunk_emit<CountingSink>(state); }

BENCHMARK(Uniform64)->MinTime(0.2)->MinWarmUpTime(0.05);
BENCHMARK(Binomial_SmallMean_Inversion)->MinTime(0.2)->MinWarmUpTime(0.05);
BENCHMARK(Binomial_LargeMean_BTRS)->MinTime(0.2)->MinWarmUpTime(0.05);
BENCHMARK(Hypergeometric_Small_Inversion)->MinTime(0.2)->MinWarmUpTime(0.05);
BENCHMARK(Hypergeometric_Large_HRUA)->MinTime(0.2)->MinWarmUpTime(0.05);
BENCHMARK(HashSeededRngConstruction)->MinTime(0.2)->MinWarmUpTime(0.05);
BENCHMARK(ExpFill_FusedBranchless)->MinTime(0.2)->MinWarmUpTime(0.05);
BENCHMARK(SortedSample_V1)->Arg(16)->Arg(16384)->Arg(262144)->MinTime(0.5)->MinWarmUpTime(0.1)->Unit(benchmark::kMillisecond);
BENCHMARK(SortedSample_V2)->Arg(16)->Arg(16384)->Arg(262144)->MinTime(0.5)->MinWarmUpTime(0.1)->Unit(benchmark::kMillisecond);
BENCHMARK(BernoulliSample_V2)->MinTime(0.5)->MinWarmUpTime(0.1)->Unit(benchmark::kMillisecond);
BENCHMARK(GnmChunkV2_Sampler)->MinTime(0.5)->MinWarmUpTime(0.1)->Unit(benchmark::kMillisecond);
BENCHMARK(GnmChunkV2_NullSink)->MinTime(0.5)->MinWarmUpTime(0.1)->Unit(benchmark::kMillisecond);
BENCHMARK(GnmChunkV2_CountingSink)->MinTime(0.5)->MinWarmUpTime(0.1)->Unit(benchmark::kMillisecond);

} // namespace

KAGEN_BENCH_MAIN(
    "# Ablation (paper §8.6.1) — cost of random variates.\n"
    "# Orders the primitives the generators' O(#variates) arguments rest "
    "on; note the MT construction cost vs a single uniform.\n"
    "# PR 6 adds the sampler-engine ablation: fused vs two-pass Exp(1) "
    "refill, and sorted_sample v1 vs v2 (plus the Gnp geometric-skip path) "
    "on the headline chunk shape — items/s is samples/s, so the v2/v1 "
    "ratio here is the sampler-only speedup behind the Gnm headline.\n"
    "# GnmChunkV2_{Sampler,NullSink,CountingSink} is a ladder over one "
    "perfbench gnm_count chunk: the difference between adjacent rungs is "
    "the cost of the row decoder + sink buffer, then of the counting sink.")
