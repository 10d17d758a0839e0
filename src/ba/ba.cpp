#include "ba/ba.hpp"

#include "common/math.hpp"
#include "prng/spooky.hpp"

namespace kagen::ba {
namespace {

constexpr u64 kTagChase = 0xbabau;

/// Uniform value in [0, bound) derived from the hash of (seed, position).
/// One hash per chain step; rejection keeps it unbiased.
u64 hashed_uniform(u64 seed, u64 position, u64 bound) {
    const u64 threshold = (0 - bound) % bound;
    for (u64 attempt = 0;; ++attempt) {
        const u64 h = spooky::hash_words(seed, {kTagChase, position, attempt});
        if (h >= threshold) return h % bound;
    }
}

} // namespace

VertexId resolve(const Params& params, u64 position) {
    u64 pos = position;
    while (pos % 2 == 1) {
        // E[pos] = E[r] for pseudorandom r < pos: reproduced identically by
        // every PE that chases through this position.
        pos = hashed_uniform(params.seed, pos, pos);
    }
    return (pos / 2) / params.degree;
}

void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink) {
    // degree == 0 is the empty graph: the loop below never resolves.
    const u64 v_begin = block_begin(params.n, size, rank);
    const u64 v_end   = block_begin(params.n, size, rank + 1);
    for (u64 v = v_begin; v < v_end; ++v) {
        for (u64 i = v * params.degree; i < (v + 1) * params.degree; ++i) {
            sink.emit(v, resolve(params, 2 * i + 1));
        }
    }
    sink.flush();
}

} // namespace kagen::ba
