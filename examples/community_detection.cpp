// Community-structure scenario using the stochastic block model — the
// extension the paper names first in its future work (§9). Generates
// planted partitions at decreasing signal strength and measures how well a
// trivial label-propagation pass recovers the planted communities,
// demonstrating SBM instances as a benchmark for clustering algorithms.
//
//   ./example_community_detection [n] [blocks] [pes]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "prng/rng.hpp"
#include "sbm/sbm.hpp"
#include "sink/sinks.hpp"

using namespace kagen;

namespace {

/// One synchronous sweep of label propagation, `rounds` times.
std::vector<u64> label_propagation(const Csr& g, u64 rounds, u64 seed) {
    const u64 n = g.num_vertices();
    std::vector<u64> label(n);
    for (u64 v = 0; v < n; ++v) label[v] = v;
    Rng rng(seed);
    std::vector<u64> order(n);
    for (u64 v = 0; v < n; ++v) order[v] = v;
    for (u64 round = 0; round < rounds; ++round) {
        // Random visit order avoids pathological propagation fronts.
        for (u64 i = n; i > 1; --i) std::swap(order[i - 1], order[rng.range(i)]);
        for (const u64 v : order) {
            std::vector<std::pair<u64, u64>> counts; // (label, count)
            for (const VertexId* t = g.begin(v); t != g.end(v); ++t) {
                bool found = false;
                for (auto& [l, c] : counts) {
                    if (l == label[*t]) {
                        ++c;
                        found = true;
                        break;
                    }
                }
                if (!found) counts.emplace_back(label[*t], 1);
            }
            u64 best = label[v], best_count = 0;
            for (const auto& [l, c] : counts) {
                if (c > best_count) {
                    best       = l;
                    best_count = c;
                }
            }
            label[v] = best;
        }
    }
    return label;
}

/// Intra-block label agreement minus inter-block label agreement: 1 for a
/// perfect recovery, ~0 when labels carry no community signal (including
/// the everything-one-label collapse).
double recovery_score(const std::vector<u64>& label, u64 block_size, u64 blocks) {
    Rng rng(7);
    u64 intra_agree = 0, intra_total = 0, inter_agree = 0, inter_total = 0;
    for (int s = 0; s < 20000; ++s) {
        const u64 b1 = rng.range(blocks);
        const u64 b2 = rng.range(blocks);
        const u64 u  = b1 * block_size + rng.range(block_size);
        const u64 v  = b2 * block_size + rng.range(block_size);
        if (u == v) continue;
        if (b1 == b2) {
            ++intra_total;
            intra_agree += label[u] == label[v];
        } else {
            ++inter_total;
            inter_agree += label[u] == label[v];
        }
    }
    return static_cast<double>(intra_agree) / static_cast<double>(intra_total) -
           static_cast<double>(inter_agree) / static_cast<double>(inter_total);
}

} // namespace

int main(int argc, char** argv) {
    const u64 n      = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
    const u64 blocks = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;
    const u64 P      = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;
    const double p_in = 40.0 / static_cast<double>(n / blocks);

    std::printf("Planted-partition recovery: n = %llu, %llu blocks, "
                "intra-degree ~40\n\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(blocks));
    std::printf("%12s %12s %12s %16s\n", "p_out/p_in", "edges", "intra frac",
                "recovery score");

    for (const double ratio : {0.01, 0.05, 0.1, 0.3, 0.6}) {
        const auto params =
            sbm::planted_partition(n, blocks, p_in, ratio * p_in, 31);
        // SBM has no Model, so its per-PE sink function runs directly; each
        // PE's share is still a pure function of (params, rank, P).
        MemorySink sink;
        for (u64 rank = 0; rank < P; ++rank) sbm::generate(params, rank, P, sink);
        sink.finish();
        const EdgeList edges = undirected_set(sink.take());
        u64 intra            = 0;
        const u64 bs         = n / blocks;
        for (const auto& [u, v] : edges) intra += (u / bs == v / bs);
        const Csr g       = build_csr(edges, n, /*symmetrize=*/true);
        const auto labels = label_propagation(g, 5, 99);
        std::printf("%12.2f %12zu %12.3f %16.3f\n", ratio, edges.size(),
                    static_cast<double>(intra) / static_cast<double>(edges.size()),
                    recovery_score(labels, bs, blocks));
    }
    std::printf("\nExpected shape: recovery decays as p_out approaches p_in "
                "(the detectability transition).\n");
    return 0;
}
