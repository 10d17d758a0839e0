// Complex-network analysis scenario (paper §1/[2, 9]): random hyperbolic
// graphs reproduce the heavy-tailed degree distributions and clustering of
// social networks. Generates RHG instances across power-law exponents and
// reports the fitted exponent, hub structure, and clustering — the checks an
// algorithm designer would run before using synthetic data as a benchmark.
//
//   ./example_social_network [n] [pes]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "graph/stats.hpp"
#include "kagen.hpp"
#include "sink/sinks.hpp"

using namespace kagen;

int main(int argc, char** argv) {
    const u64 n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 30000;
    const u64 P = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;

    std::printf("Synthetic social networks via RHG: n = %llu, target degree 16\n\n",
                static_cast<unsigned long long>(n));
    std::printf("%8s %12s %10s %12s %14s %12s %12s\n", "gamma", "edges", "avg deg",
                "max deg", "gamma (MLE)", "clustering", "components");

    for (const double gamma : {2.2, 2.5, 2.8, 3.1}) {
        Config cfg;
        cfg.model   = Model::RhgStreaming;
        cfg.n       = n;
        cfg.avg_deg = 16;
        cfg.gamma   = gamma;
        cfg.seed    = 2718;
        MemorySink sink;
        generate_chunked(cfg, P, sink); // one chunk per PE, on the thread pool
        sink.finish();
        const EdgeList edges = undirected_set(sink.take());
        const auto degs      = degrees(edges, n);
        std::printf("%8.1f %12zu %10.2f %12llu %14.2f %12.4f %12llu\n", gamma,
                    edges.size(), average_degree(degs),
                    static_cast<unsigned long long>(max_degree(degs)),
                    power_law_exponent_mle(degs, 16),
                    global_clustering_coefficient(edges, n),
                    static_cast<unsigned long long>(connected_components(edges, n)));
    }
    std::printf("\nExpected shape: fitted exponent tracks gamma, hubs grow as "
                "gamma drops, clustering stays high (hyperbolic locality).\n");
    return 0;
}
