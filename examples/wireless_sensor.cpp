// Ad-hoc wireless sensor network scenario (paper §1/[1]): random geometric
// graphs model sensor ranges. Sweeps the transmission radius around the
// connectivity threshold r* = sqrt(ln n / (pi n)) and reports how the
// network's connectivity, degree, and clustering respond — the classic
// dimensioning question for sensor deployments.
//
//   ./example_wireless_sensor [n] [pes]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "graph/stats.hpp"
#include "kagen.hpp"
#include "sink/sinks.hpp"

using namespace kagen;

int main(int argc, char** argv) {
    const u64 n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
    const u64 P = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;

    const double r_star = std::sqrt(std::log(static_cast<double>(n)) /
                                    (std::numbers::pi * static_cast<double>(n)));
    std::printf("Wireless ad-hoc network dimensioning: n = %llu sensors, "
                "connectivity threshold r* = %.5f\n\n",
                static_cast<unsigned long long>(n), r_star);
    std::printf("%8s %12s %10s %12s %14s %12s\n", "r/r*", "edges", "avg deg",
                "max deg", "components", "clustering");

    for (const double factor : {0.5, 0.75, 1.0, 1.25, 1.5, 2.0}) {
        Config cfg;
        cfg.model = Model::Rgg2D;
        cfg.n     = n;
        cfg.r     = factor * r_star;
        cfg.seed  = 1234;
        MemorySink sink;
        generate_chunked(cfg, P, sink); // one chunk per PE, on the thread pool
        sink.finish();
        const EdgeList edges = undirected_set(sink.take());
        const auto degs      = degrees(edges, n);
        std::printf("%8.2f %12zu %10.2f %12llu %14llu %12.4f\n", factor,
                    edges.size(), average_degree(degs),
                    static_cast<unsigned long long>(max_degree(degs)),
                    static_cast<unsigned long long>(connected_components(edges, n)),
                    global_clustering_coefficient(edges, n));
    }
    std::printf("\nExpected shape: components collapse to 1 just above r*, "
                "clustering stays near the RGG constant ~0.5865.\n");
    return 0;
}
