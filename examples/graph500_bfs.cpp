// Graph500-style benchmark scenario (the paper's motivating use case §1):
// generate a scale-S graph with R-MAT (the incumbent Graph 500 generator)
// and with the communication-free generators the paper proposes as
// replacements (undirected G(n,m), streaming RHG), then run the Graph500
// kernel-2 workload: BFS from random roots, reporting generation rate and
// traversed edges per second (TEPS).
//
//   ./example_graph500_bfs [scale] [edgefactor] [pes]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "graph/csr.hpp"
#include "kagen.hpp"
#include "prng/rng.hpp"
#include "sink/sinks.hpp"

using namespace kagen;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

void run_workload(const char* name, const Config& cfg, u64 pes) {
    const auto t0 = std::chrono::steady_clock::now();
    MemorySink sink;
    generate_chunked(cfg, pes, sink); // one chunk per PE, on the thread pool
    sink.finish();
    const double gen_time = seconds_since(t0);

    EdgeList edges = undirected_set(sink.take());
    const u64 n    = generate(cfg, 0, 1).n;
    const Csr g    = build_csr(edges, n, /*symmetrize=*/true);

    // Kernel 2: BFS from 8 random roots with nonzero degree.
    Rng rng(12345);
    double teps_sum = 0.0;
    int runs        = 0;
    for (int i = 0; i < 8; ++i) {
        const VertexId root = rng.range(n);
        if (g.degree(root) == 0) continue;
        const auto t1 = std::chrono::steady_clock::now();
        u64 reached   = 0;
        bfs(g, root, &reached);
        const double bfs_time = seconds_since(t1);
        // Graph500 counts edges in the traversed component.
        teps_sum += static_cast<double>(edges.size()) *
                    (static_cast<double>(reached) / static_cast<double>(n)) /
                    bfs_time;
        ++runs;
    }
    std::printf("%-16s %12zu edges  generated in %7.3fs (%9.2e edges/s)  "
                "BFS: %9.2e TEPS (mean of %d roots)\n",
                name, edges.size(), gen_time,
                static_cast<double>(edges.size()) / gen_time,
                runs > 0 ? teps_sum / runs : 0.0, runs);
}

} // namespace

int main(int argc, char** argv) {
    const u64 scale  = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16;
    const u64 factor = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 16;
    const u64 pes    = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 8;
    const u64 n      = u64{1} << scale;
    const u64 m      = factor * n;

    std::printf("Graph500-style run: scale %llu (n = %llu), edgefactor %llu, "
                "%llu simulated PEs\n\n",
                static_cast<unsigned long long>(scale),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(factor),
                static_cast<unsigned long long>(pes));

    Config rmat;
    rmat.model = Model::Rmat;
    rmat.n     = n;
    rmat.m     = m;
    rmat.seed  = 7;
    run_workload("rmat", rmat, pes);

    Config gnm;
    gnm.model = Model::GnmUndirected;
    gnm.n     = n;
    gnm.m     = m;
    gnm.seed  = 7;
    run_workload("gnm_undirected", gnm, pes);

    Config rhg;
    rhg.model   = Model::RhgStreaming;
    rhg.n       = n;
    rhg.avg_deg = static_cast<double>(2 * factor);
    rhg.gamma   = 2.2; // heavy-tailed, like real web/social graphs
    rhg.seed    = 7;
    run_workload("rhg_streaming", rhg, pes);

    std::printf("\nThe paper's proposal: the communication-free generators rival "
                "R-MAT's scalability while covering richer graph families.\n");
    return 0;
}
