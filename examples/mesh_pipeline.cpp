// Scientific-computing mesh pipeline (paper §2.1.4: Delaunay graphs "as a
// good model for meshes as they are frequently used in scientific
// computing", with periodic boundary conditions): generate a periodic RDG
// mesh in parallel, validate its structural invariants, and export it in
// METIS format for a graph partitioner plus a binary edge list for fast
// reloading.
//
//   ./example_mesh_pipeline [n] [pes] [outdir]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "sink/sinks.hpp"

using namespace kagen;

int main(int argc, char** argv) {
    const u64 n           = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5000;
    const u64 P           = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;
    const std::string dir = argc > 3 ? argv[3] : "/tmp";

    Config cfg;
    cfg.model = Model::Rdg2D;
    cfg.n     = n;
    cfg.seed  = 5;

    std::printf("Periodic Delaunay mesh: n = %llu vertices on %llu PEs\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(P));
    MemorySink sink;
    generate_chunked(cfg, P, sink); // one chunk per PE, on the thread pool
    sink.finish();
    const EdgeList edges = undirected_set(sink.take());

    // Structural validation: a triangulated torus satisfies E = 3V exactly,
    // every vertex has degree >= 3, and the mesh is connected.
    const auto degs = degrees(edges, n);
    std::printf("  edges:           %zu (torus identity 3V = %llu)\n", edges.size(),
                static_cast<unsigned long long>(3 * n));
    std::printf("  degree avg/max:  %.2f / %llu\n", average_degree(degs),
                static_cast<unsigned long long>(max_degree(degs)));
    std::printf("  components:      %llu\n",
                static_cast<unsigned long long>(connected_components(edges, n)));
    if (edges.size() != 3 * n) {
        std::printf("  WARNING: torus Euler identity violated\n");
        return 1;
    }

    const std::string metis_path = dir + "/mesh.metis";
    const std::string bin_path   = dir + "/mesh.bin";
    io::write_metis(metis_path, edges, n);
    io::write_edge_list_binary(bin_path, edges);
    std::printf("  wrote %s and %s\n", metis_path.c_str(), bin_path.c_str());

    // Round-trip check of the binary format.
    const EdgeList reloaded = io::read_edge_list_binary(bin_path);
    std::printf("  binary round-trip: %s\n",
                reloaded == edges ? "identical" : "MISMATCH");
    return reloaded == edges ? 0 : 1;
}
