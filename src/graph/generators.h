#ifndef HOLIM_GRAPH_GENERATORS_H_
#define HOLIM_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace holim {

/// Synthetic graph generators used as stand-ins for the paper's SNAP
/// datasets (data/datasets.h picks one per Table 2 row, and
/// `bench_table2_datasets` prints each stand-in's shape next to the
/// paper's) and as test fixtures.
/// All generators are deterministic in their seed.

/// G(n, p)-style random digraph with expected `avg_out_degree` out-edges per
/// node (sampled, not exhaustive, so it scales to large n).
Result<Graph> GenerateErdosRenyi(NodeId n, double avg_out_degree, uint64_t seed,
                                 bool undirected = false);

/// Barabási–Albert preferential attachment. Produces a power-law degree
/// distribution like the social graphs in Table 2. `edges_per_node` new
/// (undirected by default) edges attach each arriving node.
Result<Graph> GenerateBarabasiAlbert(NodeId n, uint32_t edges_per_node,
                                     uint64_t seed, bool undirected = true);

/// Social-graph stand-in: preferential attachment where each arriving node
/// attaches c_i edges with c_i ~ 1 + Exponential(mean = avg_edges_per_node-1).
/// Unlike plain Barabási–Albert (minimum degree == mean degree), this yields
/// the SNAP-like shape — median degree well below the mean, heavy tail —
/// which is what keeps IC cascades partial instead of graph-saturating.
Result<Graph> GenerateSocialGraph(NodeId n, double avg_edges_per_node,
                                  uint64_t seed, bool undirected = true);

/// Watts–Strogatz small world: ring lattice with k neighbors, rewire prob beta.
Result<Graph> GenerateWattsStrogatz(NodeId n, uint32_t k, double beta,
                                    uint64_t seed, bool undirected = true);

/// RMAT / Kronecker-style generator (a,b,c,d quadrant probabilities); used
/// for the directed large-graph stand-ins (socLive/Twitter shapes).
struct RmatOptions {
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
  bool undirected = false;
};
Result<Graph> GenerateRmat(uint32_t scale, EdgeId num_edges, uint64_t seed,
                           const RmatOptions& options = {});

/// Rooted random tree with given branching factor cap; every node except the
/// root has exactly one parent edge (parent -> child). Used by the
/// correctness tests: EaSyIM is exact on trees (Conclusion 2).
Result<Graph> GenerateRandomTree(NodeId n, uint32_t max_children, uint64_t seed);

/// Directed path 0 -> 1 -> ... -> n-1 (OSIM closed-form tests, Lemma 8/9).
Result<Graph> GeneratePath(NodeId n);

/// Random DAG: edges only go from lower to higher node id, each forward
/// pair kept with probability `edge_probability`. Used by the paper's DAG
/// analyses (Lemmas 5-6, Conclusions 2-3): EaSyIM is exact on DAGs under
/// LT, and its IC error is bounded by the non-disjoint-path terms.
Result<Graph> GenerateRandomDag(NodeId n, double edge_probability,
                                uint64_t seed);

/// Complete bipartite-ish construction from the submodularity proof
/// (Fig. 3a): X-layer of nx nodes, Y-layer of 2*nx nodes, x_i -> y_{2i-1},y_{2i}.
Result<Graph> GenerateSubmodularityGadget(NodeId nx);

/// Layered set-cover reduction graph from the tractability proof (Fig. 3b).
/// `sets` is an incidence: sets[i] lists element indices covered by set i.
struct SetCoverGadget {
  Graph graph;
  NodeId first_set_node;      // x_i = first_set_node + i
  NodeId first_element_node;  // y_j
  NodeId first_z_node;        // z_l
  NodeId sink;                // s
};
Result<SetCoverGadget> GenerateSetCoverGadget(
    const std::vector<std::vector<NodeId>>& sets, NodeId num_elements);

}  // namespace holim

#endif  // HOLIM_GRAPH_GENERATORS_H_
