// Synthetic graph generators and edge property initializers.
//
// The paper evaluates on SNAP/LAW graphs up to 3.6B edges. Those datasets
// are not available offline, so benches run on R-MAT stand-ins whose degree
// skew matches the heavy-tailed profile of the originals (the per-dataset
// stand-in parameters live in datasets.h).
// Weight/label initialization follows the paper's protocol exactly:
// uniform real weights from [1, 5), Pareto(alpha) power-law weights,
// degree-based weights, and uniform integer labels from [0, 4].
#ifndef FLEXIWALKER_SRC_GRAPH_GENERATORS_H_
#define FLEXIWALKER_SRC_GRAPH_GENERATORS_H_

#include <cstdint>

#include "src/graph/graph.h"

namespace flexi {

struct RmatParams {
  uint32_t scale = 10;          // 2^scale nodes
  uint32_t edge_factor = 8;     // edges ~= edge_factor * nodes
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1 - a - b - c
  uint64_t seed = 1;
};

// Kronecker/R-MAT generator: produces a directed graph with a power-law
// in/out degree distribution (Chakrabarti et al., SDM'04).
Graph GenerateRmat(const RmatParams& params);

// G(n, p)-style uniform random directed graph with expected degree `degree`.
Graph GenerateErdosRenyi(NodeId num_nodes, double avg_degree, uint64_t seed);

// Deterministic small graphs for tests.
Graph GenerateComplete(NodeId num_nodes);     // all ordered pairs, no loops
Graph GenerateCycle(NodeId num_nodes);        // v -> (v+1) mod n
Graph GenerateStar(NodeId num_leaves);        // hub 0 <-> leaves 1..n

enum class WeightDistribution {
  kUnweighted,     // h = 1 (implicit; no array stored)
  kUniform,        // h ~ Uniform[1, 5), the paper's default
  kPareto,         // h ~ 1 + Pareto(alpha), heavy-tailed
  kDegreeBased,    // h(v, u) = degree(u), Fig. 10 right
};

// Assigns property weights in place. `alpha` is used only for kPareto.
void AssignWeights(Graph& graph, WeightDistribution dist, double alpha, uint64_t seed);

// Assigns uniform labels in [0, num_labels) for MetaPath workloads.
void AssignLabels(Graph& graph, uint8_t num_labels, uint64_t seed);

// Assigns uniform edge timestamps in [0, horizon) for temporal walks.
void AssignTimestamps(Graph& graph, float horizon, uint64_t seed);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_GRAPH_GENERATORS_H_
