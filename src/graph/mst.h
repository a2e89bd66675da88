#ifndef TENET_GRAPH_MST_H_
#define TENET_GRAPH_MST_H_

#include <limits>
#include <vector>

#include "graph/graph.h"

namespace tenet {
namespace graph {

// Result of a spanning-tree/forest computation.
struct SpanningForest {
  /// Indices into the input graph's edges() forming the forest.
  std::vector<int> edge_indices;
  /// Sum of the selected edge weights.
  double total_weight = 0.0;
  /// True when the forest is a single tree spanning every node.
  bool spans_all = false;
};

/// Kruskal's minimum spanning forest over the edges of weight <= `bound`.
/// The paper uses Kruskal's MST (Sec. 4.2).  Ties are broken by edge index:
/// under the strict key (weight, edge index) the forest is unique, and
/// edge_indices lists it in that key order — Kruskal's emission order —
/// with total_weight summed in the same order.  The tree-cover solver's
/// decomposition walks the edges in this order; Algorithm 5 sorts the
/// cover's edges itself and does not rely on it.
///
/// Nodes [0, num_contracted) start as one root: the forest is then the MST
/// of the graph with those nodes contracted into a single node — Algorithm 1
/// steps (a)-(c) on the coherence graph, whose mention nodes come first —
/// and spans_all means it spans that contracted graph.
///
/// Computed by an O(V^2 + E) Prim that always takes the lightest crossing
/// edge under the same key, restarting at the lowest unreached node when
/// nothing crosses; only the <= V-1 chosen edges are sorted.
SpanningForest KruskalMst(
    const WeightedGraph& g,
    double bound = std::numeric_limits<double>::infinity(),
    int num_contracted = 0);

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_MST_H_
