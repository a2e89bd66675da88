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
/// The paper deliberately uses Kruskal's order — cheapest edges globally
/// first — so that low-confidence choices are forced to be consistent with
/// confident ones (Sec. 4.2 discussion); the tree-cover solver and
/// Algorithm 5 both rely on this edge ordering.  Ties are broken by edge
/// index, making the result deterministic.
///
/// Nodes [0, num_contracted) start as one union-find set: the forest is
/// then the MST of the graph with those nodes contracted into a single
/// root — Algorithm 1 steps (a)-(c) on the coherence graph, whose mention
/// nodes come first — and spans_all means it spans that contracted graph.
SpanningForest KruskalMst(
    const WeightedGraph& g,
    double bound = std::numeric_limits<double>::infinity(),
    int num_contracted = 0);

/// Prim's minimum spanning tree grown from `root` over root's component.
/// Provided for the Kruskal-vs-Prim ablation (see DESIGN.md §7); both
/// algorithms yield a forest of equal total weight on the same component.
SpanningForest PrimMst(const WeightedGraph& g, int root);

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_MST_H_
