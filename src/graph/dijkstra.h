#ifndef TENET_GRAPH_DIJKSTRA_H_
#define TENET_GRAPH_DIJKSTRA_H_

#include <limits>
#include <vector>

#include "graph/graph.h"

namespace tenet {
namespace graph {

// Single-source shortest path result over non-negative edge weights.
struct ShortestPaths {
  /// distance[v] is the cost of the cheapest path source -> v, or
  /// kUnreachable when no path exists.
  std::vector<double> distance;
  /// predecessor_edge[v] is the index (into the graph's edges()) of the last
  /// edge on the cheapest path to v, or -1 for the source / unreachable.
  std::vector<int> predecessor_edge;

  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();

  /// Reconstructs the node sequence source..target (empty if unreachable).
  std::vector<int> PathTo(const WeightedGraph& g, int target) const;
};

/// Dijkstra from `source`.  All edge weights must be >= 0 (semantic
/// distances in the coherence graph are by construction in [0, 2]).
ShortestPaths Dijkstra(const WeightedGraph& g, int source);

/// Dijkstra restricted to edges with weight <= `bound`; the maximum-matching
/// step of Algorithm 1 runs it on the unpruned coherence graph, where only
/// edges surviving step (a)'s pruning may be traversed.  Heavier edges are
/// skipped in place, so the incidence order — and every tie-break — is
/// that of the pruned graph.
ShortestPaths DijkstraBounded(const WeightedGraph& g, int source,
                              double bound);

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_DIJKSTRA_H_
