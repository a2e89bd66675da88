#include "graph/mst.h"

#include <algorithm>

#include "common/logging.h"

namespace tenet {
namespace graph {

SpanningForest KruskalMst(const WeightedGraph& g, double bound,
                          int num_contracted) {
  TENET_CHECK(num_contracted >= 0 && num_contracted <= g.num_nodes());
  const int n = g.num_nodes();
  const std::vector<Edge>& edges = g.edges();
  // Every choice follows the strict key (weight, edge index); under it the
  // minimum spanning forest is unique, so it is Kruskal's.
  //
  // The lightest crossing edge into each node outside the tree, and its
  // weight (read from here, not through edges[], in the hot loops).
  std::vector<int> best(n, -1);
  std::vector<double> best_weight(n);
  std::vector<char> in_tree(n, 0);
  // True when `edge_index` (of `weight`) is lighter than node's best.
  auto lighter_into = [&](int node, int edge_index, double weight) {
    return best[node] < 0 || weight < best_weight[node] ||
           (weight == best_weight[node] && edge_index < best[node]);
  };
  auto join = [&](int node) {
    in_tree[node] = 1;
    for (int edge_index : g.IncidentEdges(node)) {
      const double weight = edges[edge_index].weight;
      if (weight > bound) continue;
      const int other = g.OtherEndpoint(edge_index, node);
      if (!in_tree[other] && lighter_into(other, edge_index, weight)) {
        best[other] = edge_index;
        best_weight[other] = weight;
      }
    }
  };

  SpanningForest result;
  int components = 0;
  int next_unvisited = 0;
  if (num_contracted > 0) {
    for (int node = 0; node < num_contracted; ++node) join(node);
    components = 1;
    next_unvisited = num_contracted;
  }
  while (true) {
    int pick = -1;
    for (int node = next_unvisited; node < n; ++node) {
      if (!in_tree[node] && best[node] >= 0 &&
          (pick < 0 || lighter_into(pick, best[node], best_weight[node]))) {
        pick = node;
      }
    }
    if (pick >= 0) {
      result.edge_indices.push_back(best[pick]);
      join(pick);
      continue;
    }
    // Nothing crosses: the current tree is done; root the next one at the
    // lowest node not yet in the forest.
    while (next_unvisited < n && in_tree[next_unvisited]) ++next_unvisited;
    if (next_unvisited == n) break;
    join(next_unvisited);
    ++components;
  }

  // Kruskal emits the forest's edges in key order and sums them that way.
  std::sort(result.edge_indices.begin(), result.edge_indices.end(),
            [&edges](int a, int b) {
              if (edges[a].weight != edges[b].weight) {
                return edges[a].weight < edges[b].weight;
              }
              return a < b;
            });
  for (int edge_index : result.edge_indices) {
    result.total_weight += edges[edge_index].weight;
  }
  result.spans_all = components <= 1;
  return result;
}

}  // namespace graph
}  // namespace tenet
