#include "graph/mst.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "common/logging.h"
#include "graph/union_find.h"

namespace tenet {
namespace graph {

SpanningForest KruskalMst(const WeightedGraph& g, double bound,
                          int num_contracted) {
  TENET_CHECK(num_contracted >= 0 && num_contracted <= g.num_nodes());
  SpanningForest result;
  const std::vector<Edge>& edges = g.edges();
  std::vector<int> order;
  order.reserve(edges.size());
  for (int i = 0; i < g.num_edges(); ++i) {
    if (edges[i].weight <= bound) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&edges](int a, int b) {
    if (edges[a].weight != edges[b].weight) {
      return edges[a].weight < edges[b].weight;
    }
    return a < b;
  });

  UnionFind uf(g.num_nodes());
  for (int node = 1; node < num_contracted; ++node) uf.Union(0, node);
  for (int idx : order) {
    const Edge& e = edges[idx];
    if (uf.Union(e.u, e.v)) {
      result.edge_indices.push_back(idx);
      result.total_weight += e.weight;
      if (uf.num_sets() == 1) break;
    }
  }
  result.spans_all = (g.num_nodes() <= 1) || (uf.num_sets() == 1);
  return result;
}

SpanningForest PrimMst(const WeightedGraph& g, int root) {
  TENET_CHECK(root >= 0 && root < g.num_nodes());
  SpanningForest result;
  std::vector<bool> in_tree(g.num_nodes(), false);

  // (weight, edge_index, frontier_node)
  using Item = std::tuple<double, int, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;

  auto push_incident = [&](int node) {
    for (int edge_index : g.IncidentEdges(node)) {
      int other = g.OtherEndpoint(edge_index, node);
      if (!in_tree[other]) {
        heap.emplace(g.edges()[edge_index].weight, edge_index, other);
      }
    }
  };

  in_tree[root] = true;
  int covered = 1;
  push_incident(root);
  while (!heap.empty()) {
    auto [weight, edge_index, node] = heap.top();
    heap.pop();
    if (in_tree[node]) continue;
    in_tree[node] = true;
    ++covered;
    result.edge_indices.push_back(edge_index);
    result.total_weight += weight;
    push_incident(node);
  }
  result.spans_all = covered == g.num_nodes();
  return result;
}

}  // namespace graph
}  // namespace tenet
