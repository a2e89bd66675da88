#include "graph/graph.h"

#include <utility>

#include "common/logging.h"

namespace tenet {
namespace graph {

WeightedGraph::WeightedGraph(int num_nodes)
    : num_nodes_(num_nodes), incident_(num_nodes) {
  TENET_CHECK_GE(num_nodes, 0);
}

int WeightedGraph::AddEdge(int u, int v, double weight) {
  TENET_CHECK(u >= 0 && u < num_nodes_) << "bad node " << u;
  TENET_CHECK(v >= 0 && v < num_nodes_) << "bad node " << v;
  if (u == v) return -1;
  TENET_DCHECK(FindEdge(u, v) < 0) << "edge " << u << "-" << v << " twice";
  int index = static_cast<int>(edges_.size());
  edges_.push_back(Edge{u, v, weight});
  incident_[u].push_back(index);
  incident_[v].push_back(index);
  return index;
}

int WeightedGraph::FindEdge(int u, int v) const {
  if (u == v || u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) {
    return -1;
  }
  if (incident_[v].size() < incident_[u].size()) std::swap(u, v);
  for (int edge_index : incident_[u]) {
    if (OtherEndpoint(edge_index, u) == v) return edge_index;
  }
  return -1;
}

double WeightedGraph::EdgeWeight(int u, int v, double missing) const {
  int edge_index = FindEdge(u, v);
  return edge_index < 0 ? missing : edges_[edge_index].weight;
}

bool WeightedGraph::HasEdge(int u, int v) const { return FindEdge(u, v) >= 0; }

const std::vector<int>& WeightedGraph::IncidentEdges(int node) const {
  TENET_CHECK(node >= 0 && node < num_nodes_);
  return incident_[node];
}

int WeightedGraph::OtherEndpoint(int edge_index, int node) const {
  const Edge& e = edges_[edge_index];
  TENET_DCHECK(e.u == node || e.v == node);
  return e.u == node ? e.v : e.u;
}

}  // namespace graph
}  // namespace tenet
