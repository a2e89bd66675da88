#ifndef TENET_GRAPH_GRAPH_H_
#define TENET_GRAPH_GRAPH_H_

#include <vector>

namespace tenet {
namespace graph {

// One undirected weighted edge, stored with the endpoints in the order they
// were inserted; (u, v) and (v, u) denote the same edge.
struct Edge {
  int u = 0;
  int v = 0;
  double weight = 0.0;
};

// A simple undirected weighted graph over dense integer node ids [0, n):
// an edge list in insertion order plus per-node incidence lists.  Each
// undirected pair is inserted at most once — the knowledge coherence graph
// emits every (mention, candidate) and concept pair exactly once — so
// edges() and each IncidentEdges() list keep the order edges were added,
// which fixes Kruskal's and Dijkstra's tie-breaks.
//
// Example:
//   WeightedGraph g(4);
//   g.AddEdge(0, 1, 0.3);
//   g.AddEdge(2, 1, 0.1);
//   for (const Edge& e : g.edges()) ...
class WeightedGraph {
 public:
  explicit WeightedGraph(int num_nodes);

  /// Inserts the undirected edge (u, v), which must not be present yet.
  /// Self-loops are ignored.  Returns the index of the stored edge, or -1
  /// for an ignored self-loop.
  int AddEdge(int u, int v, double weight);

  /// Edge weight, or `missing` when (u, v) is absent.  Scans the shorter
  /// of the two incidence lists.
  double EdgeWeight(int u, int v, double missing) const;

  /// True when the undirected edge (u, v) exists.
  bool HasEdge(int u, int v) const;

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Indices into edges() of the edges incident to `node`.
  const std::vector<int>& IncidentEdges(int node) const;

  /// The endpoint of edge `edge_index` that is not `node`.
  int OtherEndpoint(int edge_index, int node) const;

 private:
  /// Index of the edge (u, v), or -1.
  int FindEdge(int u, int v) const;

  int num_nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> incident_;  // node -> edge idx
};

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_GRAPH_H_
