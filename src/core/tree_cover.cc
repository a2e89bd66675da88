#include "core/tree_cover.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "core/tree_split.h"
#include "graph/dijkstra.h"
#include "graph/hopcroft_karp.h"
#include "graph/mst.h"
#include "graph/tree.h"
#include "obs/metrics.h"

namespace tenet {
namespace core {
namespace {

// Writes `edges`, parent -> child in BFS order from `tree->root`, as the
// edges, nodes and weight of `tree` (weight summed in that order).
void SetTreeEdges(const std::vector<graph::TreeEdge>& edges, CoverTree* tree) {
  tree->edges.clear();
  tree->edges.reserve(edges.size());
  tree->nodes.assign(1, tree->root);
  tree->nodes.reserve(edges.size() + 1);
  tree->weight = 0.0;
  for (const graph::TreeEdge& e : edges) {
    tree->edges.push_back(graph::Edge{e.parent, e.child, e.weight});
    tree->nodes.push_back(e.child);
    tree->weight += e.weight;
  }
}

// Accumulates distinct edges/nodes of one cover tree, starting from the
// mention's own (leftover) tree.
class CoverTreeAccumulator {
 public:
  explicit CoverTreeAccumulator(const CoverTree& seed) {
    tree_.root = seed.root;
    AddNode(seed.root);
    for (const graph::Edge& e : seed.edges) AddEdge(e.u, e.v, e.weight);
  }

  void AddNode(int node) {
    if (seen_nodes_.insert(node).second) tree_.nodes.push_back(node);
  }

  void AddEdge(int u, int v, double weight) {
    uint64_t lo = static_cast<uint64_t>(std::min(u, v));
    uint64_t hi = static_cast<uint64_t>(std::max(u, v));
    if (!seen_edges_.insert((hi << 32) | lo).second) return;
    tree_.edges.push_back(graph::Edge{u, v, weight});
    tree_.weight += weight;
    AddNode(u);
    AddNode(v);
  }

  void AddTree(const graph::RootedTree& t) {
    AddNode(t.root());
    for (const graph::TreeEdge& e : t.edges()) {
      AddEdge(e.parent, e.child, e.weight);
    }
  }

  CoverTree Take() { return std::move(tree_); }

 private:
  CoverTree tree_;
  std::unordered_set<int> seen_nodes_;
  std::unordered_set<uint64_t> seen_edges_;
};

}  // namespace

double TreeCover::Cost() const {
  double cost = 0.0;
  for (const CoverTree& t : trees) cost = std::max(cost, t.weight);
  return cost;
}

int TreeCover::TotalEdges() const {
  int total = 0;
  for (const CoverTree& t : trees) total += static_cast<int>(t.edges.size());
  return total;
}

Result<TreeCover> TreeCoverSolver::Solve(const CoherenceGraph& cg,
                                         double bound,
                                         TreeCoverStats* stats) const {
  const bool faulted = TENET_FAULT_POINT("core/cover_solve");
  // Only the fault (the stand-in for an unavailable solver backend) is a
  // dependency failure; kBoundTooSmall below is an expected, retryable
  // outcome of Algorithm 1 and must not trip a breaker.
  TENET_OBSERVE_DEPENDENCY("core/cover_solve", !faulted);
  static obs::DependencyOpCounters& ops =
      *new obs::DependencyOpCounters("core/cover_solve");
  ops.Record(!faulted);
  if (faulted) {
    return Status::Internal("injected fault: cover solver unavailable");
  }
  if (bound <= 0.0) {
    return Status::InvalidArgument("tree cover bound must be positive");
  }
  const int num_mentions = cg.num_mentions();
  const int num_concepts = cg.num_concept_nodes();

  TreeCover cover;
  cover.trees.resize(num_mentions);
  for (int m = 0; m < num_mentions; ++m) {
    cover.trees[m].root = m;
    cover.trees[m].nodes = {m};
  }
  if (num_concepts == 0) return cover;  // every mention isolated

  // ---- Steps (a)-(c): prune, contract the mentions into r, MST ----------
  // All on cg.graph(): KruskalMst skips edges heavier than B and seeds the
  // mention nodes [0, M) as one root, which is r.  Every concept node has
  // exactly one mention edge (its owner's), so the contraction never merges
  // parallel edges.
  const graph::WeightedGraph& g = cg.graph();
  if (stats != nullptr) {
    stats->pruned_edges = static_cast<int>(std::count_if(
        g.edges().begin(), g.edges().end(),
        [bound](const graph::Edge& e) { return e.weight > bound; }));
  }
  graph::SpanningForest mst = graph::KruskalMst(g, bound, num_mentions);
  if (!mst.spans_all) {
    return Status::BoundTooSmall(
        "pruned contracted graph is disconnected; B below B*");
  }
  if (stats != nullptr) {
    stats->mst_edges = static_cast<int>(mst.edge_indices.size());
  }

  // ---- Step (d): decompose r back into the mentions ----------------------
  // Each MST edge with a mention endpoint (a star edge) hangs one component
  // of MST \ {r} off that mention.  The star edges per mention and the
  // concept-concept MST adjacency are flat arrays in MST order: count per
  // key, prefix-sum to range ends, then fill backwards, which leaves
  // at[k]..at[k + 1] as key k's range.
  const int num_nodes = cg.num_nodes();
  std::vector<int> star_at(num_mentions + 1, 0);
  std::vector<int> adj_at(num_nodes + 1, 0);
  for (int edge_index : mst.edge_indices) {
    const graph::Edge& e = g.edges()[edge_index];
    const int lo = std::min(e.u, e.v);  // mention ids precede concept ids
    if (cg.IsMentionNode(lo)) {
      ++star_at[lo];
    } else {
      ++adj_at[e.u];
      ++adj_at[e.v];
    }
  }
  std::partial_sum(star_at.begin(), star_at.end(), star_at.begin());
  std::partial_sum(adj_at.begin(), adj_at.end(), adj_at.begin());
  std::vector<graph::TreeEdge> stars(star_at[num_mentions]);
  std::vector<std::pair<int, double>> adj(adj_at[num_nodes]);
  for (auto it = mst.edge_indices.rbegin(); it != mst.edge_indices.rend();
       ++it) {
    const graph::Edge& e = g.edges()[*it];
    const int lo = std::min(e.u, e.v);
    if (cg.IsMentionNode(lo)) {
      stars[--star_at[lo]] = graph::TreeEdge{lo, std::max(e.u, e.v), e.weight};
    } else {
      adj[--adj_at[e.u]] = {e.v, e.weight};
      adj[--adj_at[e.v]] = {e.u, e.weight};
    }
  }

  // ---- Step (e): tree splitting ------------------------------------------
  // A mention's tree is walked breadth first: its star edges in MST order,
  // then each node's children in adjacency order — the order in which
  // RootedTree::FromOrientedEdges lays the tree out, so the edges and the
  // weight summed along them are those SplitTree would see.  A tree within
  // B is its own leftover (Algorithm 2 lines 1-2) and is written directly;
  // only heavier trees are built and split.  Each leftover stays with its
  // mention; the carved subtrees go to (f).
  std::vector<graph::RootedTree> subtrees;
  std::vector<graph::TreeEdge> walk;
  for (int mention = 0; mention < num_mentions; ++mention) {
    walk.assign(stars.begin() + star_at[mention],
                stars.begin() + star_at[mention + 1]);
    for (size_t head = 0; head < walk.size(); ++head) {
      const int parent = walk[head].parent;
      const int node = walk[head].child;
      for (int i = adj_at[node]; i < adj_at[node + 1]; ++i) {
        const auto [next, weight] = adj[i];
        if (next != parent) walk.push_back(graph::TreeEdge{node, next, weight});
      }
    }
    CoverTree& tree = cover.trees[mention];
    SetTreeEdges(walk, &tree);
    if (tree.weight <= bound) continue;
    Result<graph::RootedTree> rooted =
        graph::RootedTree::FromOrientedEdges(mention, walk);
    TENET_CHECK(rooted.ok()) << rooted.status();
    Result<SplitResult> split = SplitTree(rooted.value(), bound);
    TENET_CHECK(split.ok()) << split.status();
    SetTreeEdges(split.value().leftover.edges(), &tree);
    for (graph::RootedTree& s : split.value().subtrees) {
      subtrees.push_back(std::move(s));
    }
  }
  if (stats != nullptr) {
    stats->subtrees = static_cast<int>(subtrees.size());
  }

  // ---- Step (f): maximum matching of subtrees to mentions ----------------
  if (!subtrees.empty()) {
    // Shortest paths from every mention over the edges of weight <= B.
    std::vector<graph::ShortestPaths> paths;
    paths.reserve(num_mentions);
    for (int m = 0; m < num_mentions; ++m) {
      paths.push_back(graph::DijkstraBounded(g, m, bound));
    }
    graph::HopcroftKarp matcher(num_mentions,
                                static_cast<int>(subtrees.size()));
    // For path reconstruction: the closest subtree node per (mention,
    // subtree) pair.
    std::vector<std::vector<int>> closest_node(
        num_mentions, std::vector<int>(subtrees.size(), -1));
    for (int m = 0; m < num_mentions; ++m) {
      for (size_t s = 0; s < subtrees.size(); ++s) {
        double best = std::numeric_limits<double>::infinity();
        int best_node = -1;
        for (int node : subtrees[s].nodes()) {
          if (paths[m].distance[node] < best) {
            best = paths[m].distance[node];
            best_node = node;
          }
        }
        if (best_node >= 0 && best <= bound) {
          matcher.AddEdge(m, static_cast<int>(s));
          closest_node[m][s] = best_node;
        }
      }
    }
    int matched = matcher.MaxMatching();
    if (matched < static_cast<int>(subtrees.size())) {
      return Status::BoundTooSmall(
          "maximum matching cannot assign every subtree; B below B*");
    }
    if (stats != nullptr) stats->matched_subtrees = matched;

    // A mention that receives a subtree grows its tree edge by edge.
    std::vector<std::optional<CoverTreeAccumulator>> grown(num_mentions);
    for (size_t s = 0; s < subtrees.size(); ++s) {
      int mention = matcher.MatchOfRight(static_cast<int>(s));
      TENET_DCHECK(mention >= 0);
      std::optional<CoverTreeAccumulator>& acc = grown[mention];
      if (!acc) acc.emplace(cover.trees[mention]);
      acc->AddTree(subtrees[s]);
      // Shortest path mention -> subtree.
      std::vector<int> path =
          paths[mention].PathTo(g, closest_node[mention][s]);
      for (size_t i = 1; i < path.size(); ++i) {
        const int edge_index = paths[mention].predecessor_edge[path[i]];
        acc->AddEdge(path[i - 1], path[i], g.edges()[edge_index].weight);
      }
    }
    for (int m = 0; m < num_mentions; ++m) {
      if (grown[m]) cover.trees[m] = grown[m]->Take();
    }
  }

  if (stats != nullptr) stats->cover_total_edges = cover.TotalEdges();
  return cover;
}

Result<std::pair<double, TreeCover>> SolveWithMinimalBound(
    const TreeCoverSolver& solver, const CoherenceGraph& cg,
    double initial_bound, double tolerance) {
  if (initial_bound <= 0.0) {
    return Status::InvalidArgument("initial bound must be positive");
  }
  double hi = initial_bound;
  Result<TreeCover> at_hi = solver.Solve(cg, hi);
  int guard = 0;
  while (!at_hi.ok()) {
    if (!at_hi.status().IsBoundTooSmall() || ++guard > 64) {
      return at_hi.status();
    }
    hi *= 2.0;
    at_hi = solver.Solve(cg, hi);
  }
  double lo = 0.0;
  // Bisect [lo, hi); hi always feasible.
  while (hi - lo > tolerance * hi) {
    double mid = (lo + hi) / 2.0;
    if (mid <= 0.0) break;
    Result<TreeCover> at_mid = solver.Solve(cg, mid);
    if (at_mid.ok()) {
      hi = mid;
      at_hi = std::move(at_mid);
    } else if (at_mid.status().IsBoundTooSmall()) {
      lo = mid;
    } else {
      return at_mid.status();
    }
  }
  return std::make_pair(hi, std::move(at_hi).value());
}

}  // namespace core
}  // namespace tenet
