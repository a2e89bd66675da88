#include "graph/mst.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tenet {
namespace graph {
namespace {

TEST(KruskalTest, SimpleTriangle) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(0, 2, 3.0);
  SpanningForest mst = KruskalMst(g);
  EXPECT_TRUE(mst.spans_all);
  EXPECT_EQ(mst.edge_indices.size(), 2u);
  EXPECT_DOUBLE_EQ(mst.total_weight, 3.0);
}

TEST(KruskalTest, DisconnectedGraphReportsNotSpanning) {
  WeightedGraph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 3, 1.0);
  SpanningForest forest = KruskalMst(g);
  EXPECT_FALSE(forest.spans_all);
  EXPECT_EQ(forest.edge_indices.size(), 2u);
}

TEST(KruskalTest, SingleNodeSpansTrivially) {
  WeightedGraph g(1);
  SpanningForest mst = KruskalMst(g);
  EXPECT_TRUE(mst.spans_all);
  EXPECT_TRUE(mst.edge_indices.empty());
}

TEST(KruskalTest, BoundSkipsHeavierEdgesInclusively) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 0.5);
  g.AddEdge(1, 2, 0.6);
  SpanningForest at = KruskalMst(g, /*bound=*/0.6);
  EXPECT_TRUE(at.spans_all);
  EXPECT_EQ(at.edge_indices, (std::vector<int>{0, 1}));
  SpanningForest below = KruskalMst(g, /*bound=*/0.5999);
  EXPECT_FALSE(below.spans_all);
  EXPECT_EQ(below.edge_indices, std::vector<int>{0});
}

TEST(KruskalTest, ContractedPrefixActsAsOneRoot) {
  // Nodes 0 and 1 are contracted into one root: of the two edges into
  // node 2 only the cheaper joins, and the root needs no edge of its own.
  WeightedGraph g(4);
  g.AddEdge(0, 2, 0.4);
  g.AddEdge(1, 2, 0.3);
  g.AddEdge(1, 3, 0.9);
  g.AddEdge(2, 3, 0.2);
  SpanningForest mst = KruskalMst(
      g, std::numeric_limits<double>::infinity(), /*num_contracted=*/2);
  EXPECT_TRUE(mst.spans_all);
  EXPECT_EQ(mst.edge_indices, (std::vector<int>{3, 1}));
  EXPECT_DOUBLE_EQ(mst.total_weight, 0.5);
  // Without the edge into the contracted root, 2-3 float apart from it.
  WeightedGraph apart(4);
  apart.AddEdge(0, 1, 0.1);
  apart.AddEdge(2, 3, 0.2);
  EXPECT_FALSE(KruskalMst(apart, 1.0, /*num_contracted=*/2).spans_all);
}

WeightedGraph RandomConnectedGraph(Rng& rng, int n, double extra_edge_prob) {
  WeightedGraph g(n);
  // Random spanning path first to guarantee connectivity.
  for (int i = 1; i < n; ++i) {
    g.AddEdge(i - 1, i, rng.NextDouble(0.01, 1.0));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 2; v < n; ++v) {
      if (rng.NextBool(extra_edge_prob)) {
        g.AddEdge(u, v, rng.NextDouble(0.01, 1.0));
      }
    }
  }
  return g;
}

// The textbook Kruskal the production MST must reproduce: sort every edge
// of weight <= bound by (weight, edge index), then keep the ones a
// union-find accepts, starting with nodes [0, num_contracted) in one set.
SpanningForest ReferenceKruskal(const WeightedGraph& g, double bound,
                                int num_contracted) {
  const std::vector<Edge>& edges = g.edges();
  std::vector<int> order;
  for (int i = 0; i < g.num_edges(); ++i) {
    if (edges[i].weight <= bound) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&edges](int a, int b) {
    if (edges[a].weight != edges[b].weight) {
      return edges[a].weight < edges[b].weight;
    }
    return a < b;
  });
  std::vector<int> parent(g.num_nodes());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  int sets = g.num_nodes();
  for (int node = 1; node < num_contracted; ++node) {
    parent[find(node)] = find(0);
    --sets;
  }
  SpanningForest result;
  for (int idx : order) {
    const int a = find(edges[idx].u);
    const int b = find(edges[idx].v);
    if (a == b) continue;
    parent[a] = b;
    --sets;
    result.edge_indices.push_back(idx);
    result.total_weight += edges[idx].weight;
  }
  result.spans_all = sets <= 1;
  return result;
}

// Graphs built to stress tie-breaks and forests: weights on a grid of
// tenths (many equal weights, and sums whose bits depend on the order they
// are added in), pairs inserted in shuffled order with random
// orientation (edge index order is not node order), a few isolated nodes,
// and sometimes two halves with no edge between them.
WeightedGraph RandomTiedGraph(Rng& rng) {
  const int n = static_cast<int>(rng.NextInt(0, 40));
  const double density = rng.NextDouble(0.05, 0.6);
  const bool split = rng.NextBool(0.3);
  std::vector<bool> isolated(n);
  for (int node = 0; node < n; ++node) isolated[node] = rng.NextBool(0.1);
  std::vector<std::pair<int, int>> pairs;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (isolated[u] || isolated[v]) continue;
      if (split && (u < n / 2) != (v < n / 2)) continue;
      if (rng.NextBool(density)) pairs.emplace_back(u, v);
    }
  }
  rng.Shuffle(pairs);
  WeightedGraph g(n);
  for (auto [u, v] : pairs) {
    if (rng.NextBool(0.5)) std::swap(u, v);
    g.AddEdge(u, v, 0.1 * static_cast<double>(rng.NextInt(0, 8)));
  }
  return g;
}

class MstEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MstEquivalenceTest, MatchesReferenceKruskalBitForBit) {
  Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    WeightedGraph g = RandomTiedGraph(rng);
    const int n = g.num_nodes();
    const double bound = rng.NextBool(0.3)
                             ? std::numeric_limits<double>::infinity()
                             : 0.1 * static_cast<double>(rng.NextInt(0, 8));
    const int k = n == 0 ? 0 : static_cast<int>(rng.NextInt(0, n));
    for (int num_contracted : {0, std::min(1, n), k, n}) {
      SCOPED_TRACE(::testing::Message()
                   << "round " << round << " n " << n << " edges "
                   << g.num_edges() << " bound " << bound
                   << " num_contracted " << num_contracted);
      SpanningForest want = ReferenceKruskal(g, bound, num_contracted);
      SpanningForest got = KruskalMst(g, bound, num_contracted);
      EXPECT_EQ(got.edge_indices, want.edge_indices);
      EXPECT_EQ(std::memcmp(&got.total_weight, &want.total_weight,
                            sizeof(double)),
                0)
          << got.total_weight << " vs " << want.total_weight;
      EXPECT_EQ(got.spans_all, want.spans_all);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 65));

// Property test: the MST of a random connected graph is a spanning tree.
class MstPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MstPropertyTest, SpanningTreeWithoutCycles) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.NextUint64(30));
  WeightedGraph g = RandomConnectedGraph(rng, n, 0.3);

  SpanningForest mst = KruskalMst(g);
  ASSERT_TRUE(mst.spans_all);
  EXPECT_EQ(mst.edge_indices.size(), static_cast<size_t>(n - 1));
  // Union-find accepts every MST edge (no cycle) and joins all n nodes.
  WeightedGraph tree(n);
  for (int edge_index : mst.edge_indices) {
    const Edge& e = g.edges()[edge_index];
    tree.AddEdge(e.u, e.v, e.weight);
  }
  SpanningForest check =
      ReferenceKruskal(tree, std::numeric_limits<double>::infinity(), 0);
  EXPECT_EQ(check.edge_indices.size(), static_cast<size_t>(n - 1))
      << "cycle in MST";
  EXPECT_TRUE(check.spans_all);
}

// Cut property spot-check: the globally lightest edge is always in the MST
// when it is unique.
TEST_P(MstPropertyTest, LightestEdgeBelongsToMst) {
  Rng rng(GetParam() + 1000);
  const int n = 4 + static_cast<int>(rng.NextUint64(20));
  WeightedGraph g = RandomConnectedGraph(rng, n, 0.4);
  int lightest = 0;
  bool unique = true;
  for (int i = 1; i < g.num_edges(); ++i) {
    if (g.edges()[i].weight < g.edges()[lightest].weight) {
      lightest = i;
      unique = true;
    } else if (g.edges()[i].weight == g.edges()[lightest].weight) {
      unique = false;
    }
  }
  if (!unique) return;  // property only guaranteed for a unique minimum
  SpanningForest mst = KruskalMst(g);
  bool found = false;
  for (int edge_index : mst.edge_indices) {
    if (edge_index == lightest) found = true;
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace graph
}  // namespace tenet
