#include "graph/mst.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/union_find.h"

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

TEST(PrimTest, MatchesKruskalOnTriangle) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(0, 2, 3.0);
  SpanningForest prim = PrimMst(g, 0);
  EXPECT_TRUE(prim.spans_all);
  EXPECT_DOUBLE_EQ(prim.total_weight, 3.0);
}

TEST(PrimTest, CoversOnlyRootComponent) {
  WeightedGraph g(5);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(3, 4, 1.0);
  SpanningForest prim = PrimMst(g, 0);
  EXPECT_FALSE(prim.spans_all);
  EXPECT_EQ(prim.edge_indices.size(), 1u);
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

// Property test: Kruskal and Prim agree on total MST weight, the MST is
// acyclic and spanning, and removing any MST edge disconnects the MST
// (tree property) on random connected graphs.
class MstPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MstPropertyTest, KruskalEqualsPrimAndIsTree) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.NextUint64(30));
  WeightedGraph g = RandomConnectedGraph(rng, n, 0.3);

  SpanningForest kruskal = KruskalMst(g);
  SpanningForest prim = PrimMst(g, 0);
  ASSERT_TRUE(kruskal.spans_all);
  ASSERT_TRUE(prim.spans_all);
  EXPECT_EQ(kruskal.edge_indices.size(), static_cast<size_t>(n - 1));
  EXPECT_EQ(prim.edge_indices.size(), static_cast<size_t>(n - 1));
  EXPECT_NEAR(kruskal.total_weight, prim.total_weight, 1e-9);

  // MST edges form a spanning tree: n-1 edges, no cycles.
  UnionFind uf(n);
  for (int edge_index : kruskal.edge_indices) {
    const Edge& e = g.edges()[edge_index];
    EXPECT_TRUE(uf.Union(e.u, e.v)) << "cycle in MST";
  }
  EXPECT_EQ(uf.num_sets(), 1);
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
