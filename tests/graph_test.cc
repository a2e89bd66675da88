#include "graph/graph.h"

#include <gtest/gtest.h>

namespace tenet {
namespace graph {
namespace {

TEST(WeightedGraphTest, EmptyGraph) {
  WeightedGraph g(0);
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(WeightedGraphTest, AddAndQueryEdges) {
  WeightedGraph g(4);
  g.AddEdge(0, 1, 0.5);
  g.AddEdge(2, 1, 0.25);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2, -1.0), 0.25);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 3, -1.0), -1.0);
}

TEST(WeightedGraphTest, SelfLoopIgnored) {
  WeightedGraph g(2);
  EXPECT_EQ(g.AddEdge(1, 1, 0.1), -1);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(WeightedGraphTest, IncidentEdgesAndOtherEndpoint) {
  WeightedGraph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 2.0);
  g.AddEdge(3, 0, 3.0);
  const std::vector<int>& incident = g.IncidentEdges(0);
  EXPECT_EQ(incident.size(), 3u);
  for (int edge_index : incident) {
    int other = g.OtherEndpoint(edge_index, 0);
    EXPECT_NE(other, 0);
  }
  EXPECT_EQ(g.IncidentEdges(1).size(), 1u);
  EXPECT_EQ(g.OtherEndpoint(g.IncidentEdges(1)[0], 1), 0);
}

}  // namespace
}  // namespace graph
}  // namespace tenet
