// Tests for the CSR digraph and the shared graph algorithms.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/random.h"
#include "src/graph/algorithms.h"
#include "src/graph/digraph.h"

namespace skl {
namespace {

Digraph Diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3
  DigraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  return std::move(b).Build();
}

TEST(DigraphTest, BasicTopology) {
  Digraph g = Diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 0u);
  EXPECT_EQ(g.InDegree(3), 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(DigraphTest, EdgeIndexIsTheOutCsrPosition) {
  Digraph g = Diamond();
  size_t id = 0;
  for (const auto& [u, v] : g.Edges()) EXPECT_EQ(g.EdgeIndex(u, v), id++);
  EXPECT_EQ(g.EdgeIndex(1, 0), g.num_edges());
  EXPECT_EQ(g.EdgeIndex(0, 3), g.num_edges());
}

TEST(DigraphTest, NeighborsMatchEdges) {
  Digraph g = Diamond();
  auto out0 = g.OutNeighbors(0);
  std::vector<VertexId> v(out0.begin(), out0.end());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<VertexId>{1, 2}));
  auto in3 = g.InNeighbors(3);
  std::vector<VertexId> w(in3.begin(), in3.end());
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, (std::vector<VertexId>{1, 2}));
}

TEST(DigraphTest, ImplicitVertexCreation) {
  DigraphBuilder b;
  b.AddEdge(5, 2);
  Digraph g = std::move(b).Build();
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DigraphTest, EdgesEnumeration) {
  Digraph g = Diamond();
  auto edges = g.Edges();
  EXPECT_EQ(edges.size(), 4u);
  std::sort(edges.begin(), edges.end());
  std::vector<std::pair<VertexId, VertexId>> expected{
      {0, 1}, {0, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(edges, expected);
}

TEST(TopoSortTest, ValidOrder) {
  Digraph g = Diamond();
  auto topo = TopologicalSort(g);
  ASSERT_TRUE(topo.ok());
  std::vector<uint32_t> pos(4);
  for (uint32_t i = 0; i < 4; ++i) pos[topo.value()[i]] = i;
  for (const auto& [u, v] : g.Edges()) EXPECT_LT(pos[u], pos[v]);
}

TEST(TopoSortTest, DetectsCycle) {
  DigraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Digraph g = std::move(b).Build();
  EXPECT_FALSE(TopologicalSort(g).ok());
  EXPECT_FALSE(IsAcyclic(g));
}

TEST(ReachabilityTest, ReflexiveAndTransitive) {
  Digraph g = Diamond();
  EXPECT_TRUE(Reaches(g, 0, 0));
  EXPECT_TRUE(Reaches(g, 0, 3));
  EXPECT_TRUE(Reaches(g, 1, 3));
  EXPECT_FALSE(Reaches(g, 1, 2));
  EXPECT_FALSE(Reaches(g, 3, 0));
  EXPECT_TRUE(ReachesDfs(g, 0, 3));
  EXPECT_FALSE(ReachesDfs(g, 2, 1));
}

TEST(ReachabilityTest, ReachableFromSet) {
  Digraph g = Diamond();
  DynamicBitset r = ReachableFrom(g, 1);
  EXPECT_TRUE(r.Test(1));
  EXPECT_TRUE(r.Test(3));
  EXPECT_FALSE(r.Test(0));
  EXPECT_FALSE(r.Test(2));
}

TEST(TransitiveClosureTest, MatchesPairwiseBfs) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    // Random DAG: edges only from lower to higher ids.
    const VertexId n = 30;
    DigraphBuilder b(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.NextBool(0.12)) b.AddEdge(u, v);
      }
    }
    Digraph g = std::move(b).Build();
    auto closure = TransitiveClosure(g);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(closure[u].Test(v), Reaches(g, u, v))
            << "trial " << trial << " pair " << u << "->" << v;
      }
    }
  }
}

TEST(SourcesSinksTest, Diamond) {
  Digraph g = Diamond();
  EXPECT_EQ(Sources(g), std::vector<VertexId>{0});
  EXPECT_EQ(Sinks(g), std::vector<VertexId>{3});
}

TEST(InducedConnectivityTest, Cases) {
  Digraph g = Diamond();
  std::vector<bool> all(4, true);
  EXPECT_TRUE(InducedWeaklyConnected(g, all));
  // {1, 2} are parallel branches: not connected without 0 and 3.
  std::vector<bool> mid{false, true, true, false};
  EXPECT_FALSE(InducedWeaklyConnected(g, mid));
  // Empty and singleton sets count as connected.
  std::vector<bool> none(4, false);
  EXPECT_TRUE(InducedWeaklyConnected(g, none));
  std::vector<bool> one{true, false, false, false};
  EXPECT_TRUE(InducedWeaklyConnected(g, one));
}

TEST(ParallelEdgesTest, Detection) {
  DigraphBuilder b(2);
  b.AddEdge(0, 1);
  Digraph g1 = std::move(b).Build();
  EXPECT_FALSE(HasParallelEdges(g1));
  DigraphBuilder b2(2);
  b2.AddEdge(0, 1);
  b2.AddEdge(0, 1);
  Digraph g2 = std::move(b2).Build();
  EXPECT_TRUE(HasParallelEdges(g2));
}

}  // namespace
}  // namespace skl
