// Tests for the mutable multigraph used by the plan-recovery algorithm.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/graph/multigraph.h"
#include "tests/test_util.h"

namespace skl {
namespace {

template <typename Range>
std::vector<EdgeId> Ids(Range range) {
  std::vector<EdgeId> ids;
  for (EdgeId e : range) ids.push_back(e);
  return ids;
}

TEST(MultigraphTest, AddAndQueryEdges) {
  Multigraph mg(3);
  EdgeId e0 = mg.AddEdge(0, 1);
  EdgeId e1 = mg.AddEdge(1, 2, 7);
  EXPECT_EQ(mg.num_alive_edges(), 2u);
  EXPECT_TRUE(mg.IsAlive(e0));
  EXPECT_EQ(mg.edge(e1).tag, 7);
  EXPECT_EQ(mg.edge(e1).from, 1u);
  EXPECT_EQ(mg.edge(e1).to, 2u);
}

TEST(MultigraphTest, ParallelEdgesCoexist) {
  Multigraph mg(2);
  EdgeId a = mg.AddEdge(0, 1, 1);
  EdgeId b = mg.AddEdge(0, 1, 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(Ids(mg.OutEdges(0)).size(), 2u);
  EXPECT_EQ(Ids(mg.InEdges(1)).size(), 2u);
}

TEST(MultigraphTest, RemovalAndLazyUnlinking) {
  Multigraph mg(2);
  EdgeId a = mg.AddEdge(0, 1);
  EdgeId b = mg.AddEdge(0, 1);
  mg.RemoveEdge(a);
  EXPECT_EQ(mg.num_alive_edges(), 1u);
  EXPECT_FALSE(mg.IsAlive(a));
  const std::vector<EdgeId> out = Ids(mg.OutEdges(0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], b);
  // Double removal is a no-op.
  mg.RemoveEdge(a);
  EXPECT_EQ(mg.num_alive_edges(), 1u);
}

TEST(MultigraphTest, FromDigraph) {
  DigraphBuilder db(3);
  db.AddEdge(0, 1);
  db.AddEdge(1, 2);
  Digraph g = std::move(db).Build();
  Multigraph mg(g);
  EXPECT_EQ(mg.num_vertices(), 3u);
  EXPECT_EQ(mg.num_alive_edges(), 2u);
  EXPECT_EQ(mg.edge(0).tag, -1);
}

TEST(MultigraphTest, AddVertex) {
  Multigraph mg(1);
  VertexId v = mg.AddVertex();
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(mg.num_vertices(), 2u);
  mg.AddEdge(0, v);
  EXPECT_EQ(Ids(mg.InEdges(v)).size(), 1u);
}

TEST(MultigraphTest, DegreesSkipDeadEdges) {
  Multigraph mg(3);
  EdgeId a = mg.AddEdge(0, 1);
  mg.AddEdge(0, 2);
  mg.AddEdge(1, 2);
  EXPECT_EQ(mg.OutDegree(0), 2u);
  mg.RemoveEdge(a);
  EXPECT_EQ(mg.OutDegree(0), 1u);
  EXPECT_EQ(mg.InDegree(1), 0u);
  EXPECT_EQ(mg.InDegree(2), 2u);
}

TEST(MultigraphTest, AppendAfterUnlinkingTheLastEdgeKeepsOrder) {
  Multigraph mg(2);
  EdgeId a = mg.AddEdge(0, 1);
  EdgeId b = mg.AddEdge(0, 1);
  mg.RemoveEdge(b);
  EXPECT_EQ(Ids(mg.OutEdges(0)), std::vector<EdgeId>{a});  // unlinks b
  EdgeId c = mg.AddEdge(0, 1);
  EXPECT_EQ(Ids(mg.OutEdges(0)), (std::vector<EdgeId>{a, c}));
  EXPECT_EQ(Ids(mg.InEdges(1)), (std::vector<EdgeId>{a, c}));
  mg.RemoveEdge(a);
  mg.RemoveEdge(c);
  EXPECT_TRUE(Ids(mg.OutEdges(0)).empty());
  EdgeId d = mg.AddEdge(0, 1);
  EXPECT_EQ(Ids(mg.OutEdges(0)), std::vector<EdgeId>{d});
  EXPECT_EQ(Ids(mg.InEdges(1)), std::vector<EdgeId>{d});
}

// Random adds, removals (also of the edge a walk stands on), partial walks
// and vertex additions against a model: the alive edges as a multiset of
// (from, to, tag), and each list as the alive edges of that vertex in id
// order, which is insertion order.
TEST(MultigraphTest, RandomOperationsMatchAMultisetModel) {
  const uint64_t seed = testing_util::TestSeed("MultigraphRandom", 20261019);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    Multigraph mg(static_cast<VertexId>(1 + rng.NextBelow(8)));
    std::multiset<std::tuple<VertexId, VertexId, int32_t>> alive;
    std::vector<MultiEdge> edges;  // the model, indexed by edge id
    auto model_list = [&](VertexId v, bool out) {
      std::vector<EdgeId> ids;
      for (EdgeId e = 0; e < edges.size(); ++e) {
        if (edges[e].alive && (out ? edges[e].from : edges[e].to) == v) {
          ids.push_back(e);
        }
      }
      return ids;
    };
    auto remove = [&](EdgeId e) {
      mg.RemoveEdge(e);
      if (edges[e].alive) {
        edges[e].alive = false;
        alive.erase(alive.find({edges[e].from, edges[e].to, edges[e].tag}));
      }
    };
    for (int op = 0; op < 400; ++op) {
      const VertexId n = mg.num_vertices();
      const VertexId v = static_cast<VertexId>(rng.NextBelow(n));
      const bool out = rng.NextBelow(2) == 0;
      switch (rng.NextBelow(6)) {
        case 0:
        case 1: {
          const VertexId w = static_cast<VertexId>(rng.NextBelow(n));
          const int32_t tag = static_cast<int32_t>(rng.NextBelow(4)) - 2;
          ASSERT_EQ(mg.AddEdge(v, w, tag), edges.size());
          edges.push_back(MultiEdge{v, w, tag, true});
          alive.insert({v, w, tag});
          break;
        }
        case 2:
          if (!edges.empty()) {
            remove(static_cast<EdgeId>(rng.NextBelow(edges.size())));
          }
          break;
        case 3: {
          // Walk part of a list, removing some of the edges walked over.
          const std::vector<EdgeId> want = model_list(v, out);
          const size_t stop = rng.NextBelow(want.size() + 1);
          std::vector<EdgeId> got;
          auto walk = [&](auto range) {
            for (EdgeId e : range) {
              if (got.size() == stop) break;
              got.push_back(e);
              if (rng.NextBelow(3) == 0) remove(e);
            }
          };
          if (out) {
            walk(mg.OutEdges(v));
          } else {
            walk(mg.InEdges(v));
          }
          ASSERT_EQ(got, std::vector<EdgeId>(want.begin(),
                                             want.begin() + stop));
          break;
        }
        case 4:
          if (rng.NextBelow(8) == 0) mg.AddVertex();
          break;
        default: {
          ASSERT_EQ(out ? Ids(mg.OutEdges(v)) : Ids(mg.InEdges(v)),
                    model_list(v, out))
              << (out ? "out" : "in") << "-list of " << v;
          ASSERT_EQ(out ? mg.OutDegree(v) : mg.InDegree(v),
                    model_list(v, out).size());
          break;
        }
      }
      ASSERT_EQ(mg.num_alive_edges(), alive.size());
    }
    // Every out-list together holds exactly the alive multiset, and so does
    // every in-list together.
    for (bool out : {true, false}) {
      std::multiset<std::tuple<VertexId, VertexId, int32_t>> listed;
      for (VertexId v = 0; v < mg.num_vertices(); ++v) {
        const std::vector<EdgeId> ids =
            out ? Ids(mg.OutEdges(v)) : Ids(mg.InEdges(v));
        ASSERT_EQ(ids, model_list(v, out));
        for (EdgeId e : ids) {
          ASSERT_TRUE(mg.IsAlive(e));
          listed.insert({mg.edge(e).from, mg.edge(e).to, mg.edge(e).tag});
        }
      }
      ASSERT_EQ(listed, alive);
    }
  }
}

}  // namespace
}  // namespace skl
