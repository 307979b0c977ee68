// Tests for the specification labeling schemes: each scheme must agree with
// the transitive closure on random DAGs; scheme-specific structure is also
// checked (intervals, tree-cover interval lists, chain counts).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/graph/algorithms.h"
#include "src/speclabel/chain.h"
#include "src/speclabel/interval.h"
#include "src/speclabel/scheme.h"
#include "src/speclabel/tcm.h"
#include "src/speclabel/tree_cover.h"
#include "src/workload/spec_generator.h"

namespace skl {
namespace {

Digraph RandomSpecGraph(uint64_t seed) {
  SpecGenOptions opt;
  opt.num_vertices = 40;
  opt.num_edges = 70;
  opt.num_subgraphs = 4;
  opt.depth = 3;
  opt.seed = seed;
  auto spec = GenerateSpecification(opt);
  SKL_CHECK_MSG(spec.ok(), spec.status().ToString().c_str());
  return spec->graph();
}

class SchemeCorrectness
    : public ::testing::TestWithParam<std::tuple<SpecSchemeKind, uint64_t>> {
};

TEST_P(SchemeCorrectness, MatchesTransitiveClosure) {
  auto [kind, seed] = GetParam();
  Digraph g = RandomSpecGraph(seed);
  auto scheme = CreateSpecScheme(kind);
  ASSERT_TRUE(scheme->Build(g).ok());
  auto closure = TransitiveClosure(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(scheme->Reaches(u, v), closure[u].Test(v))
          << SpecSchemeKindName(kind) << " " << u << "->" << v;
    }
  }
}

TEST_P(SchemeCorrectness, ConcurrentQueriesMatchTransitiveClosure) {
  // A service answers queries from many threads at once under shared
  // locks, so a built scheme's const Reaches must be safe to call
  // concurrently — including the search schemes, which need scratch
  // space per query. Runs under the TSan leg with the rest.
  auto [kind, seed] = GetParam();
  Digraph g = RandomSpecGraph(seed);
  auto scheme = CreateSpecScheme(kind);
  ASSERT_TRUE(scheme->Build(g).ok());
  auto closure = TransitiveClosure(g);
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        for (VertexId u = 0; u < g.num_vertices(); ++u) {
          for (VertexId v = 0; v < g.num_vertices(); ++v) {
            if (scheme->Reaches(u, v) != closure[u].Test(v)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u) << SpecSchemeKindName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesBySeed, SchemeCorrectness,
    ::testing::Combine(::testing::Values(SpecSchemeKind::kTcm,
                                         SpecSchemeKind::kBfs,
                                         SpecSchemeKind::kDfs,
                                         SpecSchemeKind::kTreeCover,
                                         SpecSchemeKind::kChain,
                                         SpecSchemeKind::kTwoHop),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const auto& info) {
      std::string name(SpecSchemeKindName(std::get<0>(info.param)));
      if (name == "2HOP") name = "TwoHop";
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(TcmTest, LabelBitsAreQuadratic) {
  Digraph g = RandomSpecGraph(7);
  TcmScheme tcm;
  ASSERT_TRUE(tcm.Build(g).ok());
  EXPECT_EQ(tcm.TotalLabelBits(),
            static_cast<size_t>(g.num_vertices()) * g.num_vertices());
  EXPECT_EQ(tcm.MaxLabelBits(), g.num_vertices());
}

TEST(TcmTest, RejectsCyclicGraph) {
  DigraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  Digraph g = std::move(b).Build();
  TcmScheme tcm;
  EXPECT_FALSE(tcm.Build(g).ok());
}

TEST(TraversalSchemesTest, ZeroLabelBits) {
  Digraph g = RandomSpecGraph(8);
  auto bfs = CreateSpecScheme(SpecSchemeKind::kBfs);
  ASSERT_TRUE(bfs->Build(g).ok());
  EXPECT_EQ(bfs->TotalLabelBits(), 0u);
  EXPECT_EQ(bfs->MaxLabelBits(), 0u);
}

TEST(IntervalTest, WorksOnTrees) {
  // 0 -> {1, 2}, 1 -> {3, 4}.
  DigraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(1, 4);
  Digraph g = std::move(b).Build();
  IntervalScheme iv;
  ASSERT_TRUE(iv.Build(g).ok());
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 0; v < 5; ++v) {
      EXPECT_EQ(iv.Reaches(u, v), Reaches(g, u, v)) << u << "->" << v;
    }
  }
  auto [pre0, max0] = iv.IntervalOf(0);
  EXPECT_EQ(pre0, 0u);
  EXPECT_EQ(max0, 4u);
}

TEST(IntervalTest, RejectsDags) {
  DigraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);  // second parent for 2
  Digraph g = std::move(b).Build();
  IntervalScheme iv;
  EXPECT_FALSE(iv.Build(g).ok());
}

TEST(IntervalTest, RejectsForests) {
  DigraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Digraph g = std::move(b).Build();
  IntervalScheme iv;
  EXPECT_FALSE(iv.Build(g).ok());
}

TEST(TreeCoverTest, IntervalListsAreCompact) {
  Digraph g = RandomSpecGraph(9);
  TreeCoverScheme tc;
  ASSERT_TRUE(tc.Build(g).ok());
  // The source reaches everything: its merged interval list must be a
  // single interval covering all postorder numbers.
  auto sources = Sources(g);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(tc.NumIntervals(sources[0]), 1u);
  EXPECT_GT(tc.TotalLabelBits(), 0u);
  EXPECT_GE(tc.MaxLabelBits(), 2u);
}

TEST(ChainTest, ChainCountBounded) {
  Digraph g = RandomSpecGraph(10);
  ChainScheme chain;
  ASSERT_TRUE(chain.Build(g).ok());
  EXPECT_GE(chain.num_chains(), 1u);
  EXPECT_LE(chain.num_chains(), g.num_vertices());
  EXPECT_GT(chain.TotalLabelBits(), 0u);
}

TEST(SchemeFactoryTest, NamesRoundTrip) {
  for (SpecSchemeKind kind :
       {SpecSchemeKind::kTcm, SpecSchemeKind::kBfs, SpecSchemeKind::kDfs,
        SpecSchemeKind::kInterval, SpecSchemeKind::kTreeCover,
        SpecSchemeKind::kChain, SpecSchemeKind::kTwoHop}) {
    auto scheme = CreateSpecScheme(kind);
    EXPECT_EQ(scheme->name(), SpecSchemeKindName(kind));
  }
}

TEST(SchemeFactoryTest, ParseInvertsName) {
  // Canonical names parse back to the same kind...
  for (SpecSchemeKind kind :
       {SpecSchemeKind::kTcm, SpecSchemeKind::kBfs, SpecSchemeKind::kDfs,
        SpecSchemeKind::kInterval, SpecSchemeKind::kTreeCover,
        SpecSchemeKind::kChain, SpecSchemeKind::kTwoHop}) {
    auto parsed = ParseSpecSchemeKind(SpecSchemeKindName(kind));
    ASSERT_TRUE(parsed.ok()) << SpecSchemeKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  // ...as do the CLI spellings, case-insensitively.
  const std::pair<const char*, SpecSchemeKind> cli[] = {
      {"tcm", SpecSchemeKind::kTcm},
      {"bfs", SpecSchemeKind::kBfs},
      {"dfs", SpecSchemeKind::kDfs},
      {"interval", SpecSchemeKind::kInterval},
      {"tree-cover", SpecSchemeKind::kTreeCover},
      {"TreeCover", SpecSchemeKind::kTreeCover},
      {"chain", SpecSchemeKind::kChain},
      {"2hop", SpecSchemeKind::kTwoHop},
      {"two-hop", SpecSchemeKind::kTwoHop},
  };
  for (const auto& [name, kind] : cli) {
    auto parsed = ParseSpecSchemeKind(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, kind) << name;
  }
  EXPECT_FALSE(ParseSpecSchemeKind("").ok());
  EXPECT_FALSE(ParseSpecSchemeKind("bogus").ok());
  EXPECT_FALSE(ParseSpecSchemeKind("tcm2").ok());
}

}  // namespace
}  // namespace skl
