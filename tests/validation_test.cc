// Tests for Definition 1-2 validation: acyclic flow networks, subgraph
// normalization (self-contained / atomic / complete) and well-nestedness,
// including every failure path.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "src/graph/algorithms.h"
#include "src/graph/digraph.h"
#include "src/workflow/spec_delta.h"
#include "src/workflow/validation.h"
#include "src/workload/real_workflows.h"
#include "src/workload/spec_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

Digraph Chain(VertexId n) {
  DigraphBuilder b(n);
  for (VertexId i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return std::move(b).Build();
}

TEST(FlowNetworkTest, ChainIsValid) {
  Digraph g = Chain(5);
  VertexId s, t;
  ASSERT_TRUE(CheckAcyclicFlowNetwork(g, &s, &t).ok());
  EXPECT_EQ(s, 0u);
  EXPECT_EQ(t, 4u);
}

TEST(FlowNetworkTest, RejectsEmpty) {
  Digraph g;
  VertexId s, t;
  EXPECT_EQ(CheckAcyclicFlowNetwork(g, &s, &t).code(),
            StatusCode::kInvalidSpecification);
}

TEST(FlowNetworkTest, RejectsTwoSources) {
  DigraphBuilder b(3);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  Digraph g = std::move(b).Build();
  VertexId s, t;
  auto st = CheckAcyclicFlowNetwork(g, &s, &t);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("source"), std::string::npos);
}

TEST(FlowNetworkTest, RejectsTwoSinks) {
  DigraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  Digraph g = std::move(b).Build();
  VertexId s, t;
  auto st = CheckAcyclicFlowNetwork(g, &s, &t);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sink"), std::string::npos);
}

TEST(FlowNetworkTest, RejectsCycle) {
  DigraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 1);
  b.AddEdge(2, 3);
  Digraph g = std::move(b).Build();
  VertexId s, t;
  EXPECT_FALSE(CheckAcyclicFlowNetwork(g, &s, &t).ok());
}

TEST(FlowNetworkTest, RejectsParallelEdges) {
  DigraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  Digraph g = std::move(b).Build();
  VertexId s, t;
  auto st = CheckAcyclicFlowNetwork(g, &s, &t);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("parallel"), std::string::npos);
}

TEST(FlowNetworkTest, RejectsDisconnected) {
  // 0 -> 3 and isolated diamond 1 -> 2 cannot happen with unique terminals;
  // instead: 0->1->4, 2->3 ... that has two sources. Use a vertex not
  // reachable from the source but feeding the sink: 0->2, 1->2 is two
  // sources again. A vertex with no edges gives both: covered by terminal
  // checks. What slips past terminals: a "back alley" 0->1->3, 0->2->3 plus
  // unreachable 4? vertex 4 with no edges adds a source+sink. So the
  // reachability check is exercised with a parallel component that has its
  // own internal edge: impossible without extra terminals. The check still
  // guards Internal invariants; assert the valid case here.
  Digraph g = Chain(3);
  VertexId s, t;
  EXPECT_TRUE(CheckAcyclicFlowNetwork(g, &s, &t).ok());
}

// Fixture graph for subgraph tests:
//   0 -> 1 -> 2 -> 3 -> 4, plus 1 -> 5 -> 3 (diamond between 1 and 3),
//   and 1 -> 3 direct edge.
Digraph SubgraphFixture() {
  DigraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(1, 5);
  b.AddEdge(5, 3);
  b.AddEdge(1, 3);
  return std::move(b).Build();
}

TEST(NormalizeTest, LoopIncludesAllBranches) {
  Digraph g = SubgraphFixture();
  auto r = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 5, 3});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->source, 1u);
  EXPECT_EQ(r->sink, 3u);
  EXPECT_EQ(r->edge_set.Count(), 5u);  // 1-2, 2-3, 1-5, 5-3, 1-3
  EXPECT_EQ(r->dom_set.Count(), 4u);
}

TEST(NormalizeTest, ForkDiamondIsNotAtomic) {
  Digraph g = SubgraphFixture();
  auto r = NormalizeSubgraph(g, SubgraphKind::kFork, {1, 2, 5, 3});
  // 2 and 5 are vertex-disjoint parallel branches -> not atomic.
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("atomic"), std::string::npos);
}

TEST(NormalizeTest, AtomicForkChain) {
  Digraph g = SubgraphFixture();
  auto r = NormalizeSubgraph(g, SubgraphKind::kFork, {1, 2, 3});
  // Induced: 1->2, 2->3 plus direct 1->3 dropped. V* = {2}: atomic.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->edge_set.Count(), 2u);
}

TEST(NormalizeTest, SingleEdgeForkRejected) {
  Digraph g = Chain(3);
  // A fork over a single edge has no edges left once the direct
  // source->sink edge is dropped (and no internal vertex either way).
  auto r = NormalizeSubgraph(g, SubgraphKind::kFork, {0, 1});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidSpecification);
}

TEST(NormalizeTest, ForkWithoutInternalVertexRejected) {
  // Parallel paths s->t and s->m->t: fork {s, m, t} is fine, but a fork
  // {s, t} over just the direct edge is not.
  DigraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 3);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  Digraph g = std::move(b).Build();
  auto r = NormalizeSubgraph(g, SubgraphKind::kFork, {1, 3});
  ASSERT_FALSE(r.ok());
}

TEST(NormalizeTest, SingleEdgeLoopAllowed) {
  Digraph g = Chain(3);
  auto r = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->edge_set.Count(), 1u);
}

TEST(NormalizeTest, RejectsNotSelfContained) {
  Digraph g = SubgraphFixture();
  // {1, 2}: vertex 2 is internal? no — 2 is the sink here; but {2, 3}:
  // source 2, sink 3; ok. Take {1, 2, 3} as loop: 2 internal has no outside
  // edges; but 1 has outgoing to 5 outside -> completeness violation.
  auto r = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 3});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("complete"), std::string::npos);
}

TEST(NormalizeTest, RejectsInternalLeak) {
  // 0->1->2->3, 1->4, 4->2 and declare {1, 2} with internal... build a case
  // where an internal vertex touches outside: 0->1, 1->2, 2->3, 1->4, 4->3:
  // subgraph {1, 2, 4, 3}? 4 and 2 parallel... use loop {1,2,3} with 2
  // internal and 2->4 outside.
  DigraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(2, 4);
  b.AddEdge(3, 4);
  Digraph g = std::move(b).Build();
  auto r = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 3});
  ASSERT_FALSE(r.ok());
}

TEST(NormalizeTest, RejectsMultipleSources) {
  DigraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  Digraph g = std::move(b).Build();
  // {1, 2, 3}: both 1 and 2 have no induced in-edges.
  auto r = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 3});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("source"), std::string::npos);
}

TEST(NormalizeTest, RejectsTooSmall) {
  Digraph g = Chain(3);
  EXPECT_FALSE(NormalizeSubgraph(g, SubgraphKind::kLoop, {1}).ok());
  EXPECT_FALSE(NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 1}).ok());
}

TEST(NormalizeTest, RejectsOutOfRange) {
  Digraph g = Chain(3);
  EXPECT_FALSE(NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 99}).ok());
}

TEST(WellNestedTest, DisjointOk) {
  Digraph g = Chain(6);
  auto a = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2});
  auto b = NormalizeSubgraph(g, SubgraphKind::kLoop, {3, 4});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(CheckWellNested({a.value(), b.value()}).ok());
}

TEST(WellNestedTest, NestedOk) {
  Digraph g = Chain(6);
  auto outer = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 3, 4});
  auto inner = NormalizeSubgraph(g, SubgraphKind::kLoop, {2, 3});
  ASSERT_TRUE(outer.ok() && inner.ok());
  EXPECT_TRUE(CheckWellNested({outer.value(), inner.value()}).ok());
}

TEST(WellNestedTest, EqualEdgeForkInLoopOk) {
  // The paper's F2-in-L2 pattern: same edge set, smaller DomSet for the fork.
  Digraph g = Chain(5);
  auto loop = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 3});
  auto fork = NormalizeSubgraph(g, SubgraphKind::kFork, {1, 2, 3});
  ASSERT_TRUE(loop.ok() && fork.ok());
  EXPECT_TRUE(CheckWellNested({loop.value(), fork.value()}).ok());
}

TEST(WellNestedTest, IdenticalLoopsRejected) {
  Digraph g = Chain(5);
  auto a = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 3});
  auto b = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 3});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(CheckWellNested({a.value(), b.value()}).ok());
}

TEST(WellNestedTest, StraddlingRejected) {
  Digraph g = Chain(8);
  auto a = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2, 3, 4});
  auto b = NormalizeSubgraph(g, SubgraphKind::kLoop, {3, 4, 5, 6});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(CheckWellNested({a.value(), b.value()}).ok());
}

// ------------------------------------------------ seeded delta verdicts --

/// A random delta against `spec`, most of them invalid: names are mostly
/// the spec's own, sometimes unknown or empty, and the edits ignore the
/// fork/loop structure.
SpecDelta RandomDelta(const Specification& spec, Rng& rng, int round) {
  const VertexId n = spec.graph().num_vertices();
  const auto name = [&]() -> std::string {
    const uint64_t roll = rng.NextBelow(40);
    if (roll == 0) return "";
    if (roll == 1) return "unknown";
    return spec.ModuleName(static_cast<VertexId>(rng.NextBelow(n)));
  };
  SpecDelta delta;
  delta.kind = static_cast<SpecDelta::Kind>(1 + rng.NextBelow(4));
  switch (delta.kind) {
    case SpecDelta::Kind::kAddModule:
      delta.module = rng.NextBelow(10) == 0 ? name()
                                            : "new" + std::to_string(round);
      for (uint64_t i = rng.NextBelow(3); i > 0; --i) {
        delta.from.push_back(name());
      }
      for (uint64_t i = rng.NextBelow(3); i > 0; --i) {
        delta.to.push_back(name());
      }
      break;
    case SpecDelta::Kind::kRemoveModule:
      delta.module = name();
      break;
    case SpecDelta::Kind::kAddEdge:
    case SpecDelta::Kind::kRemoveEdge: {
      // Half the removals name an edge the spec has.
      const auto edges = spec.graph().Edges();
      if (delta.kind == SpecDelta::Kind::kRemoveEdge && rng.NextBool()) {
        const auto [u, v] = edges[rng.NextBelow(edges.size())];
        delta.edge_from = spec.ModuleName(u);
        delta.edge_to = spec.ModuleName(v);
      } else {
        delta.edge_from = name();
        delta.edge_to = name();
      }
      break;
    }
  }
  return delta;
}

/// Vertices of `g` with a path to `anchor` (anchor included), ascending,
/// from the full transitive closure.
std::vector<VertexId> BruteForceAncestors(
    const std::vector<DynamicBitset>& closure, VertexId anchor) {
  std::vector<VertexId> out;
  for (VertexId u = 0; u < closure.size(); ++u) {
    if (closure[u].Test(anchor)) out.push_back(u);
  }
  return out;
}

/// Checks one accepted application against brute force: `dirty` is the
/// anchor's ancestor set, and every vertex outside it reaches exactly the
/// (renumbered) vertices it reached in the base.
void CheckAccepted(const Specification& base, const SpecDelta& delta,
                   const SpecDeltaApplication& applied) {
  const Digraph& g = applied.spec.graph();
  const auto before = TransitiveClosure(base.graph());
  const auto after = TransitiveClosure(g);
  std::vector<VertexId> expected;
  switch (delta.kind) {
    case SpecDelta::Kind::kRemoveModule: {
      const VertexId removed = base.VertexOf(delta.module);
      for (VertexId u : BruteForceAncestors(before, removed)) {
        if (u != removed) expected.push_back(applied.vertex_remap[u]);
      }
      break;
    }
    case SpecDelta::Kind::kAddModule:
      expected = BruteForceAncestors(after, g.num_vertices() - 1);
      break;
    case SpecDelta::Kind::kAddEdge:
    case SpecDelta::Kind::kRemoveEdge:
      expected = BruteForceAncestors(after, base.VertexOf(delta.edge_from));
      break;
  }
  ASSERT_EQ(applied.dirty, expected);
  std::vector<bool> dirty(g.num_vertices(), false);
  for (VertexId v : applied.dirty) dirty[v] = true;
  for (VertexId old = 0; old < base.graph().num_vertices(); ++old) {
    const VertexId v = applied.vertex_remap[old];
    if (v == kInvalidVertex || dirty[v]) continue;
    DynamicBitset moved(g.num_vertices());
    for (size_t w = before[old].FindFirst(); w < before[old].size();
         w = before[old].FindNext(w)) {
      moved.Set(applied.vertex_remap[w]);
    }
    ASSERT_TRUE(moved == after[v]) << "clean vertex " << v << " moved";
  }
}

/// Applies `rounds` random deltas, walking into every accepted spec, and
/// folds each verdict's code and message and each accepted spec's
/// hierarchy digest into `digest`.
uint64_t FoldDeltaVerdicts(Specification spec, uint64_t seed, int rounds,
                           uint64_t digest, int* accepted) {
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const SpecDelta delta = RandomDelta(spec, rng, round);
    auto applied = ApplySpecDeltaToSpec(spec, delta);
    const uint32_t code = static_cast<uint32_t>(applied.status().code());
    digest = testing_util::Fnv1a(&code, sizeof(code), digest);
    const std::string& message = applied.status().message();
    digest = testing_util::Fnv1a(message.data(), message.size(), digest);
    if (!applied.ok()) continue;
    ++*accepted;
    CheckAccepted(spec, delta, *applied);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "round " << round << ", seed " << seed;
      return digest;
    }
    const uint64_t hierarchy = testing_util::HierarchyDigest(applied->spec);
    digest = testing_util::Fnv1a(&hierarchy, sizeof(hierarchy), digest);
    spec = std::move(applied->spec);
  }
  return digest;
}

TEST(DeltaVerdictFuzz, VerdictsAndHierarchiesArePinned) {
  const uint64_t scale = testing_util::TestIterScale();
  const uint64_t seed = testing_util::TestSeed("DeltaVerdictFuzz", 2026);
  const int rounds = static_cast<int>(400 * scale);
  std::vector<Specification> bases;
  auto qblast = BuildRealWorkflow("QBLAST");
  ASSERT_TRUE(qblast.ok());
  bases.push_back(std::move(qblast).value());
  for (const auto [num_subgraphs, depth, spec_seed] :
       {std::tuple{8u, 4u, 1u}, std::tuple{16u, 3u, 10u}}) {
    SpecGenOptions sopt;
    sopt.num_vertices = 60;
    sopt.num_edges = 100;
    sopt.num_subgraphs = num_subgraphs;
    sopt.depth = depth;
    sopt.seed = spec_seed;
    auto generated = GenerateSpecification(sopt);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    bases.push_back(std::move(generated).value());
  }
  uint64_t digest = testing_util::Fnv1a(nullptr, 0);
  int accepted = 0;
  for (size_t i = 0; i < bases.size(); ++i) {
    digest = FoldDeltaVerdicts(std::move(bases[i]), seed + i, rounds, digest,
                               &accepted);
    ASSERT_FALSE(HasFailure()) << "base spec " << i;
  }
  // Most deltas are refused, but enough are accepted to walk the specs.
  EXPECT_GT(accepted, rounds * 3 / 20);
  EXPECT_LT(accepted, rounds * 3 / 2);
  if (scale == 1 && seed == 2026) {
    EXPECT_EQ(digest, 0x747c2135a6b45b1bULL) << "accepted " << accepted;
  }
}

}  // namespace
}  // namespace skl
