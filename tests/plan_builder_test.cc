// Tests for the Section 5 plan-recovery algorithm: the running example must
// reproduce the Figure 7 execution plan and the Figure 8 context assignment,
// and nonconforming runs must be rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "src/core/plan_builder.h"
#include "src/workload/spec_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

class PlanBuilderRunningExample : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = testing_util::MakeRunningExample();
    auto result = ConstructPlan(ex_.spec, ex_.run);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    plan_ = std::move(result->plan);
    origin_ = std::move(result->origin);
  }

  PlanNodeId Ctx(const std::string& name) const {
    return plan_.ContextOf(ex_.rv(name));
  }

  testing_util::RunningExample ex_;
  ExecutionPlan plan_;
  std::vector<VertexId> origin_;
};

TEST_F(PlanBuilderRunningExample, NodeCountsMatchFigure7) {
  // Figure 7 has 17 nodes: G+, F1-, 2x F1+, 2x L1-, 3x L1+, L2-, 2x L2+,
  // 2x F2-, 3x F2+.
  EXPECT_EQ(plan_.num_nodes(), 17u);
  std::map<PlanNodeType, int> counts;
  for (const PlanNode& n : plan_.nodes()) ++counts[n.type];
  EXPECT_EQ(counts[PlanNodeType::kGPlus], 1);
  EXPECT_EQ(counts[PlanNodeType::kFMinus], 3);  // F1- once, F2- twice
  EXPECT_EQ(counts[PlanNodeType::kFPlus], 5);   // 2x F1+, 3x F2+
  EXPECT_EQ(counts[PlanNodeType::kLMinus], 3);  // 2x L1-, 1x L2-
  EXPECT_EQ(counts[PlanNodeType::kLPlus], 5);   // 3x L1+, 2x L2+
}

TEST_F(PlanBuilderRunningExample, NonemptyPlusMatchesFigure8) {
  // Nonempty + nodes: root, 3x L1+, 2x L2+, 3x F2+ = 9 (x3/x7 are empty).
  EXPECT_EQ(plan_.num_nonempty_plus(), 9u);
  // The two F1+ copies are empty: a1/h1 belong to the root, b/c to L1+.
  for (const PlanNode& n : plan_.nodes()) {
    if (n.type == PlanNodeType::kFPlus && n.hier == 1 /* F1 */) {
      EXPECT_EQ(n.num_context_vertices, 0u);
    }
  }
}

TEST_F(PlanBuilderRunningExample, ContextsMatchFigure8) {
  // Root context: a1, h1, d1.
  EXPECT_EQ(Ctx("a1"), kPlanRoot);
  EXPECT_EQ(Ctx("h1"), kPlanRoot);
  EXPECT_EQ(Ctx("d1"), kPlanRoot);
  // L1+ copies: {b1,c1}, {b2,c2}, {b3,c3}.
  EXPECT_EQ(Ctx("b1"), Ctx("c1"));
  EXPECT_EQ(Ctx("b2"), Ctx("c2"));
  EXPECT_EQ(Ctx("b3"), Ctx("c3"));
  EXPECT_NE(Ctx("b1"), Ctx("b2"));
  EXPECT_NE(Ctx("b1"), Ctx("b3"));
  // L2+ copies: {e1,g1} and {e2,g2}.
  EXPECT_EQ(Ctx("e1"), Ctx("g1"));
  EXPECT_EQ(Ctx("e2"), Ctx("g2"));
  EXPECT_NE(Ctx("e1"), Ctx("e2"));
  // F2+ copies: {f1}, {f2}, {f3}, all distinct.
  EXPECT_NE(Ctx("f1"), Ctx("f2"));
  EXPECT_NE(Ctx("f2"), Ctx("f3"));
  EXPECT_NE(Ctx("f1"), Ctx("f3"));
  // Node types of the contexts.
  EXPECT_EQ(plan_.node(Ctx("b1")).type, PlanNodeType::kLPlus);
  EXPECT_EQ(plan_.node(Ctx("f1")).type, PlanNodeType::kFPlus);
  EXPECT_EQ(plan_.node(Ctx("e1")).type, PlanNodeType::kLPlus);
}

TEST_F(PlanBuilderRunningExample, SerialOrderOfLoopCopies) {
  // b1/c1 and b2/c2 sit in successive iterations of the same L1 execution:
  // same L- parent, b1's copy first.
  PlanNodeId l1 = plan_.node(Ctx("b1")).parent;
  ASSERT_EQ(plan_.node(l1).type, PlanNodeType::kLMinus);
  EXPECT_EQ(plan_.node(Ctx("b2")).parent, l1);
  ASSERT_EQ(plan_.node(l1).children.size(), 2u);
  EXPECT_EQ(plan_.node(l1).children[0], Ctx("b1"));
  EXPECT_EQ(plan_.node(l1).children[1], Ctx("b2"));
  // b3's iteration belongs to a different L- (other fork copy), size 1.
  PlanNodeId l1b = plan_.node(Ctx("b3")).parent;
  EXPECT_NE(l1b, l1);
  EXPECT_EQ(plan_.node(l1b).children.size(), 1u);
  // e1 before e2 under the L2 execution.
  PlanNodeId l2 = plan_.node(Ctx("e1")).parent;
  ASSERT_EQ(plan_.node(l2).type, PlanNodeType::kLMinus);
  ASSERT_EQ(plan_.node(l2).children.size(), 2u);
  EXPECT_EQ(plan_.node(l2).children[0], Ctx("e1"));
  EXPECT_EQ(plan_.node(l2).children[1], Ctx("e2"));
}

TEST_F(PlanBuilderRunningExample, ForkGrouping) {
  // f2 and f3 are parallel copies under one F2-.
  PlanNodeId f2_group = plan_.node(Ctx("f2")).parent;
  ASSERT_EQ(plan_.node(f2_group).type, PlanNodeType::kFMinus);
  EXPECT_EQ(plan_.node(Ctx("f3")).parent, f2_group);
  EXPECT_EQ(plan_.node(f2_group).children.size(), 2u);
  // f1's F2 execution (iteration 1) is a separate group of size 1.
  PlanNodeId f1_group = plan_.node(Ctx("f1")).parent;
  EXPECT_NE(f1_group, f2_group);
  EXPECT_EQ(plan_.node(f1_group).children.size(), 1u);
}

TEST_F(PlanBuilderRunningExample, HierarchyOfGroups) {
  // The F2- group of {f2,f3} hangs under e2's L2+ copy.
  PlanNodeId f2_group = plan_.node(Ctx("f2")).parent;
  EXPECT_EQ(plan_.node(f2_group).parent, Ctx("e2"));
  // L1 executions hang under (empty) F1+ copies, which group under one F1-.
  PlanNodeId l1_exec = plan_.node(Ctx("b1")).parent;
  PlanNodeId f1_copy = plan_.node(l1_exec).parent;
  EXPECT_EQ(plan_.node(f1_copy).type, PlanNodeType::kFPlus);
  PlanNodeId f1_exec = plan_.node(f1_copy).parent;
  EXPECT_EQ(plan_.node(f1_exec).type, PlanNodeType::kFMinus);
  EXPECT_EQ(plan_.node(f1_exec).parent, kPlanRoot);
  // The other fork copy (b3's) shares the same F1- node.
  PlanNodeId f1_copy_b =
      plan_.node(plan_.node(Ctx("b3")).parent).parent;
  EXPECT_EQ(plan_.node(f1_copy_b).parent, f1_exec);
  EXPECT_EQ(plan_.node(f1_exec).children.size(), 2u);
}

TEST_F(PlanBuilderRunningExample, PlanValidates) {
  EXPECT_TRUE(plan_.Validate(ex_.run.num_edges()).ok());
  EXPECT_LE(plan_.num_nodes(), 4 * ex_.run.num_edges());
}

TEST_F(PlanBuilderRunningExample, OriginsRecovered) {
  EXPECT_EQ(origin_[ex_.rv("b2")], ex_.sv("b"));
  EXPECT_EQ(origin_[ex_.rv("g2")], ex_.sv("g"));
}

TEST(PlanBuilderConformance, MinimalRunIsAccepted) {
  auto ex = testing_util::MakeRunningExample();
  // The spec itself (each subgraph executed once) is a valid run.
  RunBuilder rb(ex.spec.shared_modules());
  for (VertexId v = 0; v < ex.spec.graph().num_vertices(); ++v) {
    rb.AddVertexById(static_cast<ModuleId>(v));
  }
  for (const auto& [u, v] : ex.spec.graph().Edges()) rb.AddEdge(u, v);
  auto run = std::move(rb).Build();
  ASSERT_TRUE(run.ok());
  auto plan = ConstructPlan(ex.spec, *run);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->plan.Validate(run->num_edges()).ok());
}

TEST(PlanBuilderConformance, RejectsAnOriginOutsideTheSpecification) {
  auto ex = testing_util::MakeRunningExample();
  std::vector<VertexId> origin(ex.run.num_vertices(), 0);
  origin.back() = ex.spec.graph().num_vertices();
  auto plan = ConstructPlanWithOrigin(ex.spec, ex.run, std::move(origin));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanBuilderConformance, RejectsUnknownModule) {
  auto ex = testing_util::MakeRunningExample();
  RunBuilder rb;
  VertexId x = rb.AddVertex("zzz");
  VertexId y = rb.AddVertex("a");
  rb.AddEdge(y, x);
  auto run = std::move(rb).Build();
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(ConstructPlan(ex.spec, *run).ok());
}

TEST(PlanBuilderConformance, RejectsMissingSubgraphCopy) {
  auto ex = testing_util::MakeRunningExample();
  // A "run" missing the whole b/c branch: no copies of L1.
  RunBuilder rb(ex.spec.shared_modules());
  VertexId a = rb.AddVertexById(static_cast<ModuleId>(ex.sv("a")));
  VertexId d = rb.AddVertexById(static_cast<ModuleId>(ex.sv("d")));
  VertexId e = rb.AddVertexById(static_cast<ModuleId>(ex.sv("e")));
  VertexId f = rb.AddVertexById(static_cast<ModuleId>(ex.sv("f")));
  VertexId g = rb.AddVertexById(static_cast<ModuleId>(ex.sv("g")));
  VertexId h = rb.AddVertexById(static_cast<ModuleId>(ex.sv("h")));
  rb.AddEdge(a, d).AddEdge(d, e).AddEdge(e, f).AddEdge(f, g).AddEdge(g, h);
  auto run = std::move(rb).Build();
  ASSERT_TRUE(run.ok());
  auto plan = ConstructPlan(ex.spec, *run);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidRun);
}

TEST(PlanBuilderConformance, RejectsForeignEdge) {
  auto ex = testing_util::MakeRunningExample();
  // Start from the valid Figure 3 run and add an edge d1 -> b3 that exists
  // nowhere in the specification.
  RunBuilder rb(ex.spec.shared_modules());
  for (VertexId v = 0; v < ex.run.num_vertices(); ++v) {
    rb.AddVertexById(ex.run.ModuleOf(v));
  }
  for (const auto& [u, v] : ex.run.graph().Edges()) rb.AddEdge(u, v);
  rb.AddEdge(ex.rv("d1"), ex.rv("b3"));
  auto run = std::move(rb).Build();
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(ConstructPlan(ex.spec, *run).ok());
}

TEST(PlanBuilderConformance, RejectsANonSpecEdgeInsideOneCopy) {
  auto ex = testing_util::MakeRunningExample();
  // e1 -> g1 stays inside the first L2 copy, whose module set it respects,
  // but the specification has no e -> g edge: only the copy's own-edge
  // tally can tell.
  RunBuilder rb(ex.spec.shared_modules());
  for (VertexId v = 0; v < ex.run.num_vertices(); ++v) {
    rb.AddVertexById(ex.run.ModuleOf(v));
  }
  for (const auto& [u, v] : ex.run.graph().Edges()) rb.AddEdge(u, v);
  rb.AddEdge(ex.rv("e1"), ex.rv("g1"));
  auto run = std::move(rb).Build();
  ASSERT_TRUE(run.ok());
  auto plan = ConstructPlan(ex.spec, *run);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidRun);
  EXPECT_NE(plan.status().message().find("copy's edges do not match"),
            std::string::npos)
      << plan.status().ToString();
}

TEST(PlanBuilderConformance, RejectsDuplicatedTopLevelVertex) {
  auto ex = testing_util::MakeRunningExample();
  // Two d vertices without a fork/loop justifying them.
  RunBuilder rb(ex.spec.shared_modules());
  for (VertexId v = 0; v < ex.run.num_vertices(); ++v) {
    rb.AddVertexById(ex.run.ModuleOf(v));
  }
  for (const auto& [u, v] : ex.run.graph().Edges()) rb.AddEdge(u, v);
  VertexId d2 = rb.AddVertexById(static_cast<ModuleId>(ex.sv("d")));
  rb.AddEdge(ex.rv("a1"), d2);
  auto run = std::move(rb).Build();
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(ConstructPlan(ex.spec, *run).ok());
}

TEST(PlanBuilderConformance, RejectsBrokenSerialChain) {
  auto ex = testing_util::MakeRunningExample();
  // Drop the serial edge g1 -> e2: the two L2 iterations float apart and the
  // top level ends up with two unconnected copies.
  RunBuilder rb(ex.spec.shared_modules());
  for (VertexId v = 0; v < ex.run.num_vertices(); ++v) {
    rb.AddVertexById(ex.run.ModuleOf(v));
  }
  for (const auto& [u, v] : ex.run.graph().Edges()) {
    if (u == ex.rv("g1") && v == ex.rv("e2")) continue;
    rb.AddEdge(u, v);
  }
  auto run = std::move(rb).Build();
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(ConstructPlan(ex.spec, *run).ok());
}


// Pinned digests of the recovered plan (printed tree with context counts),
// the origin function and every vertex's context, for seeded runs of QBLAST
// and of generated depth-4 specs. Plan recovery is deterministic, and the
// plan's child order feeds the labels, so any change here moves labels too.
uint64_t FoldRecovery(const Specification& spec, const ::skl::Run& run,
                      uint64_t digest) {
  auto recovered = ConstructPlan(spec, run);
  SKL_CHECK_MSG(recovered.ok(), recovered.status().ToString().c_str());
  const std::string text = recovered->plan.ToString(&spec.hierarchy());
  digest = testing_util::Fnv1a(text.data(), text.size(), digest);
  std::vector<uint32_t> per_vertex;
  for (VertexId v = 0; v < run.num_vertices(); ++v) {
    per_vertex.push_back(recovered->origin[v]);
    per_vertex.push_back(recovered->plan.ContextOf(v));
  }
  return testing_util::Fnv1a(per_vertex.data(),
                             per_vertex.size() * sizeof(uint32_t), digest);
}

uint64_t RecoveryDigest(const Specification& spec,
                        std::initializer_list<uint32_t> sizes,
                        uint64_t seed) {
  uint64_t digest = testing_util::Fnv1a(nullptr, 0);
  for (uint32_t size : sizes) {
    digest = FoldRecovery(spec, testing_util::GenerateRun(spec, size, seed++),
                          digest);
  }
  return digest;
}

TEST(PlanBuilderPinned, QblastRunsRecoverPinnedPlans) {
  auto spec = BuildRealWorkflow("QBLAST");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(RecoveryDigest(*spec, {100, 500, 2000}, 11),
            0x72b1614fea663544ULL);
}

TEST(PlanBuilderPinned, GeneratedDepthFourRunsRecoverPinnedPlans) {
  const uint64_t expected[] = {0x6e352d959b20ffb1ULL, 0xfee31b48484d2a4bULL,
                               0xda71dbc7fbd1f120ULL};
  for (uint64_t s = 0; s < 3; ++s) {
    SpecGenOptions sopt;
    sopt.num_vertices = 60;
    sopt.num_edges = 100;
    sopt.num_subgraphs = 8;
    sopt.depth = 4;
    sopt.seed = s + 1;
    auto spec = GenerateSpecification(sopt);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    ASSERT_EQ(spec->hierarchy().depth(), 4);
    EXPECT_EQ(RecoveryDigest(*spec, {100, 500, 2000}, 100 * s), expected[s])
        << "spec seed " << sopt.seed;
  }
}

// Generated specs in which a copy with several nested fork/loops makes the
// in-edge walk order decide the plan's child order (see
// PlanBuilderInEdgeOrder): a change to the walk order or to the hierarchy's
// leader edges moves these digests where the four above may not move.
TEST(PlanBuilderPinned, WalkOrderSensitiveSpecsRecoverPinnedPlans) {
  struct Case {
    uint32_t num_subgraphs, depth;
    uint64_t seed, digest;
  };
  const Case cases[] = {{8, 4, 23, 0x51dcecbfc2a23deaULL},
                        {16, 3, 10, 0x28d9e4b4f5e84b58ULL},
                        {16, 3, 12, 0xe338b30ba3171158ULL}};
  for (const Case& c : cases) {
    SpecGenOptions sopt;
    sopt.num_vertices = 60;
    sopt.num_edges = 100;
    sopt.num_subgraphs = c.num_subgraphs;
    sopt.depth = c.depth;
    sopt.seed = c.seed;
    auto spec = GenerateSpecification(sopt);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(RecoveryDigest(*spec, {100, 500, 2000}, 11), c.digest)
        << c.num_subgraphs << " subgraphs, depth " << c.depth << ", seed "
        << c.seed;
  }
}

// `run` rebuilt with its edges inserted target-major: ordered by the largest
// target their source has reached so far, so every source keeps its
// out-edge order (and so the out-CSR and every edge id) while the order in
// which a vertex's in-edges were inserted, and so its in-CSR, changes.
::skl::Run RebuildTargetMajor(const Specification& spec,
                              const ::skl::Run& run) {
  struct Edge {
    VertexId key, from, to;
  };
  std::vector<Edge> edges;
  for (VertexId u = 0; u < run.num_vertices(); ++u) {
    VertexId key = 0;
    for (VertexId v : run.graph().OutNeighbors(u)) {
      key = std::max(key, v);
      edges.push_back({key, u, v});
    }
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) { return a.key < b.key; });
  RunBuilder rb(spec.shared_modules());
  for (VertexId v = 0; v < run.num_vertices(); ++v) {
    rb.AddVertexById(run.ModuleOf(v));
  }
  for (const Edge& e : edges) rb.AddEdge(e.from, e.to);
  auto rebuilt = std::move(rb).Build();
  SKL_CHECK_MSG(rebuilt.ok(), rebuilt.status().ToString().c_str());
  return std::move(*rebuilt);
}

// Recovery walks a vertex's in-edges in out-CSR id order, whatever order the
// run's edges were inserted in: a run whose in-CSR alone is permuted
// recovers the same plan, origin and contexts. In the generated spec (seed
// 23) the walk order decides the child order of a copy with several nested
// fork/loops, so walking in-edges in insertion order moves the digest.
TEST(PlanBuilderInEdgeOrder, TargetMajorInsertionRecoversTheSamePlan) {
  auto qblast = BuildRealWorkflow("QBLAST");
  ASSERT_TRUE(qblast.ok()) << qblast.status().ToString();
  SpecGenOptions sopt;
  sopt.num_vertices = 60;
  sopt.num_edges = 100;
  sopt.num_subgraphs = 8;
  sopt.depth = 4;
  sopt.seed = 23;
  auto generated = GenerateSpecification(sopt);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  for (const Specification* spec : {&*qblast, &*generated}) {
    const ::skl::Run run = testing_util::GenerateRun(*spec, 2000, 11);
    const ::skl::Run rebuilt = RebuildTargetMajor(*spec, run);
    ASSERT_EQ(rebuilt.num_edges(), run.num_edges());
    bool in_csr_moved = false;
    for (VertexId v = 0; v < run.num_vertices(); ++v) {
      ASSERT_TRUE(std::ranges::equal(rebuilt.graph().OutNeighbors(v),
                                     run.graph().OutNeighbors(v)))
          << "vertex " << v;
      in_csr_moved |= !std::ranges::equal(rebuilt.graph().InNeighbors(v),
                                          run.graph().InNeighbors(v));
    }
    ASSERT_TRUE(in_csr_moved);
    const uint64_t basis = testing_util::Fnv1a(nullptr, 0);
    EXPECT_EQ(FoldRecovery(*spec, rebuilt, basis),
              FoldRecovery(*spec, run, basis));
  }
}

TEST(PlanBuilderLargeSpec, RecoversARunOfATenThousandModuleSpec) {
  // Per-spec tables must grow with m_G, not n_G^2: at 10 000 modules a
  // quadratic table is 10^8 entries.
  SpecGenOptions sopt;
  sopt.num_vertices = 10000;
  sopt.num_edges = 12000;
  sopt.num_subgraphs = 40;
  sopt.depth = 4;
  sopt.seed = 5;
  auto spec = GenerateSpecification(sopt);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->graph().num_vertices(), 10000u);
  ::skl::Run run = testing_util::GenerateRun(*spec, 15000, 3);
  ASSERT_GE(run.num_vertices(), 10000u);
  auto recovered = ConstructPlan(*spec, run);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->plan.Validate(run.num_edges()).ok());
  for (VertexId v = 0; v < run.num_vertices(); ++v) {
    ASSERT_EQ(recovered->origin[v], run.ModuleOf(v)) << "vertex " << v;
  }
}
}  // namespace
}  // namespace skl
