// Tests for SpecificationBuilder and the running-example specification
// (paper Figure 2).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/workflow/module_table.h"
#include "src/workflow/spec_delta.h"
#include "src/workflow/specification.h"
#include "src/workflow/validation.h"
#include "tests/test_util.h"

namespace skl {
namespace {

TEST(SpecificationTest, RunningExampleBuilds) {
  auto spec = BuildRunningExampleSpec();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->graph().num_vertices(), 8u);
  EXPECT_EQ(spec->graph().num_edges(), 8u);
  EXPECT_EQ(spec->num_forks(), 2u);
  EXPECT_EQ(spec->num_loops(), 2u);
  EXPECT_EQ(spec->ModuleName(spec->source()), "a");
  EXPECT_EQ(spec->ModuleName(spec->sink()), "h");
}

TEST(SpecificationTest, VertexLookupByModuleName) {
  auto spec = BuildRunningExampleSpec();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->ModuleName(spec->VertexOf("d")), "d");
  EXPECT_EQ(spec->VertexOf("nope"), kInvalidVertex);
}

TEST(SpecificationTest, DuplicateModuleNamesRejected) {
  SpecificationBuilder b;
  b.AddModule("x");
  b.AddModule("x");
  auto spec = std::move(b).Build();
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("duplicate"), std::string::npos);
}

TEST(SpecificationTest, EmptyNameRejected) {
  SpecificationBuilder b;
  b.AddModule("");
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(SpecificationTest, SelfLoopRejected) {
  SpecificationBuilder b;
  VertexId x = b.AddModule("x");
  b.AddModule("y");
  b.AddEdge(x, x);
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(SpecificationTest, EdgeOutOfRangeRejected) {
  SpecificationBuilder b;
  VertexId x = b.AddModule("x");
  b.AddEdge(x, 99);
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(SpecificationTest, InvalidForkRejected) {
  SpecificationBuilder b;
  VertexId s = b.AddModule("s");
  VertexId m = b.AddModule("m");
  VertexId n = b.AddModule("n");
  VertexId t = b.AddModule("t");
  b.AddEdge(s, m).AddEdge(s, n).AddEdge(m, t).AddEdge(n, t);
  b.DeclareFork({s, m, n, t});  // diamond: not atomic
  auto spec = std::move(b).Build();
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidSpecification);
}

TEST(SpecificationTest, NotWellNestedRejected) {
  SpecificationBuilder b;
  std::vector<VertexId> v;
  for (int i = 0; i < 8; ++i) v.push_back(b.AddModule("m" + std::to_string(i)));
  for (int i = 0; i + 1 < 8; ++i) b.AddEdge(v[i], v[i + 1]);
  b.DeclareLoop({v[1], v[2], v[3], v[4]});
  b.DeclareLoop({v[3], v[4], v[5], v[6]});
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(SpecificationTest, SubgraphNormalization) {
  auto ex = testing_util::MakeRunningExample();
  const auto& subs = ex.spec.subgraphs();
  ASSERT_EQ(subs.size(), 4u);
  // F1 = {a,b,c,h}: source a, sink h, dominates {b,c}.
  EXPECT_EQ(subs[0].kind, SubgraphKind::kFork);
  EXPECT_EQ(subs[0].source, ex.sv("a"));
  EXPECT_EQ(subs[0].sink, ex.sv("h"));
  EXPECT_EQ(subs[0].dom_set.Count(), 2u);
  EXPECT_EQ(subs[0].edge_set.Count(), 3u);
  // L1 = {b,c}.
  EXPECT_EQ(subs[1].kind, SubgraphKind::kLoop);
  EXPECT_EQ(subs[1].edge_set.Count(), 1u);
  EXPECT_EQ(subs[1].dom_set.Count(), 2u);
  // L2 = {e,f,g} and F2 = {e,f,g} share the edge set.
  EXPECT_EQ(subs[2].edge_set.Count(), 2u);
  EXPECT_EQ(subs[3].edge_set.Count(), 2u);
  EXPECT_EQ(subs[2].dom_set.Count(), 3u);
  EXPECT_EQ(subs[3].dom_set.Count(), 1u);
}

TEST(SpecificationTest, SpecWithoutSubgraphs) {
  SpecificationBuilder b;
  VertexId x = b.AddModule("x");
  VertexId y = b.AddModule("y");
  b.AddEdge(x, y);
  auto spec = std::move(b).Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->hierarchy().depth(), 1);
  EXPECT_EQ(spec->hierarchy().size(), 1u);
}

// ------------------------------------------------- rejections, pinned --

// Every rejection of SpecificationBuilder::Build, with its code and its
// whole message. A case that trips two checks pins their order.
struct BuildRejection {
  const char* what;
  std::function<void(SpecificationBuilder&)> build;
  const char* message;
};

/// Adds modules "m0".."m<n-1>" and the chain m0 -> m1 -> ... -> m<n-1>.
void Chain(SpecificationBuilder& b, int n) {
  for (int i = 0; i < n; ++i) b.AddModule("m" + std::to_string(i));
  for (int i = 0; i + 1 < n; ++i) {
    b.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
}

/// m0 -> m1 -> m2 -> m3 -> m4 plus the bypass m1 -> m3 and the branch
/// m1 -> m5 -> m3.
void Braided(SpecificationBuilder& b) {
  Chain(b, 5);
  b.AddModule("m5");
  b.AddEdge(1, 3).AddEdge(1, 5).AddEdge(5, 3);
}

TEST(SpecificationTest, EveryRejectionKeepsItsCodeAndMessage) {
  const std::vector<BuildRejection> cases = {
      {"empty name", [](auto& b) { b.AddModule("x"); b.AddModule(""); },
       "module name must be non-empty"},
      {"duplicate name",
       [](auto& b) { b.AddModule("x"); b.AddModule("y"); b.AddModule("x"); },
       "duplicate module name: x"},
      {"duplicate name before an empty one",
       [](auto& b) { b.AddModule("x"); b.AddModule("x"); b.AddModule(""); },
       "duplicate module name: x"},
      {"names before edges",
       [](auto& b) {
         b.AddModule("x");
         b.AddModule("x");
         b.AddEdge(0, 9);
       },
       "duplicate module name: x"},
      {"endpoint out of range",
       [](auto& b) { Chain(b, 2); b.AddEdge(1, 2); },
       "edge endpoint out of range"},
      {"self-loop", [](auto& b) { Chain(b, 2); b.AddEdge(1, 1); },
       "self-loop edges are not allowed"},
      {"no modules", [](auto&) {}, "graph is empty"},
      {"parallel edges", [](auto& b) { Chain(b, 3); b.AddEdge(0, 1); },
       "graph has parallel edges"},
      {"parallel edges before a cycle",
       [](auto& b) { Chain(b, 4); b.AddEdge(2, 1).AddEdge(0, 1); },
       "graph has parallel edges"},
      {"cycle", [](auto& b) { Chain(b, 4); b.AddEdge(2, 1); },
       "graph has a cycle"},
      {"two sources",
       [](auto& b) { Chain(b, 3); b.AddModule("x"); b.AddEdge(3, 2); },
       "graph must have exactly one source, found 2"},
      {"isolated module",
       [](auto& b) { Chain(b, 3); b.AddModule("x"); },
       "graph must have exactly one source, found 2"},
      {"three sinks",
       [](auto& b) {
         Chain(b, 3);
         b.AddModule("x");
         b.AddModule("y");
         b.AddEdge(0, 3).AddEdge(0, 4);
       },
       "graph must have exactly one sink, found 3"},
      {"subgraph of one vertex",
       [](auto& b) { Chain(b, 3); b.DeclareLoop({1, 1}); },
       "subgraph needs at least two vertices (source != sink)"},
      {"subgraph vertex out of range",
       [](auto& b) { Chain(b, 3); b.DeclareLoop({1, 7}); },
       "subgraph vertex out of range"},
      {"subgraph with two sources",
       [](auto& b) { Braided(b); b.DeclareLoop({2, 3, 5}); },
       "subgraph has multiple sources"},
      {"subgraph with two sinks",
       [](auto& b) { Braided(b); b.DeclareLoop({1, 2, 5}); },
       "subgraph has multiple sinks"},
      {"fork over a bypass edge alone",
       [](auto& b) { Braided(b); b.DeclareFork({1, 3}); },
       "subgraph has no edges"},
      {"internal vertex entered from outside",
       [](auto& b) {
         Chain(b, 5);
         b.AddModule("x");
         b.AddEdge(0, 5).AddEdge(5, 2);
         b.DeclareLoop({1, 2, 3});
       },
       "internal vertex has an incoming edge from outside the subgraph"},
      {"internal vertex leaving",
       [](auto& b) { Chain(b, 5); b.AddEdge(2, 4); b.DeclareLoop({1, 2, 3}); },
       "internal vertex has an outgoing edge to outside the subgraph"},
      {"diamond fork",
       [](auto& b) { Braided(b); b.DeclareFork({1, 2, 3, 5}); },
       "fork is not atomic: internal vertices split into parallel branches"},
      {"loop source leaving",
       [](auto& b) { Braided(b); b.DeclareLoop({1, 2, 3}); },
       "loop is not complete: source has an outgoing edge leaving it"},
      {"loop sink entered",
       [](auto& b) { Chain(b, 5); b.AddEdge(0, 3); b.DeclareLoop({1, 2, 3}); },
       "loop is not complete: sink has an incoming edge entering it"},
      {"first bad subgraph wins",
       [](auto& b) {
         Chain(b, 5);
         b.AddEdge(0, 3);
         b.DeclareLoop({1, 2, 3});
         b.DeclareLoop({2, 2});
       },
       "loop is not complete: sink has an incoming edge entering it"},
      {"straddling loops",
       [](auto& b) {
         Chain(b, 8);
         b.DeclareLoop({1, 2, 3, 4});
         b.DeclareLoop({3, 4, 5, 6});
       },
       "subgraphs 0 and 1 are neither nested nor disjoint "
       "(well-nestedness violated)"},
      {"identical loops",
       [](auto& b) {
         Chain(b, 6);
         b.DeclareLoop({4, 5});
         b.DeclareLoop({1, 2, 3});
         b.DeclareLoop({1, 2, 3});
       },
       "subgraphs 1 and 2 are neither nested nor disjoint "
       "(well-nestedness violated)"},
      {"shared edge, disjoint DomSets",
       [](auto& b) {
         Chain(b, 6);
         b.DeclareFork({1, 2, 3});
         b.DeclareLoop({2, 3});
       },
       "subgraphs 0 and 1 are neither nested nor disjoint "
       "(well-nestedness violated)"},
  };
  for (const BuildRejection& c : cases) {
    SpecificationBuilder b;
    c.build(b);
    auto spec = std::move(b).Build();
    ASSERT_FALSE(spec.ok()) << c.what;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidSpecification)
        << c.what;
    EXPECT_EQ(spec.status().message(), c.message) << c.what;
  }
}

// The three NormalizeSubgraph messages no acyclic flow network can reach:
// they guard direct callers, and only a cyclic graph trips them. (Two more
// cannot be reached at all: a fork of two vertices keeps no edge, so
// "fork needs at least one internal vertex" never fires, and on a DAG with
// unique terminals every vertex is reachable from the source.)
TEST(SpecificationTest, NormalizeRejectionsOnCyclicGraphs) {
  DigraphBuilder gb(3);
  gb.AddEdge(1, 2);
  gb.AddEdge(2, 1);
  const Digraph g = std::move(gb).Build();
  auto cycle = NormalizeSubgraph(g, SubgraphKind::kLoop, {1, 2});
  EXPECT_EQ(cycle.status().code(), StatusCode::kInvalidSpecification);
  EXPECT_EQ(cycle.status().message(), "subgraph has no source or sink");
  auto lone = NormalizeSubgraph(g, SubgraphKind::kLoop, {0, 1, 2});
  EXPECT_EQ(lone.status().code(), StatusCode::kInvalidSpecification);
  EXPECT_EQ(lone.status().message(), "subgraph source equals sink");
  VertexId s = kInvalidVertex, t = kInvalidVertex;
  const Status flow = CheckAcyclicFlowNetwork(g, &s, &t);
  EXPECT_EQ(flow.code(), StatusCode::kInvalidSpecification);
  EXPECT_EQ(flow.message(), "graph has a cycle");
}

// Every rejection of ApplySpecDeltaToSpec on the running example: its own
// checks (InvalidArgument / NotFound, "spec delta: ...") and the rebuild's
// (InvalidSpecification, "spec delta <Kind> rejected: ...").
TEST(SpecificationTest, EveryDeltaRejectionKeepsItsCodeAndMessage) {
  const Specification base = testing_util::MakeRunningExample().spec;
  const auto module = [](SpecDelta::Kind kind, std::string name,
                         std::vector<std::string> from = {},
                         std::vector<std::string> to = {}) {
    SpecDelta d;
    d.kind = kind;
    d.module = std::move(name);
    d.from = std::move(from);
    d.to = std::move(to);
    return d;
  };
  const auto edge = [](SpecDelta::Kind kind, std::string u, std::string v) {
    SpecDelta d;
    d.kind = kind;
    d.edge_from = std::move(u);
    d.edge_to = std::move(v);
    return d;
  };
  using K = SpecDelta::Kind;
  struct Case {
    SpecDelta delta;
    StatusCode code;
    const char* message;
  };
  const Case cases[] = {
      {module(K::kAddModule, "", {"a"}, {"h"}), StatusCode::kInvalidArgument,
       "spec delta: empty module name"},
      {module(K::kAddModule, "d", {"a"}, {"h"}), StatusCode::kInvalidArgument,
       "spec delta: module \"d\" already exists"},
      {module(K::kAddModule, "x"), StatusCode::kInvalidArgument,
       "spec delta: AddModule needs at least one from/to neighbor to join "
       "the flow network"},
      {module(K::kAddModule, "x", {""}, {"h"}), StatusCode::kInvalidArgument,
       "spec delta: empty from module name"},
      {module(K::kAddModule, "x", {"zz"}, {"h"}), StatusCode::kNotFound,
       "spec delta: from module \"zz\" is not in the specification"},
      {module(K::kAddModule, "x", {"a"}, {"zz"}), StatusCode::kNotFound,
       "spec delta: to module \"zz\" is not in the specification"},
      {module(K::kAddModule, "x", {"a", "a"}, {"h"}),
       StatusCode::kInvalidArgument,
       "spec delta: duplicate from neighbor \"a\""},
      {module(K::kAddModule, "x", {"a"}, {"h", "h"}),
       StatusCode::kInvalidArgument,
       "spec delta: duplicate to neighbor \"h\""},
      {module(K::kAddModule, "x", {"a"}), StatusCode::kInvalidSpecification,
       "spec delta AddModule rejected: graph must have exactly one sink, "
       "found 2"},
      {module(K::kAddModule, "x", {}, {"h"}),
       StatusCode::kInvalidSpecification,
       "spec delta AddModule rejected: graph must have exactly one source, "
       "found 2"},
      {module(K::kAddModule, "x", {"b"}, {"h"}),
       StatusCode::kInvalidSpecification,
       "spec delta AddModule rejected: internal vertex has an outgoing edge "
       "to outside the subgraph"},
      {module(K::kAddModule, "x", {"h"}, {"a"}),
       StatusCode::kInvalidSpecification,
       "spec delta AddModule rejected: graph has a cycle"},
      {module(K::kRemoveModule, "zz"), StatusCode::kNotFound,
       "spec delta: removed module \"zz\" is not in the specification"},
      {module(K::kRemoveModule, ""), StatusCode::kInvalidArgument,
       "spec delta: empty removed module name"},
      {module(K::kRemoveModule, "a"), StatusCode::kInvalidArgument,
       "spec delta: cannot remove the flow network's source module \"a\""},
      {module(K::kRemoveModule, "h"), StatusCode::kInvalidArgument,
       "spec delta: cannot remove the flow network's sink module \"h\""},
      {module(K::kRemoveModule, "b"), StatusCode::kInvalidArgument,
       "spec delta: module \"b\" participates in a declared fork subgraph; "
       "remove the declaration first"},
      {module(K::kRemoveModule, "e"), StatusCode::kInvalidArgument,
       "spec delta: module \"e\" participates in a declared loop subgraph; "
       "remove the declaration first"},
      {module(K::kRemoveModule, "d"), StatusCode::kInvalidSpecification,
       "spec delta RemoveModule rejected: graph must have exactly one "
       "source, found 2"},
      {edge(K::kAddEdge, "zz", "h"), StatusCode::kNotFound,
       "spec delta: source module \"zz\" is not in the specification"},
      {edge(K::kAddEdge, "a", "zz"), StatusCode::kNotFound,
       "spec delta: target module \"zz\" is not in the specification"},
      {edge(K::kAddEdge, "a", ""), StatusCode::kInvalidArgument,
       "spec delta: empty target module name"},
      {edge(K::kAddEdge, "d", "d"), StatusCode::kInvalidArgument,
       "spec delta: self-loop edge on module \"d\""},
      {edge(K::kAddEdge, "a", "d"), StatusCode::kInvalidArgument,
       "spec delta: edge \"a\" -> \"d\" already exists"},
      {edge(K::kAddEdge, "h", "a"), StatusCode::kInvalidSpecification,
       "spec delta AddEdge rejected: graph has a cycle"},
      {edge(K::kAddEdge, "b", "h"), StatusCode::kInvalidSpecification,
       "spec delta AddEdge rejected: loop is not complete: source has an "
       "outgoing edge leaving it"},
      {edge(K::kAddEdge, "b", "d"), StatusCode::kInvalidSpecification,
       "spec delta AddEdge rejected: internal vertex has an outgoing edge "
       "to outside the subgraph"},
      {edge(K::kAddEdge, "d", "f"), StatusCode::kInvalidSpecification,
       "spec delta AddEdge rejected: internal vertex has an incoming edge "
       "from outside the subgraph"},
      {edge(K::kRemoveEdge, "a", "h"), StatusCode::kNotFound,
       "spec delta: edge \"a\" -> \"h\" is not in the specification"},
      {edge(K::kRemoveEdge, "a", "d"), StatusCode::kInvalidSpecification,
       "spec delta RemoveEdge rejected: graph must have exactly one source, "
       "found 2"},
      {edge(K::kRemoveEdge, "f", "g"), StatusCode::kInvalidSpecification,
       "spec delta RemoveEdge rejected: graph must have exactly one source, "
       "found 2"},
  };
  for (const Case& c : cases) {
    const std::string what = std::string(SpecDeltaKindName(c.delta.kind)) +
                             " " + c.delta.module + c.delta.edge_from + "->" +
                             c.delta.edge_to;
    auto applied = ApplySpecDeltaToSpec(base, c.delta);
    ASSERT_FALSE(applied.ok()) << what;
    EXPECT_EQ(applied.status().code(), c.code) << what;
    EXPECT_EQ(applied.status().message(), c.message) << what;
  }
}

// ------------------------------------------------------------ ModuleTable --

TEST(ModuleTableTest, InternAndFindAsTheTableGrows) {
  ModuleTable table;
  constexpr ModuleId kNames = 10000;
  for (ModuleId i = 0; i < kNames; ++i) {
    ASSERT_EQ(table.Intern("module_" + std::to_string(i)), i);
    ASSERT_EQ(table.size(), i + 1);
    // Every earlier name still resolves after each growth step that can
    // move the index: check the first, the newest and a middle one.
    ASSERT_EQ(table.Find("module_0"), 0u);
    ASSERT_EQ(table.Find("module_" + std::to_string(i / 2)), i / 2);
    ASSERT_EQ(table.Find("module_" + std::to_string(i)), i);
  }
  for (ModuleId i = 0; i < kNames; ++i) {
    const std::string name = "module_" + std::to_string(i);
    ASSERT_EQ(table.Find(name), i);
    ASSERT_EQ(table.Name(i), name);
  }
  EXPECT_EQ(table.Find("module_" + std::to_string(kNames)), kInvalidModule);
}

TEST(ModuleTableTest, DuplicateReturnsTheFirstIdAndDoesNotGrow) {
  ModuleTable table;
  EXPECT_EQ(table.Intern("a"), 0u);
  EXPECT_EQ(table.Intern("b"), 1u);
  EXPECT_EQ(table.Intern("a"), 0u);
  EXPECT_EQ(table.Intern(std::string_view("bb").substr(1)), 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Name(0), "a");
  EXPECT_EQ(table.Name(1), "b");
}

TEST(ModuleTableTest, FindOfAnAbsentNameAndOnAnEmptyTable) {
  ModuleTable table;
  EXPECT_EQ(table.Find("a"), kInvalidModule);
  EXPECT_EQ(table.Find(""), kInvalidModule);
  EXPECT_EQ(table.size(), 0u);
  table.Intern("a");
  EXPECT_EQ(table.Find("b"), kInvalidModule);
  EXPECT_EQ(table.Find(""), kInvalidModule);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ModuleTableTest, NamesThatArePrefixesOfEachOther) {
  ModuleTable table;
  const std::string names[] = {"abc", "ab", "a", "abcd", "b"};
  for (ModuleId i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(table.Intern(names[i]), i);
  }
  for (ModuleId i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(table.Find(names[i]), i) << names[i];
  }
  const std::string_view abcd = "abcde";
  EXPECT_EQ(table.Find(abcd.substr(0, 2)), 1u);
  EXPECT_EQ(table.Find(abcd.substr(0, 5)), kInvalidModule);
  EXPECT_EQ(table.Find("bc"), kInvalidModule);
}

}  // namespace
}  // namespace skl
