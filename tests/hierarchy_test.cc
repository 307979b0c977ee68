// Tests for the fork/loop hierarchy T_G (paper Figure 6) built from the
// running example and synthetic cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "src/workflow/hierarchy.h"
#include "src/workload/real_workflows.h"
#include "src/workload/spec_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

class HierarchyRunningExample : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = testing_util::MakeRunningExample(); }

  /// Node id for the i-th declared subgraph (F1=0, L1=1, L2=2, F2=3).
  HierNodeId Node(int declared_index) const {
    return static_cast<HierNodeId>(declared_index + 1);
  }

  testing_util::RunningExample ex_;
};

TEST_F(HierarchyRunningExample, ShapeMatchesFigure6) {
  const Hierarchy& h = ex_.spec.hierarchy();
  ASSERT_EQ(h.size(), 5u);
  EXPECT_EQ(h.depth(), 3);
  // Root -> {F1, L2}; F1 -> L1; L2 -> F2.
  EXPECT_EQ(h.node(Node(0)).parent, kHierRoot);  // F1
  EXPECT_EQ(h.node(Node(1)).parent, Node(0));    // L1 under F1
  EXPECT_EQ(h.node(Node(2)).parent, kHierRoot);  // L2
  EXPECT_EQ(h.node(Node(3)).parent, Node(2));    // F2 under L2
  EXPECT_EQ(h.node(Node(0)).depth, 2);
  EXPECT_EQ(h.node(Node(1)).depth, 3);
  EXPECT_EQ(h.node(Node(3)).depth, 3);
}

TEST_F(HierarchyRunningExample, Kinds) {
  const Hierarchy& h = ex_.spec.hierarchy();
  EXPECT_EQ(h.node(kHierRoot).kind, HierKind::kRoot);
  EXPECT_EQ(h.node(Node(0)).kind, HierKind::kFork);
  EXPECT_EQ(h.node(Node(1)).kind, HierKind::kLoop);
  EXPECT_EQ(h.node(Node(2)).kind, HierKind::kLoop);
  EXPECT_EQ(h.node(Node(3)).kind, HierKind::kFork);
}

TEST_F(HierarchyRunningExample, Owners) {
  const Hierarchy& h = ex_.spec.hierarchy();
  EXPECT_EQ(h.OwnerOf(ex_.sv("a")), kHierRoot);
  EXPECT_EQ(h.OwnerOf(ex_.sv("h")), kHierRoot);
  EXPECT_EQ(h.OwnerOf(ex_.sv("d")), kHierRoot);
  EXPECT_EQ(h.OwnerOf(ex_.sv("b")), Node(1));  // L1 (deeper than F1)
  EXPECT_EQ(h.OwnerOf(ex_.sv("c")), Node(1));
  EXPECT_EQ(h.OwnerOf(ex_.sv("e")), Node(2));  // L2
  EXPECT_EQ(h.OwnerOf(ex_.sv("g")), Node(2));
  EXPECT_EQ(h.OwnerOf(ex_.sv("f")), Node(3));  // F2 (deeper than L2)
}

TEST_F(HierarchyRunningExample, OwnEdges) {
  const Hierarchy& h = ex_.spec.hierarchy();
  // F1 owns a->b and c->h (b->c belongs to L1).
  EXPECT_EQ(h.node(Node(0)).own_edges.size(), 2u);
  // L1 owns b->c (leaf).
  ASSERT_EQ(h.node(Node(1)).own_edges.size(), 1u);
  EXPECT_EQ(h.node(Node(1)).own_edges[0],
            std::make_pair(ex_.sv("b"), ex_.sv("c")));
  // L2 owns nothing: F2 has the same edge set.
  EXPECT_TRUE(h.node(Node(2)).own_edges.empty());
  // F2 (leaf) owns e->f and f->g.
  EXPECT_EQ(h.node(Node(3)).own_edges.size(), 2u);
  // Root owns a->d, d->e, g->h.
  EXPECT_EQ(h.node(kHierRoot).own_edges.size(), 3u);
}

TEST_F(HierarchyRunningExample, LeadersAndDesignatedChildren) {
  const Hierarchy& h = ex_.spec.hierarchy();
  // Leaves: L1 and F2 carry leader edges.
  EXPECT_TRUE(h.IsLeaf(Node(1)));
  EXPECT_TRUE(h.IsLeaf(Node(3)));
  EXPECT_NE(h.node(Node(1)).leader_edge.first, kInvalidVertex);
  // Inner nodes designate a child.
  EXPECT_EQ(h.node(Node(0)).designated_child, Node(1));
  EXPECT_EQ(h.node(Node(2)).designated_child, Node(3));
}

TEST_F(HierarchyRunningExample, Levels) {
  const Hierarchy& h = ex_.spec.hierarchy();
  EXPECT_EQ(h.Level(1).size(), 1u);
  EXPECT_EQ(h.Level(2).size(), 2u);
  EXPECT_EQ(h.Level(3).size(), 2u);
}

TEST_F(HierarchyRunningExample, OwnVertices) {
  const Hierarchy& h = ex_.spec.hierarchy();
  EXPECT_EQ(h.OwnVertices(kHierRoot).size(), 3u);  // a, h, d
  EXPECT_TRUE(h.OwnVertices(Node(0)).empty());     // F1 owns none
  EXPECT_EQ(h.OwnVertices(Node(1)).size(), 2u);    // b, c
  EXPECT_EQ(h.OwnVertices(Node(2)).size(), 2u);    // e, g
  EXPECT_EQ(h.OwnVertices(Node(3)).size(), 1u);    // f
}

// Pinned digests of every hierarchy field (testing_util::HierarchyDigest).
// Own-edge order sets the leader edges and they set plan child order, so a
// rebuild of the hierarchy must reproduce each field in the same order.
TEST(HierarchyPinned, RunningExampleAndRealWorkflows) {
  EXPECT_EQ(
      testing_util::HierarchyDigest(testing_util::MakeRunningExample().spec),
      0x7ba078b868ec71caULL);
  const uint64_t expected[] = {0x83ad0bb744938687ULL, 0x9288199c0fc7bb9dULL,
                               0x96904d60ee00b565ULL, 0x85af6132a63d09dbULL,
                               0x8a85aa92008b0fd8ULL, 0xde3703b9d3b40cb1ULL};
  const auto& table = RealWorkflowTable();
  ASSERT_EQ(table.size(), std::size(expected));
  for (size_t i = 0; i < table.size(); ++i) {
    auto spec = BuildRealWorkflow(table[i].name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(testing_util::HierarchyDigest(*spec), expected[i])
        << table[i].name;
  }
}

TEST(HierarchyPinned, GeneratedSpecs) {
  struct Case {
    uint32_t num_subgraphs, depth;
    uint64_t seed, digest;
  };
  const Case cases[] = {{8, 4, 1, 0xbccec4c3abdddb16ULL},
                        {8, 4, 2, 0x0736618374b17f3eULL},
                        {8, 4, 3, 0x634fd58141e732a6ULL},
                        {8, 4, 23, 0xc406bd441dc30398ULL},
                        {16, 3, 10, 0x22c4f59a0c555152ULL},
                        {16, 3, 12, 0xd2aea597d8d9872aULL}};
  for (const Case& c : cases) {
    SpecGenOptions sopt;
    sopt.num_vertices = 60;
    sopt.num_edges = 100;
    sopt.num_subgraphs = c.num_subgraphs;
    sopt.depth = c.depth;
    sopt.seed = c.seed;
    auto spec = GenerateSpecification(sopt);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(testing_util::HierarchyDigest(*spec), c.digest)
        << c.num_subgraphs << " subgraphs, depth " << c.depth << ", seed "
        << c.seed;
  }
}

}  // namespace
}  // namespace skl
