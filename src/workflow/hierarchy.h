// The fork-and-loop hierarchy T_G (paper Section 4.1, Figure 6): an
// unordered tree whose root stands for the whole specification graph G and
// whose other nodes stand for the fork/loop subgraphs, ordered by nesting.
// The hierarchy also precomputes everything the plan-recovery algorithm
// (Section 5) needs: dominating sets, "own" vertices/edges (those not covered
// by a deeper subgraph), per-vertex and per-edge owners, leaf leader edges,
// and designated children for non-leaf leader propagation.
#ifndef SKL_WORKFLOW_HIERARCHY_H_
#define SKL_WORKFLOW_HIERARCHY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/status.h"
#include "src/graph/digraph.h"
#include "src/workflow/subgraph.h"

namespace skl {

using HierNodeId = int32_t;
inline constexpr HierNodeId kHierRoot = 0;
inline constexpr HierNodeId kInvalidHierNode = -1;

enum class HierKind : uint8_t { kRoot, kFork, kLoop };

struct HierNode {
  HierKind kind = HierKind::kRoot;
  /// Index into Specification::subgraphs() (-1 for the root).
  int32_t subgraph_index = -1;
  VertexId source = kInvalidVertex;  ///< s(H); s(G) for the root.
  VertexId sink = kInvalidVertex;
  HierNodeId parent = kInvalidHierNode;
  std::vector<HierNodeId> children;
  int32_t depth = 1;  ///< root has depth 1, matching the paper's T_G(i).

  /// DomSet(H) over V(G): V*(H) for forks, V(H) for loops, V(G) for root.
  DynamicBitset dom_set;
  /// Edges of H not contained in any child subgraph.
  std::vector<std::pair<VertexId, VertexId>> own_edges;
  /// For leaves: a member edge of E(H) used to seed copy discovery in runs.
  std::pair<VertexId, VertexId> leader_edge{kInvalidVertex, kInvalidVertex};
  /// For non-leaves: the child whose collapsed execution edge seeds copies.
  HierNodeId designated_child = kInvalidHierNode;
};

class Hierarchy {
 public:
  Hierarchy() = default;

  const std::vector<HierNode>& nodes() const { return nodes_; }
  const HierNode& node(HierNodeId id) const { return nodes_[id]; }
  size_t size() const { return nodes_.size(); }

  /// Depth of the tree ([T_G] in the paper); 1 for a spec without forks/loops.
  int32_t depth() const { return depth_; }

  /// Node ids at a given depth (1-based).
  const std::vector<HierNodeId>& Level(int32_t d) const { return levels_[d]; }

  /// Owner of a spec vertex: the deepest node whose DomSet contains it.
  HierNodeId OwnerOf(VertexId v) const { return owner_[v]; }
  const std::vector<HierNodeId>& owners() const { return owner_; }

  /// Vertices owned by each node (owner == node).
  const std::vector<VertexId>& OwnVertices(HierNodeId id) const {
    return own_vertices_[id];
  }

  bool IsLeaf(HierNodeId id) const { return nodes_[id].children.empty(); }

  /// Tables over spec edge ids (Digraph::EdgeIndex of the spec graph), sized
  /// m_G. The node whose own_edges holds edge `e`: own edges partition E(G).
  HierNodeId EdgeOwner(size_t e) const { return edge_owner_[e]; }
  /// The leaf whose leader edge is `e`, or kInvalidHierNode.
  HierNodeId LeafLedBy(size_t e) const { return leaf_led_by_[e]; }

 private:
  friend Result<Hierarchy> BuildHierarchy(
      const Digraph& g, const std::vector<SubgraphInfo>& subgraphs,
      VertexId source, VertexId sink);

  std::vector<HierNode> nodes_;
  std::vector<std::vector<HierNodeId>> levels_;  // index 0 unused
  std::vector<HierNodeId> owner_;
  std::vector<std::vector<VertexId>> own_vertices_;
  std::vector<HierNodeId> edge_owner_;
  std::vector<HierNodeId> leaf_led_by_;
  int32_t depth_ = 1;
};

/// Builds T_G from validated, well-nested subgraphs. Nodes are indexed with
/// the root at 0 and subgraph i at node id i+1.
Result<Hierarchy> BuildHierarchy(const Digraph& g,
                                 const std::vector<SubgraphInfo>& subgraphs,
                                 VertexId source, VertexId sink);

}  // namespace skl

#endif  // SKL_WORKFLOW_HIERARCHY_H_
