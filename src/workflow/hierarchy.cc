#include "src/workflow/hierarchy.h"

#include <algorithm>

#include "src/common/check.h"

namespace skl {

Result<Hierarchy> BuildHierarchy(const Digraph& g,
                                 const std::vector<SubgraphInfo>& subgraphs,
                                 VertexId source, VertexId sink) {
  Hierarchy h;
  const size_t k = subgraphs.size();
  h.nodes_.resize(k + 1);

  // Root stands for all of G.
  HierNode& root = h.nodes_[kHierRoot];
  root.kind = HierKind::kRoot;
  root.source = source;
  root.sink = sink;
  root.dom_set = DynamicBitset(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) root.dom_set.Set(v);

  std::vector<size_t> num_edges(k), dom_size(k);
  for (size_t i = 0; i < k; ++i) {
    num_edges[i] = subgraphs[i].edge_set.Count();
    dom_size[i] = subgraphs[i].dom_set.Count();
  }

  // Parent of subgraph i: the smallest proper "ancestor" by nesting. Edge
  // sets may coincide for a fork nested in a loop with the same span, in
  // which case the DomSet (strictly larger for the loop) breaks the tie.
  auto nested_in = [&](size_t i, size_t j) {
    if (num_edges[i] > num_edges[j]) return false;
    if (!subgraphs[i].edge_set.IsSubsetOf(subgraphs[j].edge_set)) {
      return false;
    }
    if (!subgraphs[i].dom_set.IsSubsetOf(subgraphs[j].dom_set)) return false;
    return num_edges[i] < num_edges[j] || dom_size[i] < dom_size[j];
  };
  for (size_t i = 0; i < k; ++i) {
    HierNodeId node_id = static_cast<HierNodeId>(i + 1);
    HierNode& node = h.nodes_[node_id];
    node.kind = subgraphs[i].kind == SubgraphKind::kFork ? HierKind::kFork
                                                         : HierKind::kLoop;
    node.subgraph_index = static_cast<int32_t>(i);
    node.source = subgraphs[i].source;
    node.sink = subgraphs[i].sink;
    node.dom_set = subgraphs[i].dom_set;

    HierNodeId best = kHierRoot;
    size_t best_edges = SIZE_MAX;
    size_t best_dom = SIZE_MAX;
    for (size_t j = 0; j < k; ++j) {
      if (j == i || !nested_in(i, j)) continue;
      size_t ej = num_edges[j];
      size_t dj = dom_size[j];
      if (ej < best_edges || (ej == best_edges && dj < best_dom)) {
        best = static_cast<HierNodeId>(j + 1);
        best_edges = ej;
        best_dom = dj;
      }
    }
    node.parent = best;
  }
  for (size_t i = 0; i < k; ++i) {
    HierNodeId id = static_cast<HierNodeId>(i + 1);
    h.nodes_[h.nodes_[id].parent].children.push_back(id);
  }

  // Depths via BFS from the root; also detect (impossible) parent cycles.
  std::vector<HierNodeId> queue{kHierRoot};
  h.nodes_[kHierRoot].depth = 1;
  size_t head = 0;
  size_t seen = 1;
  while (head < queue.size()) {
    HierNodeId x = queue[head++];
    for (HierNodeId c : h.nodes_[x].children) {
      h.nodes_[c].depth = h.nodes_[x].depth + 1;
      queue.push_back(c);
      ++seen;
    }
  }
  if (seen != h.nodes_.size()) {
    return Status::Internal("hierarchy parent relation is not a tree");
  }
  h.depth_ = 1;
  for (const HierNode& n : h.nodes_) h.depth_ = std::max(h.depth_, n.depth);
  h.levels_.assign(h.depth_ + 1, {});
  for (size_t i = 0; i < h.nodes_.size(); ++i) {
    h.levels_[h.nodes_[i].depth].push_back(static_cast<HierNodeId>(i));
  }

  // Own edges: E(H) minus edges of the children, in edge-id order. The
  // root owns every remaining edge of G. Edge owners and leaf leaders are
  // tables by spec edge id.
  const size_t m = g.num_edges();
  std::vector<DynamicBitset> child_edges(k + 1);
  for (size_t i = 0; i < k; ++i) {
    DynamicBitset& of_parent = child_edges[h.nodes_[i + 1].parent];
    if (of_parent.size() == 0) of_parent = DynamicBitset(m);
    of_parent.UnionWith(subgraphs[i].edge_set);
  }
  h.edge_owner_.assign(m, kInvalidHierNode);
  h.leaf_led_by_.assign(m, kInvalidHierNode);
  bool owned_twice = false;
  auto own = [&](HierNodeId id, VertexId u, VertexId v, size_t e) {
    if (child_edges[id].size() != 0 && child_edges[id].Test(e)) return;
    owned_twice |= h.edge_owner_[e] != kInvalidHierNode;
    h.edge_owner_[e] = id;
    h.nodes_[id].own_edges.emplace_back(u, v);
  };
  for (size_t i = 0; i < k; ++i) {
    const HierNodeId id = static_cast<HierNodeId>(i + 1);
    ForEachOutEdge(g, subgraphs[i].vertices,
                   [&](VertexId u, VertexId v, size_t e) {
                     if (subgraphs[i].edge_set.Test(e)) own(id, u, v, e);
                   });
  }
  size_t e = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) own(kHierRoot, u, v, e++);
  }
  if (owned_twice) {
    return Status::Internal(
        "subgraph edge missing from the graph or owned twice");
  }

  // Leaders: leaves seed copy discovery with one of their own edges; inner
  // nodes designate a child whose collapsed execution edge acts as the seed.
  for (size_t i = 0; i < h.nodes_.size(); ++i) {
    HierNode& node = h.nodes_[i];
    if (node.children.empty()) {
      if (node.kind != HierKind::kRoot) {
        SKL_CHECK(!node.own_edges.empty());
        node.leader_edge = node.own_edges.front();
        h.leaf_led_by_[g.EdgeIndex(node.leader_edge.first,
                                   node.leader_edge.second)] =
            static_cast<HierNodeId>(i);
      }
    } else {
      node.designated_child = node.children.front();
    }
  }

  // Vertex owners: deepest node whose DomSet contains the vertex. DomSets of
  // distinct nodes are laminar, so "deepest containing" is well-defined.
  h.owner_.assign(g.num_vertices(), kHierRoot);
  std::vector<int32_t> owner_depth(g.num_vertices(), 1);
  for (size_t i = 0; i < k; ++i) {
    const HierNode& node = h.nodes_[i + 1];
    for (size_t v = node.dom_set.FindFirst(); v < node.dom_set.size();
         v = node.dom_set.FindNext(v)) {
      if (node.depth > owner_depth[v]) {
        owner_depth[v] = node.depth;
        h.owner_[v] = static_cast<HierNodeId>(i + 1);
      }
    }
  }
  h.own_vertices_.assign(k + 1, {});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    h.own_vertices_[h.owner_[v]].push_back(v);
  }
  return h;
}

}  // namespace skl
