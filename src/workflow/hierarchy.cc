#include "src/workflow/hierarchy.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/check.h"

namespace skl {

namespace {
uint64_t EdgeKey(VertexId u, VertexId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}
}  // namespace

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

  std::vector<std::unordered_set<uint64_t>> edge_sets(k);
  for (size_t i = 0; i < k; ++i) {
    edge_sets[i].reserve(subgraphs[i].edges.size() * 2);
    for (const auto& [u, v] : subgraphs[i].edges) {
      edge_sets[i].insert(EdgeKey(u, v));
    }
  }

  // Parent of subgraph i: the smallest proper "ancestor" by nesting. Edge
  // sets may coincide for a fork nested in a loop with the same span, in
  // which case the DomSet (strictly larger for the loop) breaks the tie.
  auto nested_in = [&](size_t i, size_t j) {
    if (edge_sets[i].size() > edge_sets[j].size()) return false;
    for (uint64_t e : edge_sets[i]) {
      if (!edge_sets[j].count(e)) return false;
    }
    if (!subgraphs[i].dom_set.IsSubsetOf(subgraphs[j].dom_set)) return false;
    return edge_sets[i].size() < edge_sets[j].size() ||
           subgraphs[i].dom_set.Count() < subgraphs[j].dom_set.Count();
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
      size_t ej = edge_sets[j].size();
      size_t dj = subgraphs[j].dom_set.Count();
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

  // Own edges: E(H) minus edges of the children. The root owns every
  // remaining edge of G.
  std::vector<std::unordered_set<uint64_t>> child_edges(k + 1);
  for (size_t i = 0; i < k; ++i) {
    HierNodeId parent = h.nodes_[i + 1].parent;
    for (uint64_t e : edge_sets[i]) child_edges[parent].insert(e);
  }
  for (size_t i = 0; i < k; ++i) {
    HierNode& node = h.nodes_[i + 1];
    for (const auto& [u, v] : subgraphs[i].edges) {
      if (!child_edges[i + 1].count(EdgeKey(u, v))) {
        node.own_edges.emplace_back(u, v);
      }
    }
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      if (!child_edges[kHierRoot].count(EdgeKey(u, v))) {
        h.nodes_[kHierRoot].own_edges.emplace_back(u, v);
      }
    }
  }

  // Leaders: leaves seed copy discovery with one of their own edges; inner
  // nodes designate a child whose collapsed execution edge acts as the seed.
  for (HierNode& node : h.nodes_) {
    if (node.children.empty()) {
      if (node.kind != HierKind::kRoot) {
        SKL_CHECK(!node.own_edges.empty());
        node.leader_edge = node.own_edges.front();
      }
    } else {
      node.designated_child = node.children.front();
    }
  }

  // Edge owners and leaf leaders by spec edge id.
  h.edge_owner_.assign(g.num_edges(), kInvalidHierNode);
  h.leaf_led_by_.assign(g.num_edges(), kInvalidHierNode);
  for (size_t i = 0; i < h.nodes_.size(); ++i) {
    const HierNode& node = h.nodes_[i];
    for (const auto& [u, v] : node.own_edges) {
      const size_t e = g.EdgeIndex(u, v);
      if (e == g.num_edges() || h.edge_owner_[e] != kInvalidHierNode) {
        return Status::Internal(
            "subgraph edge missing from the graph or owned twice");
      }
      h.edge_owner_[e] = static_cast<HierNodeId>(i);
    }
    if (i != kHierRoot && node.children.empty()) {
      h.leaf_led_by_[g.EdgeIndex(node.leader_edge.first,
                                 node.leader_edge.second)] =
          static_cast<HierNodeId>(i);
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
