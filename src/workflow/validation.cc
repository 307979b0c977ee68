#include "src/workflow/validation.h"

#include <algorithm>
#include <string>

#include "src/graph/algorithms.h"

namespace skl {

Status CheckAcyclicFlowNetwork(const Digraph& g, VertexId* source,
                               VertexId* sink) {
  if (g.num_vertices() == 0) {
    return Status::InvalidSpecification("graph is empty");
  }
  if (HasParallelEdges(g)) {
    return Status::InvalidSpecification("graph has parallel edges");
  }
  if (!IsAcyclic(g)) {
    return Status::InvalidSpecification("graph has a cycle");
  }
  auto sources = Sources(g);
  auto sinks = Sinks(g);
  if (sources.size() != 1) {
    return Status::InvalidSpecification(
        "graph must have exactly one source, found " +
        std::to_string(sources.size()));
  }
  if (sinks.size() != 1) {
    return Status::InvalidSpecification(
        "graph must have exactly one sink, found " +
        std::to_string(sinks.size()));
  }
  // Every vertex must lie on a source-to-sink path. With unique terminals it
  // suffices that every vertex is reachable from the source; reaching the
  // sink follows because any maximal forward walk ends at the unique sink.
  DynamicBitset from_source = ReachableFrom(g, sources[0]);
  if (from_source.Count() != g.num_vertices()) {
    return Status::InvalidSpecification(
        "not all vertices are reachable from the source");
  }
  *source = sources[0];
  *sink = sinks[0];
  return Status::OK();
}

Result<SubgraphInfo> NormalizeSubgraph(const Digraph& g, SubgraphKind kind,
                                       std::vector<VertexId> vertices) {
  const VertexId n = g.num_vertices();
  SubgraphInfo info;
  info.kind = kind;
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  if (vertices.size() < 2) {
    return Status::InvalidSpecification(
        "subgraph needs at least two vertices (source != sink)");
  }
  for (VertexId v : vertices) {
    if (v >= n) {
      return Status::InvalidSpecification("subgraph vertex out of range");
    }
  }
  info.vertices = std::move(vertices);
  info.vertex_set = DynamicBitset(n);
  for (VertexId v : info.vertices) info.vertex_set.Set(v);

  // Source/sink: unique vertices without induced in/out edges.
  VertexId source = kInvalidVertex;
  VertexId sink = kInvalidVertex;
  for (VertexId v : info.vertices) {
    bool has_in = false, has_out = false;
    for (VertexId u : g.InNeighbors(v)) has_in |= info.vertex_set.Test(u);
    for (VertexId u : g.OutNeighbors(v)) has_out |= info.vertex_set.Test(u);
    if (!has_in) {
      if (source != kInvalidVertex) {
        return Status::InvalidSpecification("subgraph has multiple sources");
      }
      source = v;
    }
    if (!has_out) {
      if (sink != kInvalidVertex) {
        return Status::InvalidSpecification("subgraph has multiple sinks");
      }
      sink = v;
    }
  }
  if (source == kInvalidVertex || sink == kInvalidVertex) {
    // All vertices have induced in- and out-edges: the induced subgraph has a
    // cycle or no terminals (impossible in a DAG unless empty).
    return Status::InvalidSpecification("subgraph has no source or sink");
  }
  if (source == sink) {
    return Status::InvalidSpecification("subgraph source equals sink");
  }
  info.source = source;
  info.sink = sink;

  // E(H): induced edges; forks exclude a direct source->sink edge.
  info.edge_set = DynamicBitset(g.num_edges());
  ForEachOutEdge(g, info.vertices, [&](VertexId u, VertexId v, size_t e) {
    if (!info.vertex_set.Test(v)) return;
    if (kind == SubgraphKind::kFork && u == source && v == sink) return;
    info.edge_set.Set(e);
  });
  if (info.edge_set.None()) {
    return Status::InvalidSpecification("subgraph has no edges");
  }

  // Definition 1(2): internal vertices must not touch the outside.
  for (VertexId v : info.vertices) {
    if (v == source || v == sink) continue;
    for (VertexId u : g.InNeighbors(v)) {
      if (!info.vertex_set.Test(u)) {
        return Status::InvalidSpecification(
            "internal vertex has an incoming edge from outside the subgraph");
      }
    }
    for (VertexId u : g.OutNeighbors(v)) {
      if (!info.vertex_set.Test(u)) {
        return Status::InvalidSpecification(
            "internal vertex has an outgoing edge to outside the subgraph");
      }
    }
  }

  info.dom_set = DynamicBitset(n);
  if (kind == SubgraphKind::kFork) {
    for (VertexId v : info.vertices) {
      if (v != source && v != sink) info.dom_set.Set(v);
    }
    if (info.dom_set.None()) {
      return Status::InvalidSpecification(
          "fork needs at least one internal vertex (single-edge forks would "
          "create parallel edges when executed)");
    }
    // Atomicity (Lemma 5.1 characterization): the internal vertex set must be
    // weakly connected under the E(H) edges joining internal vertices, which
    // are all of G's edges joining them.
    std::vector<bool> in_internal(n, false);
    for (VertexId v : info.vertices) {
      if (v != source && v != sink) in_internal[v] = true;
    }
    if (!InducedWeaklyConnected(g, in_internal)) {
      return Status::InvalidSpecification(
          "fork is not atomic: internal vertices split into parallel "
          "branches");
    }
  } else {
    for (VertexId v : info.vertices) info.dom_set.Set(v);
    // Completeness: every out-neighbor of the source and in-neighbor of the
    // sink lies inside the subgraph.
    for (VertexId v : g.OutNeighbors(source)) {
      if (!info.vertex_set.Test(v)) {
        return Status::InvalidSpecification(
            "loop is not complete: source has an outgoing edge leaving it");
      }
    }
    for (VertexId v : g.InNeighbors(sink)) {
      if (!info.vertex_set.Test(v)) {
        return Status::InvalidSpecification(
            "loop is not complete: sink has an incoming edge entering it");
      }
    }
  }
  return info;
}

Status CheckWellNested(const std::vector<SubgraphInfo>& subgraphs) {
  const size_t k = subgraphs.size();
  std::vector<size_t> num_edges(k), dom_size(k);
  for (size_t i = 0; i < k; ++i) {
    num_edges[i] = subgraphs[i].edge_set.Count();
    dom_size[i] = subgraphs[i].dom_set.Count();
  }

  // Note on strictness: the paper's Definition 2 asks for strict edge
  // containment, but its own running example nests fork F2 inside loop L2
  // with E(F2) == E(L2) and DomSet(F2) strictly smaller. We therefore read
  // containment non-strictly on edges and require strictness on at least one
  // of the two dimensions (identical fork/loop declarations stay rejected).
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      const auto& di = subgraphs[i].dom_set;
      const auto& dj = subgraphs[j].dom_set;
      const auto& ei = subgraphs[i].edge_set;
      const auto& ej = subgraphs[j].edge_set;
      bool proper_ij = num_edges[i] < num_edges[j] ||
                       (dom_size[i] < dom_size[j] && di.IsSubsetOf(dj));
      bool proper_ji = num_edges[j] < num_edges[i] ||
                       (dom_size[j] < dom_size[i] && dj.IsSubsetOf(di));
      bool nested_ij = di.IsSubsetOf(dj) && ei.IsSubsetOf(ej) && proper_ij;
      bool nested_ji = dj.IsSubsetOf(di) && ej.IsSubsetOf(ei) && proper_ji;
      bool disjoint = !di.Intersects(dj) && !ei.Intersects(ej);
      if (!(nested_ij || nested_ji || disjoint)) {
        return Status::InvalidSpecification(
            "subgraphs " + std::to_string(i) + " and " + std::to_string(j) +
            " are neither nested nor disjoint (well-nestedness violated)");
      }
    }
  }
  return Status::OK();
}

}  // namespace skl
