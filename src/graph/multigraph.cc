#include "src/graph/multigraph.h"

#include "src/common/check.h"

namespace skl {

Multigraph::Multigraph(VertexId n) : out_(n), in_(n) {}

Multigraph::Multigraph(const Digraph& g) : Multigraph(g.num_vertices()) {
  // One pass: u's out-list is the run of ids its CSR block gets; in-lists
  // are appended to in the same order.
  edges_.resize(g.num_edges());
  EdgeId e = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto heads = g.OutNeighbors(u);
    if (heads.empty()) continue;
    out_[u] = Ends{e, static_cast<EdgeId>(e + heads.size() - 1)};
    for (VertexId v : heads) {
      edges_[e].edge = MultiEdge{u, v, -1, true};
      if (e != out_[u].last) edges_[e].next_out = e + 1;
      Append<false>(v, e);
      ++e;
    }
  }
  alive_edges_ = g.num_edges();
}

VertexId Multigraph::AddVertex() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<VertexId>(out_.size() - 1);
}

template <bool kOut>
void Multigraph::Append(VertexId v, EdgeId e) {
  Ends& list = ListOf<kOut>(v);
  if (list.last == kInvalidEdge) {
    list.first = e;
  } else {
    Next<kOut>(list.last) = e;
  }
  list.last = e;
}

EdgeId Multigraph::AddEdge(VertexId u, VertexId v, int32_t tag) {
  SKL_DCHECK(u < num_vertices() && v < num_vertices());
  EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Slot{MultiEdge{u, v, tag, true}});
  Append<true>(u, e);
  Append<false>(v, e);
  ++alive_edges_;
  return e;
}

size_t Multigraph::OutDegree(VertexId u) {
  size_t degree = 0;
  for ([[maybe_unused]] EdgeId e : OutEdges(u)) ++degree;
  return degree;
}

size_t Multigraph::InDegree(VertexId u) {
  size_t degree = 0;
  for ([[maybe_unused]] EdgeId e : InEdges(u)) ++degree;
  return degree;
}

}  // namespace skl
