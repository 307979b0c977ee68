#include "src/graph/digraph.h"

#include <algorithm>

#include "src/common/check.h"

namespace skl {

void DigraphBuilder::AddEdge(VertexId u, VertexId v) {
  VertexId needed = std::max(u, v) + 1;
  if (needed > num_vertices_) num_vertices_ = needed;
  edges_.emplace_back(u, v);
}

Digraph DigraphBuilder::Build() && {
  Digraph g;
  g.num_vertices_ = num_vertices_;
  const size_t m = edges_.size();
  g.out_offsets_.assign(num_vertices_ + 1, 0);
  g.in_offsets_.assign(num_vertices_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.out_offsets_[u + 1];
    ++g.in_offsets_[v + 1];
  }
  for (VertexId i = 0; i < num_vertices_; ++i) {
    g.out_offsets_[i + 1] += g.out_offsets_[i];
    g.in_offsets_[i + 1] += g.in_offsets_[i];
  }
  g.heads_.resize(m);
  g.tails_.resize(m);
  std::vector<uint32_t> out_pos(g.out_offsets_.begin(),
                                g.out_offsets_.end() - 1);
  std::vector<uint32_t> in_pos(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    g.heads_[out_pos[u]++] = v;
    g.tails_[in_pos[v]++] = u;
  }
  return g;
}

std::span<const VertexId> Digraph::OutNeighbors(VertexId u) const {
  SKL_DCHECK(u < num_vertices_);
  return {heads_.data() + out_offsets_[u],
          heads_.data() + out_offsets_[u + 1]};
}

std::span<const VertexId> Digraph::InNeighbors(VertexId u) const {
  SKL_DCHECK(u < num_vertices_);
  return {tails_.data() + in_offsets_[u], tails_.data() + in_offsets_[u + 1]};
}

size_t Digraph::OutDegree(VertexId u) const {
  SKL_DCHECK(u < num_vertices_);
  return out_offsets_[u + 1] - out_offsets_[u];
}

size_t Digraph::InDegree(VertexId u) const {
  SKL_DCHECK(u < num_vertices_);
  return in_offsets_[u + 1] - in_offsets_[u];
}

size_t Digraph::EdgeIndex(VertexId u, VertexId v) const {
  SKL_DCHECK(u < num_vertices_);
  for (uint32_t i = out_offsets_[u]; i < out_offsets_[u + 1]; ++i) {
    if (heads_[i] == v) return i;
  }
  return num_edges();
}

std::vector<std::pair<VertexId, VertexId>> Digraph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(num_edges());
  for (VertexId u = 0; u < num_vertices_; ++u) {
    for (VertexId v : OutNeighbors(u)) out.emplace_back(u, v);
  }
  return out;
}

}  // namespace skl
