#include "src/speclabel/tcm.h"

#include "src/common/stopwatch.h"
#include "src/graph/algorithms.h"

namespace skl {

Status TcmScheme::Build(const Digraph& g) {
  if (!IsAcyclic(g)) {
    return Status::InvalidArgument("TCM requires an acyclic graph");
  }
  Stopwatch sw;
  closure_ = TransitiveClosure(g);
  build_seconds_ = sw.ElapsedSeconds();
  return Status::OK();
}

Status TcmScheme::BuildIncremental(const Digraph& new_graph,
                                   const SpecLabelingScheme& previous,
                                   std::span<const VertexId> vertex_remap,
                                   std::span<const VertexId> dirty) {
  const auto* prev = dynamic_cast<const TcmScheme*>(&previous);
  if (prev == nullptr || prev->closure_.size() != vertex_remap.size()) {
    return Build(new_graph);
  }
  if (!IsAcyclic(new_graph)) {
    return Status::InvalidArgument("TCM requires an acyclic graph");
  }
  Stopwatch sw;
  const VertexId n = new_graph.num_vertices();
  std::vector<DynamicBitset> closure(n);
  std::vector<bool> is_dirty(n, false);
  for (VertexId v : dirty) is_dirty[v] = true;
  // Classify the remap so the two delta shapes that dominate in practice
  // copy rows word-level instead of bit-by-bit: AddModule appends (the
  // remap is the identity), RemoveModule drops one id and shifts the rest
  // down one (a single-erase). Anything else falls back to the general
  // per-bit remap.
  bool identity = true;
  bool single_erase = true;
  VertexId erased = kInvalidVertex;
  for (VertexId i = 0; i < vertex_remap.size(); ++i) {
    const VertexId m = vertex_remap[i];
    if (m == kInvalidVertex) {
      identity = false;
      if (erased != kInvalidVertex) single_erase = false;
      erased = i;
    } else if (erased == kInvalidVertex ? m != i : m != i - 1) {
      identity = false;
      single_erase = false;
    }
  }
  if (erased == kInvalidVertex) single_erase = false;
  // Clean rows: the reachable set is unchanged, so copy the old row with
  // its columns remapped into the new id space.
  for (VertexId old_u = 0; old_u < vertex_remap.size(); ++old_u) {
    const VertexId new_u = vertex_remap[old_u];
    if (new_u == kInvalidVertex || is_dirty[new_u]) continue;
    const DynamicBitset& old_row = prev->closure_[old_u];
    if (identity) {
      DynamicBitset row = old_row;
      row.GrowTo(n);
      closure[new_u] = std::move(row);
      continue;
    }
    if (single_erase) {
      DynamicBitset row = old_row;
      row.EraseBit(erased);
      closure[new_u] = std::move(row);
      continue;
    }
    DynamicBitset row(n);
    for (size_t w = old_row.FindFirst(); w < old_row.size();
         w = old_row.FindNext(w)) {
      const VertexId new_w = vertex_remap[w];
      if (new_w != kInvalidVertex) row.Set(new_w);
    }
    closure[new_u] = std::move(row);
  }
  // Dirty rows (and brand-new vertices): recompute from the new graph.
  for (VertexId u = 0; u < n; ++u) {
    if (closure[u].size() == 0) closure[u] = ReachableFrom(new_graph, u);
  }
  closure_ = std::move(closure);
  build_seconds_ = sw.ElapsedSeconds();
  return Status::OK();
}

bool TcmScheme::Reaches(VertexId u, VertexId v) const {
  return closure_[u].Test(v);
}

void TcmScheme::ReachesMany(std::span<const VertexId> u,
                            std::span<const VertexId> v, uint8_t* out) const {
  for (size_t i = 0; i < u.size(); ++i) out[i] = closure_[u[i]].Test(v[i]);
}

size_t TcmScheme::TotalLabelBits() const {
  return closure_.size() * closure_.size();
}

size_t TcmScheme::MaxLabelBits() const { return closure_.size(); }

}  // namespace skl
