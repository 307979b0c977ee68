// Immutable directed graph in CSR (compressed sparse row) form, with a
// mutable builder. Specification graphs and run graphs are stored this way;
// plan recovery contracts a run in place of a copy, over its out-CSR.
#ifndef SKL_GRAPH_DIGRAPH_H_
#define SKL_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace skl {

using VertexId = uint32_t;
inline constexpr VertexId kInvalidVertex = UINT32_MAX;

/// Append-only edge list used to assemble a Digraph.
class DigraphBuilder {
 public:
  DigraphBuilder() = default;
  /// Pre-declares `n` vertices (0..n-1); more can be added via AddVertex.
  explicit DigraphBuilder(VertexId n) : num_vertices_(n) {}

  /// Adds a vertex and returns its id.
  VertexId AddVertex() { return num_vertices_++; }

  /// Adds a directed edge u -> v. Vertices are created implicitly if needed.
  void AddEdge(VertexId u, VertexId v);

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }

  /// Builds the CSR representation. Duplicate edges are kept as-is (callers
  /// that require simple graphs should validate separately).
  class Digraph Build() &&;

 private:
  VertexId num_vertices_ = 0;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

/// Immutable CSR digraph with both out- and in-adjacency.
class Digraph {
 public:
  Digraph() = default;

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return heads_.size(); }

  /// Successors of u (targets of out-edges).
  std::span<const VertexId> OutNeighbors(VertexId u) const;
  /// Predecessors of u (sources of in-edges).
  std::span<const VertexId> InNeighbors(VertexId u) const;

  size_t OutDegree(VertexId u) const;
  size_t InDegree(VertexId u) const;

  /// True if the edge u -> v exists (linear scan of u's out list).
  bool HasEdge(VertexId u, VertexId v) const {
    return EdgeIndex(u, v) != num_edges();
  }

  /// Id of the edge u -> v: its position in the out-CSR, in
  /// [0, num_edges()) and ordered by source then OutNeighbors order; or
  /// num_edges() if there is none. Linear scan of u's out list.
  size_t EdgeIndex(VertexId u, VertexId v) const;

  /// All edges as (source, target) pairs in an unspecified stable order.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

 private:
  friend class DigraphBuilder;

  VertexId num_vertices_ = 0;
  // Out CSR.
  std::vector<uint32_t> out_offsets_;  // size num_vertices_+1
  std::vector<VertexId> heads_;        // targets
  // In CSR.
  std::vector<uint32_t> in_offsets_;
  std::vector<VertexId> tails_;  // sources
};

}  // namespace skl

#endif  // SKL_GRAPH_DIGRAPH_H_
