// Mutable directed multigraph with stable edge ids and O(1) edge deletion.
// This is the working representation used by the plan-recovery algorithm
// (Section 5 of the paper), which repeatedly collapses fork/loop copies into
// "special" edges: parallel special edges can coexist, so a simple adjacency
// set is not enough.
//
// Adjacency is intrusive and allocation-free per vertex: one edge array
// whose entries link to the next edge of their tail's out-list and of their
// head's in-list, and a first/last edge id per vertex and direction. Lists
// keep insertion order (the plan's child order, and so the labels, depend
// on it). RemoveEdge only marks an edge dead; the OutEdges/InEdges ranges
// skip dead edges and unlink them as they pass, so a dead edge is walked
// over at most once per list and every edge is traversed O(1) times.
#ifndef SKL_GRAPH_MULTIGRAPH_H_
#define SKL_GRAPH_MULTIGRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/graph/digraph.h"

namespace skl {

using EdgeId = uint32_t;
inline constexpr EdgeId kInvalidEdge = UINT32_MAX;

/// Edge payload: endpoints plus a caller-defined tag (the plan builder tags
/// special edges with the hierarchy node they stand for).
struct MultiEdge {
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  int32_t tag = -1;
  bool alive = false;
};

class Multigraph {
 public:
  /// Alive out-edge (kOut) or in-edge ids of one vertex, in insertion order.
  /// Walking it unlinks the dead edges it passes, so do not hold a range of
  /// a list while walking that same list through another range.
  template <bool kOut>
  class EdgeRange;

  Multigraph() = default;
  /// Creates a multigraph with `n` vertices and no edges.
  explicit Multigraph(VertexId n);
  /// Creates a multigraph holding a copy of `g`'s edges (tag = -1); edge ids
  /// follow `g`'s out-adjacency order.
  explicit Multigraph(const Digraph& g);

  VertexId num_vertices() const { return static_cast<VertexId>(out_.size()); }
  /// Number of currently alive edges.
  size_t num_alive_edges() const { return alive_edges_; }
  /// Total edge slots ever allocated (dead ids are not reused).
  size_t edge_capacity() const { return edges_.size(); }

  VertexId AddVertex();

  /// Adds an edge at the end of u's out-list and v's in-list; returns its id.
  EdgeId AddEdge(VertexId u, VertexId v, int32_t tag = -1);

  /// Marks an edge dead. Dead edges are skipped (and unlinked) by the ranges.
  void RemoveEdge(EdgeId e) {
    SKL_DCHECK(e < edges_.size());
    if (edges_[e].edge.alive) {
      edges_[e].edge.alive = false;
      --alive_edges_;
    }
  }

  bool IsAlive(EdgeId e) const { return edges_[e].edge.alive; }
  const MultiEdge& edge(EdgeId e) const { return edges_[e].edge; }

  EdgeRange<true> OutEdges(VertexId u);
  EdgeRange<false> InEdges(VertexId u);

  /// Alive out-degree / in-degree, by walking the list.
  size_t OutDegree(VertexId u);
  size_t InDegree(VertexId u);

 private:
  struct Slot {
    MultiEdge edge;
    EdgeId next_out = kInvalidEdge;
    EdgeId next_in = kInvalidEdge;
  };
  struct Ends {
    EdgeId first = kInvalidEdge;
    EdgeId last = kInvalidEdge;
  };

  template <bool kOut>
  EdgeId& Next(EdgeId e) {
    return kOut ? edges_[e].next_out : edges_[e].next_in;
  }
  template <bool kOut>
  Ends& ListOf(VertexId v) {
    return kOut ? out_[v] : in_[v];
  }
  template <bool kOut>
  void Append(VertexId v, EdgeId e);
  /// First alive edge at or after `e` in v's list, unlinking the dead edges
  /// before it; `prev` is e's list predecessor (kInvalidEdge at the head).
  template <bool kOut>
  EdgeId SkipDead(VertexId v, EdgeId prev, EdgeId e);

  std::vector<Slot> edges_;
  std::vector<Ends> out_;
  std::vector<Ends> in_;
  size_t alive_edges_ = 0;
};

template <bool kOut>
class Multigraph::EdgeRange {
 public:
  class Iterator {
   public:
    Iterator() = default;
    EdgeId operator*() const { return cur_; }
    Iterator& operator++() {
      prev_ = cur_;
      cur_ = g_->SkipDead<kOut>(v_, prev_, g_->Next<kOut>(cur_));
      return *this;
    }
    bool operator==(const Iterator& other) const { return cur_ == other.cur_; }

   private:
    friend class EdgeRange;
    Iterator(Multigraph* g, VertexId v, EdgeId first)
        : g_(g), v_(v), cur_(g->SkipDead<kOut>(v, kInvalidEdge, first)) {}

    Multigraph* g_ = nullptr;
    VertexId v_ = kInvalidVertex;
    EdgeId prev_ = kInvalidEdge;
    EdgeId cur_ = kInvalidEdge;
  };

  Iterator begin() const {
    return Iterator(g_, v_, g_->ListOf<kOut>(v_).first);
  }
  Iterator end() const { return Iterator(); }

 private:
  friend class Multigraph;
  EdgeRange(Multigraph* g, VertexId v) : g_(g), v_(v) {}

  Multigraph* g_;
  VertexId v_;
};

inline Multigraph::EdgeRange<true> Multigraph::OutEdges(VertexId u) {
  SKL_DCHECK(u < num_vertices());
  return EdgeRange<true>(this, u);
}

inline Multigraph::EdgeRange<false> Multigraph::InEdges(VertexId u) {
  SKL_DCHECK(u < num_vertices());
  return EdgeRange<false>(this, u);
}

template <bool kOut>
inline EdgeId Multigraph::SkipDead(VertexId v, EdgeId prev, EdgeId e) {
  Ends& list = ListOf<kOut>(v);
  while (e != kInvalidEdge && !edges_[e].edge.alive) {
    const EdgeId next = Next<kOut>(e);
    if (prev == kInvalidEdge) {
      list.first = next;
    } else {
      Next<kOut>(prev) = next;
    }
    if (list.last == e) list.last = prev;
    e = next;
  }
  return e;
}

}  // namespace skl

#endif  // SKL_GRAPH_MULTIGRAPH_H_
