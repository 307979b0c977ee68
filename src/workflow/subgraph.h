// Normalized fork/loop subgraph record shared by the specification,
// validation and hierarchy-construction code.
#ifndef SKL_WORKFLOW_SUBGRAPH_H_
#define SKL_WORKFLOW_SUBGRAPH_H_

#include <cstdint>
#include <vector>

#include "src/common/bitset.h"
#include "src/graph/digraph.h"

namespace skl {

/// Kind of a declared repeatable subgraph.
enum class SubgraphKind : uint8_t { kFork, kLoop };

/// A normalized fork or loop subgraph of the specification.
struct SubgraphInfo {
  SubgraphKind kind = SubgraphKind::kFork;
  VertexId source = kInvalidVertex;
  VertexId sink = kInvalidVertex;
  std::vector<VertexId> vertices;  ///< sorted, incl. s/t
  DynamicBitset vertex_set;        ///< over V(G)
  /// E(H) over G's edge ids (Digraph::EdgeIndex); G has no parallel edges,
  /// so an id names exactly one (u, v) pair.
  DynamicBitset edge_set;
  DynamicBitset dom_set;  ///< Definition 2: V*(H) for forks, V(H) for loops.
};

/// Calls f(u, v, e) on every out-edge u -> v of every vertex u in `from`,
/// where e is the edge's id: u's out-edges hold consecutive ids in
/// OutNeighbors order, from EdgeIndex(u, first out-neighbor).
template <typename F>
void ForEachOutEdge(const Digraph& g, const std::vector<VertexId>& from,
                    F&& f) {
  for (VertexId u : from) {
    const auto out = g.OutNeighbors(u);
    if (out.empty()) continue;
    const size_t first = g.EdgeIndex(u, out.front());
    for (size_t k = 0; k < out.size(); ++k) f(u, out[k], first + k);
  }
}

}  // namespace skl

#endif  // SKL_WORKFLOW_SUBGRAPH_H_
