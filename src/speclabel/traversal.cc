#include "src/speclabel/traversal.h"

#include <algorithm>
#include <vector>

namespace skl {

namespace {

/// Reflexive reachability u ~> v by graph search: breadth-first pops the
/// pending list from the front, depth-first from the back. The scratch is
/// per thread because one built scheme serves every thread that queries
/// its service; visited stamps carry a per-query epoch, so they are never
/// cleared between queries.
template <bool kDepthFirst>
bool Search(const Digraph& graph, VertexId u, VertexId v) {
  if (u == v) return true;
  thread_local std::vector<uint32_t> stamps;
  thread_local std::vector<VertexId> pending;  // BFS queue / DFS stack
  thread_local uint32_t epoch = 0;
  if (stamps.size() < graph.num_vertices()) {
    stamps.resize(graph.num_vertices(), 0);
  }
  if (++epoch == 0) {
    // Wrapped: a stamp left from 2^32 queries ago could alias epoch 1.
    std::fill(stamps.begin(), stamps.end(), 0);
    epoch = 1;
  }
  uint32_t* stamp = stamps.data();  // not resized during the search
  const uint32_t current = epoch;
  pending.clear();
  pending.push_back(u);
  stamp[u] = current;
  size_t head = 0;
  while (head < pending.size()) {
    VertexId x;
    if constexpr (kDepthFirst) {
      x = pending.back();
      pending.pop_back();
    } else {
      x = pending[head++];
    }
    for (VertexId y : graph.OutNeighbors(x)) {
      if (y == v) return true;
      if (stamp[y] != current) {
        stamp[y] = current;
        pending.push_back(y);
      }
    }
  }
  return false;
}

}  // namespace

Status BfsScheme::Build(const Digraph& g) {
  graph_ = g;
  return Status::OK();
}

bool BfsScheme::Reaches(VertexId u, VertexId v) const {
  return Search</*kDepthFirst=*/false>(graph_, u, v);
}

Status DfsScheme::Build(const Digraph& g) {
  graph_ = g;
  return Status::OK();
}

bool DfsScheme::Reaches(VertexId u, VertexId v) const {
  return Search</*kDepthFirst=*/true>(graph_, u, v);
}

}  // namespace skl
