#include "src/graph/algorithms.h"

#include <algorithm>

#include "src/common/check.h"

namespace skl {

Result<std::vector<VertexId>> TopologicalSort(const Digraph& g) {
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> indeg(n);
  for (VertexId v = 0; v < n; ++v) {
    indeg[v] = static_cast<uint32_t>(g.InDegree(v));
  }
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  size_t head = 0;
  while (head < queue.size()) {
    VertexId u = queue[head++];
    order.push_back(u);
    for (VertexId v : g.OutNeighbors(u)) {
      if (--indeg[v] == 0) queue.push_back(v);
    }
  }
  if (order.size() != n) {
    return Status::InvalidArgument("graph contains a cycle");
  }
  return order;
}

bool IsAcyclic(const Digraph& g) { return TopologicalSort(g).ok(); }

bool Reaches(const Digraph& g, VertexId u, VertexId v) {
  if (u == v) return true;
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> queue{u};
  seen[u] = true;
  size_t head = 0;
  while (head < queue.size()) {
    VertexId x = queue[head++];
    for (VertexId y : g.OutNeighbors(x)) {
      if (y == v) return true;
      if (!seen[y]) {
        seen[y] = true;
        queue.push_back(y);
      }
    }
  }
  return false;
}

bool ReachesDfs(const Digraph& g, VertexId u, VertexId v) {
  if (u == v) return true;
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> stack{u};
  seen[u] = true;
  while (!stack.empty()) {
    VertexId x = stack.back();
    stack.pop_back();
    for (VertexId y : g.OutNeighbors(x)) {
      if (y == v) return true;
      if (!seen[y]) {
        seen[y] = true;
        stack.push_back(y);
      }
    }
  }
  return false;
}

DynamicBitset ReachableFrom(const Digraph& g, VertexId u) {
  DynamicBitset reach(g.num_vertices());
  std::vector<VertexId> stack{u};
  reach.Set(u);
  while (!stack.empty()) {
    VertexId x = stack.back();
    stack.pop_back();
    for (VertexId y : g.OutNeighbors(x)) {
      if (!reach.Test(y)) {
        reach.Set(y);
        stack.push_back(y);
      }
    }
  }
  return reach;
}

std::vector<DynamicBitset> TransitiveClosure(const Digraph& g) {
  auto topo = TopologicalSort(g);
  SKL_CHECK_MSG(topo.ok(), "TransitiveClosure requires an acyclic graph");
  const VertexId n = g.num_vertices();
  std::vector<DynamicBitset> closure(n);
  for (VertexId v = 0; v < n; ++v) closure[v] = DynamicBitset(n);
  // Process in reverse topological order so successors are complete.
  const auto& order = topo.value();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VertexId u = *it;
    closure[u].Set(u);
    for (VertexId v : g.OutNeighbors(u)) {
      closure[u].UnionWith(closure[v]);
    }
  }
  return closure;
}

std::vector<VertexId> Sources(const Digraph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> Sinks(const Digraph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) == 0) out.push_back(v);
  }
  return out;
}

bool InducedWeaklyConnected(const Digraph& g,
                            const std::vector<bool>& in_set) {
  SKL_DCHECK(in_set.size() == g.num_vertices());
  VertexId start = kInvalidVertex;
  size_t total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (in_set[v]) {
      if (start == kInvalidVertex) start = v;
      ++total;
    }
  }
  if (total <= 1) return true;
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> stack{start};
  seen[start] = true;
  size_t visited = 1;
  while (!stack.empty()) {
    VertexId x = stack.back();
    stack.pop_back();
    auto visit = [&](VertexId y) {
      if (in_set[y] && !seen[y]) {
        seen[y] = true;
        ++visited;
        stack.push_back(y);
      }
    };
    for (VertexId y : g.OutNeighbors(x)) visit(y);
    for (VertexId y : g.InNeighbors(x)) visit(y);
  }
  return visited == total;
}

bool HasParallelEdges(const Digraph& g) {
  // An out-list is contiguous, so a target already stamped with the current
  // source repeats an edge of it.
  std::vector<VertexId> last_source(g.num_vertices(), kInvalidVertex);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      if (last_source[v] == u) return true;
      last_source[v] = u;
    }
  }
  return false;
}

}  // namespace skl
