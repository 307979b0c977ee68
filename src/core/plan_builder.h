// Linear-time recovery of the execution plan T_R and context function from a
// raw run graph (paper Section 5, algorithms ComputeContext/SearchNodes).
//
// The run is processed bottom-up along the fork/loop hierarchy T_G. At each
// level, copies of each subgraph H are discovered from "leader" seed edges
// (a member edge of E(H) for leaves; the collapsed execution edge of a
// designated child for inner nodes), explored by a pruned undirected DFS that
// never leaves the copy, and then collapsed to a single special edge.
// Parallel fork copies sharing a source/sink pair are grouped under one F-
// node; serial loop copies are chained along the loop's serial edges under an
// ordered L- node. Special edges are tagged with the plan node they stand
// for, which removes the leader-bookkeeping ambiguity of the paper; at most
// |V(T_R)| <= 4 m_R of them are ever created (Lemma 4.2).
//
// The contraction works on the run's own CSR, not on a copy: a run edge is
// only marked consumed, and special edges go to one side list, linked per
// endpoint in creation order. A vertex's live edges are its unconsumed run
// edges in out-CSR id order followed by its live special edges; that order
// fixes the plan's child order, and so the labels. A consumed edge is passed
// again when its endpoint is walked later, but a vertex is walked at most
// once per hierarchy level, so recovery is O(depth(T_G) * m_R): linear in
// the run for a given specification.
//
// Each run edge's spec edge (its id in the spec graph's CSR) is resolved
// once; the hierarchy's per-spec-edge owner and leaf-leader tables (sized
// m_G) then seed the leaves and check every copy's own edges, and the
// per-level grouping of copies uses run-vertex-indexed stamped arrays, so
// recovery does no hashing and no per-vertex allocation.
//
// ConstructPlan doubles as a conformance checker: a run that was not derived
// from the specification fails with InvalidRun.
#ifndef SKL_CORE_PLAN_BUILDER_H_
#define SKL_CORE_PLAN_BUILDER_H_

#include <vector>

#include "src/common/status.h"
#include "src/core/execution_plan.h"
#include "src/workflow/run.h"
#include "src/workflow/specification.h"

namespace skl {

struct RecoveredPlan {
  ExecutionPlan plan;
  std::vector<VertexId> origin;  ///< run vertex -> spec vertex
};

/// Recovers plan + context + origin from a raw run graph.
Result<RecoveredPlan> ConstructPlan(const Specification& spec, const Run& run);

/// Variant with a precomputed origin function (spares the name matching).
Result<RecoveredPlan> ConstructPlanWithOrigin(const Specification& spec,
                                              const Run& run,
                                              std::vector<VertexId> origin);

}  // namespace skl

#endif  // SKL_CORE_PLAN_BUILDER_H_
