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
// for, which removes the leader-bookkeeping ambiguity of the paper while
// keeping the same asymptotics: every run edge is traversed O(1) times and at
// most |V(T_R)| <= 4 m_R special edges are ever created (Lemma 4.2).
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
