#include "src/core/run_labeling.h"

#include "src/common/bit_codec.h"
#include "src/common/check.h"

namespace skl {

Result<RunLabeling> RunLabeling::FromPlan(const Specification& spec,
                                          const SpecLabelingScheme* scheme,
                                          const ExecutionPlan& plan,
                                          std::vector<VertexId> origin) {
  if (scheme == nullptr) {
    return Status::InvalidArgument("null skeleton scheme");
  }
  if (origin.size() != plan.num_run_vertices()) {
    return Status::InvalidArgument("origin/plan size mismatch");
  }
  RunLabeling rl;
  rl.scheme_ = scheme;
  ContextEncoding enc = GenerateThreeOrders(plan);
  rl.labels_.resize(plan.num_run_vertices());
  for (VertexId v = 0; v < plan.num_run_vertices(); ++v) {
    PlanNodeId x = plan.ContextOf(v);
    if (x == kInvalidPlanNode) {
      return Status::Internal("vertex without context");
    }
    if (enc.q1[x] == 0) {
      return Status::Internal("context is an empty + node");
    }
    rl.labels_[v] =
        RunLabel{enc.q1[x], enc.q2[x], enc.q3[x], origin[v]};
  }
  rl.num_nonempty_plus_ = enc.num_nonempty_plus;
  rl.context_bits_ =
      3 * static_cast<uint32_t>(BitsForCount(enc.num_nonempty_plus));
  rl.origin_bits_ =
      static_cast<uint32_t>(BitsForCount(spec.graph().num_vertices()));
  return rl;
}

bool RunLabeling::Decide(const RunLabel& a, const RunLabel& b,
                         const SpecLabelingScheme& scheme) {
  const ContextVerdict context = ContextTest(a, b);
  if (context.split != 0) return context.forward != 0;
  return scheme.Reaches(a.origin, b.origin);
}

const char* RunRelationshipName(RunRelationship r) {
  switch (r) {
    case RunRelationship::kEqual:
      return "equal";
    case RunRelationship::kForward:
      return "forward";
    case RunRelationship::kBackward:
      return "backward";
    case RunRelationship::kUnrelated:
      return "unrelated";
  }
  return "?";
}

RunRelationship RunLabeling::Relate(VertexId v, VertexId w) const {
  if (v == w) return RunRelationship::kEqual;
  const RunLabel& a = labels_[v];
  const RunLabel& b = labels_[w];
  const ContextVerdict context = ContextTest(a, b);
  if (context.split != 0) {
    // L- ancestor: O1 and the reversed O3 disagree, direction from O1.
    // F- ancestor: O1 and O3 agree, so neither direction's test fires.
    if (context.forward != 0) return RunRelationship::kForward;
    if (ContextTest(b, a).forward != 0) return RunRelationship::kBackward;
    return RunRelationship::kUnrelated;
  }
  if (scheme_->Reaches(a.origin, b.origin)) return RunRelationship::kForward;
  if (scheme_->Reaches(b.origin, a.origin)) {
    return RunRelationship::kBackward;
  }
  return RunRelationship::kUnrelated;
}

bool RunLabeling::ReachesWithStats(VertexId v, VertexId w,
                                   bool* used_skeleton) const {
  const RunLabel& a = labels_[v];
  const RunLabel& b = labels_[w];
  const ContextVerdict context = ContextTest(a, b);
  *used_skeleton = context.split == 0;
  if (context.split != 0) return context.forward != 0;
  return scheme_->Reaches(a.origin, b.origin);
}

}  // namespace skl
