// SKL run labels (paper Algorithms 2 and 3): every run vertex carries its
// context encoding (q1, q2, q3) plus the identity of its origin, whose
// skeleton label is held by the specification's labeling scheme.
//
// Query semantics (Algorithm 3): for labels (q1,q2,q3,.) and (q1',q2',q3',.)
//   if (q2-q2')*(q3-q3') < 0: the contexts' LCA is an F- or L- node and the
//     answer is q1 < q1' && q3 > q3' (L- in serial order), else 0;
//   otherwise the LCA is a + node and the answer is the skeleton predicate on
//     the origins.
#ifndef SKL_CORE_RUN_LABELING_H_
#define SKL_CORE_RUN_LABELING_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/core/execution_plan.h"
#include "src/core/orders.h"
#include "src/speclabel/scheme.h"
#include "src/workflow/run.h"
#include "src/workflow/specification.h"

namespace skl {

/// Label of one run vertex. The skeleton label itself is not duplicated per
/// vertex: `origin` indexes the scheme's label, exactly as the paper's
/// accounting assumes (log n_G bits to reference one of n_G skeleton labels).
struct RunLabel {
  uint32_t q1 = 0;
  uint32_t q2 = 0;
  uint32_t q3 = 0;
  VertexId origin = kInvalidVertex;
};

/// Lemma 4.5's context test on two labels' context encodings (their origins
/// are not read). `split` is (q2-q2')*(q3-q3') < 0: the contexts' LCA is an
/// F- or L- node, and `forward` is then the answer (q1 < q1' && q3 > q3'
/// singles out the L- case in the forward direction). Otherwise the LCA is
/// a + node, `forward` is 0, and the answer is the skeleton predicate on
/// the origins.
///
/// No && or ||, so a batch loop over it carries no data-dependent branch.
/// The product is of the differences' signs, which cannot overflow and
/// leaves a branching caller (Decide) one test to branch on. The verdicts
/// are 0/1 words rather than bools, so a batch loop keeps each in a
/// register of its own.
struct ContextVerdict {
  uint32_t split;
  uint32_t forward;
};

/// `Context` is any type with fields q1, q2 and q3 that order as the
/// context encodings do: a RunLabel, or a stored label word's fields
/// masked in place (PackedContext, src/core/provenance_store.h), which
/// compare like the fields themselves without being shifted down.
template <typename Context>
inline ContextVerdict ContextTest(const Context& a, const Context& b) {
  const int sign2 = (a.q2 > b.q2) - (a.q2 < b.q2);
  const int sign3 = (a.q3 > b.q3) - (a.q3 < b.q3);
  const uint32_t split = sign2 * sign3 < 0;
  const uint32_t forward = split & (a.q1 < b.q1) & (a.q3 > b.q3);
  return {split, forward};
}

/// How two run vertices relate under the dependency order.
enum class RunRelationship {
  kEqual,      ///< same vertex
  kForward,    ///< v reaches w (w depends on v)
  kBackward,   ///< w reaches v
  kUnrelated,  ///< neither (parallel fork copies or incomparable branches)
};

const char* RunRelationshipName(RunRelationship r);

/// Immutable labeling of one run against a labeled specification.
class RunLabeling {
 public:
  /// Builds labels from an execution plan + context (either recovered by
  /// ConstructPlan or supplied by the workflow engine). `scheme` must outlive
  /// the labeling and be built over spec.graph().
  static Result<RunLabeling> FromPlan(const Specification& spec,
                                      const SpecLabelingScheme* scheme,
                                      const ExecutionPlan& plan,
                                      std::vector<VertexId> origin);

  const RunLabel& label(VertexId v) const { return labels_[v]; }
  const std::vector<RunLabel>& labels() const { return labels_; }
  VertexId num_vertices() const {
    return static_cast<VertexId>(labels_.size());
  }

  /// Algorithm 3: is there a path from v to w (reflexive)?
  bool Reaches(VertexId v, VertexId w) const {
    return Decide(labels_[v], labels_[w], *scheme_);
  }

  /// Variant reporting whether the skeleton predicate was consulted (the
  /// paper's "frequently answered by extended labels alone" observation).
  bool ReachesWithStats(VertexId v, VertexId w, bool* used_skeleton) const;

  /// Classifies the pair under the dependency order (two predicate
  /// evaluations at most; the F-/L- cases need only one).
  RunRelationship Relate(VertexId v, VertexId w) const;

  /// Pure label-vs-label predicate, usable on deserialized labels.
  static bool Decide(const RunLabel& a, const RunLabel& b,
                     const SpecLabelingScheme& scheme);

  /// Context-encoding bits per label: 3 * ceil(log2 n_T^+) where n_T^+ is
  /// the number of nonempty + nodes (paper Lemma 4.7).
  uint32_t context_bits() const { return context_bits_; }
  /// Origin-reference bits per label: ceil(log2 n_G).
  uint32_t origin_bits() const { return origin_bits_; }
  /// Total per-label bits, 3 log n_T^+ + log n_G.
  uint32_t label_bits() const { return context_bits_ + origin_bits_; }
  /// Number of nonempty + nodes in the plan.
  uint32_t num_nonempty_plus() const { return num_nonempty_plus_; }

  const SpecLabelingScheme& scheme() const { return *scheme_; }

 private:
  std::vector<RunLabel> labels_;
  const SpecLabelingScheme* scheme_ = nullptr;
  uint32_t context_bits_ = 0;
  uint32_t origin_bits_ = 0;
  uint32_t num_nonempty_plus_ = 0;
};

}  // namespace skl

#endif  // SKL_CORE_RUN_LABELING_H_
