// TCM (paper Section 7): precomputes the reflexive transitive-closure matrix
// of the graph and assigns row i as the label of vertex i. Constant query
// time; n bits per label.
#ifndef SKL_SPECLABEL_TCM_H_
#define SKL_SPECLABEL_TCM_H_

#include <span>
#include <vector>

#include "src/common/bitset.h"
#include "src/speclabel/scheme.h"

namespace skl {

class TcmScheme : public SpecLabelingScheme {
 public:
  std::string_view name() const override { return "TCM"; }
  Status Build(const Digraph& g) override;
  /// The closure matrix is canonical, so an incremental build can copy the
  /// rows of vertices outside the dirty region verbatim (remapping columns
  /// through `vertex_remap`) and recompute only the dirty rows by BFS —
  /// bit-identical to a full rebuild.
  Status BuildIncremental(const Digraph& new_graph,
                          const SpecLabelingScheme& previous,
                          std::span<const VertexId> vertex_remap,
                          std::span<const VertexId> dirty) override;
  bool Reaches(VertexId u, VertexId v) const override;
  /// Closure-row lookups with no virtual call per pair.
  void ReachesMany(std::span<const VertexId> u, std::span<const VertexId> v,
                   uint8_t* out) const override;
  size_t TotalLabelBits() const override;
  size_t MaxLabelBits() const override;

 private:
  std::vector<DynamicBitset> closure_;
};

}  // namespace skl

#endif  // SKL_SPECLABEL_TCM_H_
