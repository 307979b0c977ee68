// BFS/DFS "schemes" (paper Section 7): no index is built; every query runs a
// graph search over the stored graph. Label length and construction time are
// treated as zero, query time is O(m + n). Queries are safe to run
// concurrently: the search scratch is per thread, not per scheme.
#ifndef SKL_SPECLABEL_TRAVERSAL_H_
#define SKL_SPECLABEL_TRAVERSAL_H_

#include "src/graph/digraph.h"
#include "src/speclabel/scheme.h"

namespace skl {

class BfsScheme : public SpecLabelingScheme {
 public:
  std::string_view name() const override { return "BFS"; }
  Status Build(const Digraph& g) override;
  bool Reaches(VertexId u, VertexId v) const override;
  size_t TotalLabelBits() const override { return 0; }
  size_t MaxLabelBits() const override { return 0; }
  bool SearchesGraph() const override { return true; }

 private:
  Digraph graph_;
};

class DfsScheme : public SpecLabelingScheme {
 public:
  std::string_view name() const override { return "DFS"; }
  Status Build(const Digraph& g) override;
  bool Reaches(VertexId u, VertexId v) const override;
  size_t TotalLabelBits() const override { return 0; }
  size_t MaxLabelBits() const override { return 0; }
  bool SearchesGraph() const override { return true; }

 private:
  Digraph graph_;
};

}  // namespace skl

#endif  // SKL_SPECLABEL_TRAVERSAL_H_
