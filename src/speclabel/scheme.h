// Reachability labeling schemes for the specification graph (the "skeleton"
// of Section 7). Any scheme exposing this interface can back the SKL run
// labeling; the paper evaluates TCM (transitive closure matrix) and BFS, and
// we additionally provide DFS, an interval scheme for trees, a tree-cover
// scheme and a chain-decomposition scheme for the robustness ablation.
//
// Reachability is reflexive throughout the library: Reaches(u, u) == true.
#ifndef SKL_SPECLABEL_SCHEME_H_
#define SKL_SPECLABEL_SCHEME_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/graph/digraph.h"

namespace skl {

/// Identifiers for the bundled schemes.
enum class SpecSchemeKind {
  kTcm,        ///< precomputed transitive-closure matrix; O(1) query
  kBfs,        ///< no index; BFS per query
  kDfs,        ///< no index; DFS per query
  kInterval,   ///< Santoro-Khatib intervals; trees only
  kTreeCover,  ///< Agrawal et al. tree cover (spanning tree + intervals)
  kChain,      ///< Jagadish chain decomposition
  kTwoHop,     ///< Cohen et al. 2-hop cover (greedy set cover)
};

const char* SpecSchemeKindName(SpecSchemeKind kind);

/// Inverse of SpecSchemeKindName, for CLI/config parsing. Accepts the
/// canonical names ("TCM", "TREECOVER", "2HOP", ...) and the CLI spellings
/// ("tcm", "tree-cover", "two-hop", ...), case-insensitively. Fails with
/// InvalidArgument listing the accepted names.
Result<SpecSchemeKind> ParseSpecSchemeKind(std::string_view name);

/// A built reachability index over one DAG.
class SpecLabelingScheme {
 public:
  virtual ~SpecLabelingScheme() = default;

  /// Scheme name for reports ("TCM", "BFS", ...).
  virtual std::string_view name() const = 0;

  /// Builds labels for `g`. Must be called exactly once before queries.
  virtual Status Build(const Digraph& g) = 0;

  /// Builds labels for `new_graph` given the built index of `previous`
  /// (the same scheme kind over the pre-delta graph), a vertex remap
  /// (`vertex_remap[old] == new id`, or kInvalidVertex if removed) and the
  /// set of `dirty` new-graph vertices whose reachable sets may have
  /// changed (docs/UPDATES.md). Implementations must produce a result
  /// bit-identical to Build(new_graph); the default does exactly that.
  /// Schemes with a canonical index (TCM) override this to reuse the clean
  /// region of `previous` and recompute only the dirty rows.
  virtual Status BuildIncremental(const Digraph& new_graph,
                                  const SpecLabelingScheme& previous,
                                  std::span<const VertexId> vertex_remap,
                                  std::span<const VertexId> dirty) {
    (void)previous;
    (void)vertex_remap;
    (void)dirty;
    return Build(new_graph);
  }

  /// Reflexive reachability between spec vertices.
  virtual bool Reaches(VertexId u, VertexId v) const = 0;

  /// Batch form of Reaches: out[i] = Reaches(u[i], v[i]) as 0/1 for every
  /// i < u.size() (u and v have the same size). The default loops over
  /// Reaches, so a decorator (MemoizedScheme) still sees every pair;
  /// schemes with a cheap direct lookup override it to skip the per-pair
  /// virtual call (TCM).
  virtual void ReachesMany(std::span<const VertexId> u,
                           std::span<const VertexId> v, uint8_t* out) const {
    for (size_t i = 0; i < u.size(); ++i) out[i] = Reaches(u[i], v[i]);
  }

  /// Total index size in bits across all vertices (0 for search-based
  /// schemes, which keep only the graph itself).
  virtual size_t TotalLabelBits() const = 0;

  /// Largest single-vertex label in bits.
  virtual size_t MaxLabelBits() const = 0;

  /// True for schemes that answer by graph search with no index (BFS, DFS).
  virtual bool SearchesGraph() const { return false; }

  /// Wall-clock seconds spent in Build (0 until built).
  double BuildSeconds() const { return build_seconds_; }

 protected:
  double build_seconds_ = 0;
};

/// Instantiates a scheme by kind.
std::unique_ptr<SpecLabelingScheme> CreateSpecScheme(SpecSchemeKind kind);

}  // namespace skl

#endif  // SKL_SPECLABEL_SCHEME_H_
