// Spec-pair memo for the search schemes (BFS, DFS): a SpecLabelingScheme
// decorator that remembers the answers of the wrapped scheme's Reaches(u, v).
//
// A run query reaches the skeleton only through Reaches(a.origin, b.origin)
// (RunLabeling::Decide), and that answer does not depend on the run. So the
// memo sits on the skeleton, not on the runs: one table per built spec graph,
// shared by every run labeled against it. A spec graph is immutable once
// built (a delta builds a new epoch with its own memo), so no run operation
// ever has to invalidate an entry.
//
// The table is direct-mapped, one 64-bit word per slot:
//
//   word = (u + 1) << 32 | v << 1 | answer        (0 = empty slot)
//
// Spec vertex ids stay below 2^31, so v << 1 never reaches u's bits.
// Loads and stores are relaxed. A hit requires the whole key to match, and
// the key and the answer travel in one word, so a collision or a lost race
// costs a recompute, never a wrong answer. The slot count comes from the
// graph: min(bit_ceil(n^2), 2^16), so at most 512 KB per memo.
#ifndef SKL_SPECLABEL_MEMO_H_
#define SKL_SPECLABEL_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/speclabel/scheme.h"

namespace skl {

/// Hit and miss counts of one or more memos, striped by thread: a counting
/// reader writes only its own stripe's cache line, and the totals are
/// summed when read.
class MemoTally {
 public:
  void Count(bool hit);
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  static constexpr size_t kStripes = 32;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };
  Stripe stripes_[kStripes];
};

class MemoizedScheme : public SpecLabelingScheme {
 public:
  /// Wraps `inner` (not yet built). Every lookup is counted on `tally`,
  /// which is borrowed and must outlive the memo.
  MemoizedScheme(std::unique_ptr<SpecLabelingScheme> inner,
                 MemoTally* tally);

  std::string_view name() const override { return inner_->name(); }
  Status Build(const Digraph& g) override;
  /// Forwards to the inner scheme; a memo `previous` is unwrapped first.
  Status BuildIncremental(const Digraph& new_graph,
                          const SpecLabelingScheme& previous,
                          std::span<const VertexId> vertex_remap,
                          std::span<const VertexId> dirty) override;
  bool Reaches(VertexId u, VertexId v) const override;
  size_t TotalLabelBits() const override { return inner_->TotalLabelBits(); }
  size_t MaxLabelBits() const override { return inner_->MaxLabelBits(); }
  bool SearchesGraph() const override { return inner_->SearchesGraph(); }

  size_t num_slots() const { return mask_ + 1; }

 private:
  /// Sizes (and clears) the table for a graph of `n` vertices.
  void Reset(VertexId n);

  std::unique_ptr<SpecLabelingScheme> inner_;
  MemoTally* tally_;
  size_t mask_ = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
};

}  // namespace skl

#endif  // SKL_SPECLABEL_MEMO_H_
