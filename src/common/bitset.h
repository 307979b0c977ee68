// DynamicBitset: fixed-size-at-construction bit vector with word-level
// operations. Backs the transitive-closure matrix (TCM) scheme and various
// set computations in validation code.
#ifndef SKL_COMMON_BITSET_H_
#define SKL_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace skl {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(size_t size);

  size_t size() const { return size_; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const {
    SKL_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Sets every bit that is set in `other`. Sizes must match.
  void UnionWith(const DynamicBitset& other);
  /// Clears bits not set in `other`. Sizes must match.
  void IntersectWith(const DynamicBitset& other);

  /// Number of set bits.
  size_t Count() const;
  /// True if no bit is set.
  bool None() const;
  /// True iff every set bit of *this is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;
  /// True iff *this and `other` share at least one set bit.
  bool Intersects(const DynamicBitset& other) const;

  bool operator==(const DynamicBitset& other) const;

  /// Index of the first set bit, or size() if none.
  size_t FindFirst() const;
  /// Index of the first set bit at position > i, or size() if none.
  size_t FindNext(size_t i) const;

  /// Grows the bitset to `new_size` bits; the new bits are clear. Must not
  /// shrink. Word-level — the incremental-relabel fast paths rely on this
  /// being O(words), not O(bits).
  void GrowTo(size_t new_size);
  /// Removes the bit at `pos`: every bit above it shifts down one and the
  /// size drops by one. Word-level (shift with cross-word carry), so a row
  /// copy under a single-module removal costs O(words), not O(set bits).
  void EraseBit(size_t pos);

  /// Storage footprint in bytes (used by label-length accounting).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace skl

#endif  // SKL_COMMON_BITSET_H_
