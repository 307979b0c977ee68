// DynamicBitset: fixed-size-at-construction bit vector with word-level
// operations. Backs the transitive-closure matrix (TCM) scheme and various
// set computations in validation code.
#ifndef SKL_COMMON_BITSET_H_
#define SKL_COMMON_BITSET_H_

#include <algorithm>
#include <bit>
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

/// Sets bits[base + b] for every set bit b of `word` and leaves the other
/// bits as they are: a batch answer fill that writes only the true answers
/// of a result sized up front with every answer false.
inline void SetTrueBits(uint64_t word, size_t base, std::vector<bool>& bits) {
  for (; word != 0; word &= word - 1) {
    bits[base + static_cast<size_t>(std::countr_zero(word))] = true;
  }
}

/// Sets bits[i] = bit(i) for every i < bits.size(), where `bits` was sized
/// up front with every bit false and bit(i) is 0 or 1: packs 64 values to
/// a word with no branch on a value, then sets only the true ones.
template <class F>
void FillTrueBits(std::vector<bool>& bits, F&& bit) {
  for (size_t base = 0; base < bits.size(); base += 64) {
    const size_t end = std::min(base + 64, bits.size());
    uint64_t word = 0;
    for (size_t i = base; i < end; ++i) {
      word |= static_cast<uint64_t>(bit(i)) << (i - base);
    }
    SetTrueBits(word, base, bits);
  }
}

}  // namespace skl

#endif  // SKL_COMMON_BITSET_H_
