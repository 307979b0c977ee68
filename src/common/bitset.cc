#include "src/common/bitset.h"

#include <bit>

#include "src/common/check.h"

namespace skl {

DynamicBitset::DynamicBitset(size_t size)
    : size_(size), words_((size + 63) / 64, 0) {}

void DynamicBitset::Set(size_t i) {
  SKL_DCHECK(i < size_);
  words_[i >> 6] |= (uint64_t{1} << (i & 63));
}

void DynamicBitset::Clear(size_t i) {
  SKL_DCHECK(i < size_);
  words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

void DynamicBitset::UnionWith(const DynamicBitset& other) {
  SKL_DCHECK(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

void DynamicBitset::IntersectWith(const DynamicBitset& other) {
  SKL_DCHECK(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

size_t DynamicBitset::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

bool DynamicBitset::None() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool DynamicBitset::IsSubsetOf(const DynamicBitset& other) const {
  SKL_DCHECK(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] & ~other.words_[w]) return false;
  }
  return true;
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  SKL_DCHECK(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] & other.words_[w]) return true;
  }
  return false;
}

bool DynamicBitset::operator==(const DynamicBitset& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

size_t DynamicBitset::FindFirst() const {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return (w << 6) + static_cast<size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

void DynamicBitset::GrowTo(size_t new_size) {
  SKL_DCHECK(new_size >= size_);
  size_ = new_size;
  words_.resize((new_size + 63) / 64, 0);
}

void DynamicBitset::EraseBit(size_t pos) {
  SKL_DCHECK(pos < size_);
  const size_t w = pos >> 6;
  const size_t b = pos & 63;
  // In the word holding `pos`: keep the bits below it, shift the bits
  // above it down one.
  const uint64_t low_mask = b == 0 ? 0 : (~uint64_t{0} >> (64 - b));
  words_[w] = (words_[w] & low_mask) | ((words_[w] >> 1) & ~low_mask);
  // Each later word shifts right one, its lowest bit carrying into the
  // previous word's top bit.
  for (size_t k = w + 1; k < words_.size(); ++k) {
    words_[k - 1] |= (words_[k] & 1) << 63;
    words_[k] >>= 1;
  }
  --size_;
  words_.resize((size_ + 63) / 64);
}

size_t DynamicBitset::FindNext(size_t i) const {
  ++i;
  if (i >= size_) return size_;
  size_t w = i >> 6;
  uint64_t masked = words_[w] & (~uint64_t{0} << (i & 63));
  if (masked != 0) {
    return (w << 6) + static_cast<size_t>(std::countr_zero(masked));
  }
  for (++w; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return (w << 6) + static_cast<size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

}  // namespace skl
