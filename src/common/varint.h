// LEB128 varints: 7 bits a byte, low group first, the high bit set on every
// byte but the last. The one byte-wise codec behind every varint this
// library writes: wire payloads (src/net/protocol.h) and the byte-aligned
// varint fields of BitWriter/BitReader (snapshots, op-log, run blobs).
#ifndef SKL_COMMON_VARINT_H_
#define SKL_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace skl {

/// Appends `value` as a varint (1 to 10 bytes).
inline void AppendVarint(uint64_t value, std::vector<uint8_t>* out) {
  for (; value >= 0x80; value >>= 7) {
    out->push_back(static_cast<uint8_t>(value | 0x80));
  }
  out->push_back(static_cast<uint8_t>(value));
}

enum class VarintError {
  kNone,
  kTruncated,  ///< the bytes end inside the varint
  kTooLong,    ///< more than 10 bytes: not a 64-bit value
};

/// Decodes the varint at bytes[*pos] into *value and advances *pos past it.
/// On an error neither is written.
inline VarintError DecodeVarint(std::span<const uint8_t> bytes, size_t* pos,
                                uint64_t* value) {
  uint64_t out = 0;
  size_t at = *pos;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (at >= bytes.size()) return VarintError::kTruncated;
    const uint8_t byte = bytes[at++];
    out |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = out;
      *pos = at;
      return VarintError::kNone;
    }
  }
  return VarintError::kTooLong;
}

}  // namespace skl

#endif  // SKL_COMMON_VARINT_H_
