// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) used to checksum
// every durable or transmitted byte: snapshot sections, op-log frames and
// wire frames. A flipped bit in any of them must be reported as corruption,
// never parsed into a wrong-but-plausible value. Computed slice-by-8 (eight
// bytes per step); the checksum is the same as a byte-at-a-time table's.
#ifndef SKL_COMMON_CRC32_H_
#define SKL_COMMON_CRC32_H_

#include <cstdint>
#include <span>

namespace skl {

/// CRC-32 of `bytes` (init 0xFFFFFFFF, reflected, final xor — matches
/// zlib's crc32(0, data, len)).
uint32_t Crc32(std::span<const uint8_t> bytes);

/// Streaming form: feed the previous return value back in as `seed` to
/// checksum data arriving in pieces. Start with seed 0.
uint32_t Crc32Update(uint32_t seed, std::span<const uint8_t> bytes);

}  // namespace skl

#endif  // SKL_COMMON_CRC32_H_
