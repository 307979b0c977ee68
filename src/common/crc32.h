// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) used to checksum
// every durable or transmitted byte: snapshot sections, op-log frames and
// wire frames. A flipped bit in any of them must be reported as corruption,
// never parsed into a wrong-but-plausible value.
//
// Two kernels compute the same checksum. On x86-64 hosts with PCLMULQDQ,
// spans of at least 64 bytes are folded 64 bytes per step by carry-less
// multiplication (Intel's "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ", as in zlib's crc32_simd), then reduced to 32 bits by
// Barrett reduction; the last 0-15 bytes go through the table kernel.
// Every other span, and every other host, uses the portable slice-by-8
// table kernel (eight bytes per step). Both kernels use the same reflected
// polynomial, init and final xor, so no stored or transmitted byte depends
// on which one ran. The choice is the CPU's alone: there is no knob.
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

/// The two kernels behind Crc32Update, exposed so tests can check each one
/// on every host. Callers outside tests and benches use Crc32Update.
namespace crc32_internal {

/// True when this host can run ClmulCrc32Update (x86-64 with PCLMULQDQ
/// and SSE4.1). Read from the CPU once, on first call.
bool HostHasClmul();

/// The slice-by-8 table kernel; runs on every host.
uint32_t TableCrc32Update(uint32_t seed, std::span<const uint8_t> bytes);

/// The carry-less-multiply kernel: folds the 16-byte-multiple prefix of a
/// span of at least 64 bytes and hands the tail, or a shorter span whole,
/// to TableCrc32Update. Precondition: HostHasClmul().
uint32_t ClmulCrc32Update(uint32_t seed, std::span<const uint8_t> bytes);

}  // namespace crc32_internal

}  // namespace skl

#endif  // SKL_COMMON_CRC32_H_
