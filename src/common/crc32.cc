#include "src/common/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace skl {

namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320 (IEEE 802.3).
// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the CRC
// of byte b followed by k zero bytes, so eight lookups fold eight input
// bytes into the register at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

/// Spans shorter than this never reach the carry-less-multiply kernel: it
/// needs four 16-byte lanes to start its fold.
constexpr size_t kClmulMinBytes = 64;

/// The four bytes at `p` as a little-endian word, whatever the host order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#if defined(__x86_64__)
/// Folds `n` bytes at `p` into the CRC register `c` (pre-inverted, as in
/// the table loop) by carry-less multiplication. Precondition: n >= 64 and
/// n % 16 == 0. The constants are x^k mod P for the reflected IEEE
/// polynomial: k1/k2 fold 64 bytes ahead, k3/k4 16 bytes, k5 the last 64
/// bits to 32, and poly/mu are P and floor(x^64 / P) for the Barrett step.
__attribute__((target("pclmul,sse4.1"))) uint32_t ClmulFold(
    uint32_t c, const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0xccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  auto load = [](const uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // x * k folded onto the next 16 bytes `next`. A lambda does not inherit
  // the target of the function around it, so it names its own.
  auto fold = [](__m128i x, __m128i k, __m128i next)
                  __attribute__((target("pclmul,sse4.1"))) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                       _mm_clmulepi64_si128(x, k, 0x00)),
                         next);
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = fold(x1, k3k4, load(p));
  }

  // 128 bits to 64, then 64 to 32 bits of remainder-to-be.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to the 32-bit CRC register.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif

}  // namespace

namespace crc32_internal {

bool HostHasClmul() {
#if defined(__x86_64__)
  // A function-local static, not a namespace-scope one: the CPU probe
  // __builtin_cpu_supports reads may not have run before other static
  // initializers.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
#else
  return false;
#endif
}

uint32_t TableCrc32Update(uint32_t seed, std::span<const uint8_t> bytes) {
  const Tables& t = kTables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t ClmulCrc32Update(uint32_t seed, std::span<const uint8_t> bytes) {
#if defined(__x86_64__)
  if (bytes.size() >= kClmulMinBytes) {
    const size_t folded = bytes.size() & ~size_t{15};
    const uint32_t c = ClmulFold(seed ^ 0xFFFFFFFFu, bytes.data(), folded);
    return TableCrc32Update(c ^ 0xFFFFFFFFu, bytes.subspan(folded));
  }
#endif
  return TableCrc32Update(seed, bytes);
}

}  // namespace crc32_internal

uint32_t Crc32Update(uint32_t seed, std::span<const uint8_t> bytes) {
  if (bytes.size() >= kClmulMinBytes && crc32_internal::HostHasClmul()) {
    return crc32_internal::ClmulCrc32Update(seed, bytes);
  }
  return crc32_internal::TableCrc32Update(seed, bytes);
}

uint32_t Crc32(std::span<const uint8_t> bytes) {
  return Crc32Update(0, bytes);
}

}  // namespace skl
