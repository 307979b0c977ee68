// Bit-granular writer/reader used by the label codec: SKL run labels are
// `3*ceil(log2 n_T_plus)` bits of context encoding plus `ceil(log2 n_G)` bits
// of origin id, and we serialize them at exactly that width to demonstrate the
// paper's label-length bounds on real bytes. The same codec carries the
// op-log and snapshot run blobs and spec deltas.
//
// Each Write or Read moves a whole field through a 64-bit window (the writer
// spills eight bytes whenever its window fills; the reader loads eight bytes
// big-endian at the field's first byte), never one bit at a time.
#ifndef SKL_COMMON_BIT_CODEC_H_
#define SKL_COMMON_BIT_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"

namespace skl {

/// Appends fields of arbitrary bit width (1..64) to a byte buffer, MSB-first
/// within each field, fields packed back to back.
class BitWriter {
 public:
  /// Appends the low `bits` bits of `value`. Precondition: 0 < bits <= 64 and
  /// value < 2^bits.
  void Write(uint64_t value, int bits);

  /// Appends an LEB128-style varint (7 bits per byte), byte-aligned first.
  void WriteVarint(uint64_t value);

  /// Appends a raw byte blob verbatim, byte-aligned first. Used to embed an
  /// already-encoded payload (e.g. a ProvenanceStore blob inside a service
  /// snapshot) without re-encoding it bit by bit.
  void WriteBytes(std::span<const uint8_t> bytes);

  /// Reserves room for `bytes` bytes in total, so a writer whose final size
  /// is known up front fills one buffer instead of growing it.
  void Reserve(size_t bytes) { bytes_.reserve(bytes); }

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Total bits written so far.
  size_t bit_count() const {
    return bytes_.size() * 8 + static_cast<size_t>(pending_);
  }

  /// Finalizes (pads to byte) and returns the buffer.
  std::vector<uint8_t> Finish();

 private:
  std::vector<uint8_t> bytes_;  ///< whole bytes written out
  uint64_t window_ = 0;  ///< the next bits, left-aligned; the rest are zero
  int pending_ = 0;      ///< bits held in window_, 0..63
};

/// Reads back fields written by BitWriter in the same order.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes);
  explicit BitReader(const std::vector<uint8_t>& bytes);

  /// Reads a `bits`-wide field into *value. Fails if the stream is exhausted.
  Status Read(int bits, uint64_t* value);

  /// Reads a varint written by WriteVarint (aligns to byte first).
  Status ReadVarint(uint64_t* value);

  /// Reads `count` raw bytes written by WriteBytes (aligns to byte first).
  /// *out is a zero-copy view into the underlying buffer, valid only while
  /// that buffer lives. Fails without advancing if fewer bytes remain.
  Status ReadBytes(size_t count, std::span<const uint8_t>* out);

  /// Skips forward to the next byte boundary.
  void AlignToByte();

  size_t bit_position() const { return bit_pos_; }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t bit_pos_ = 0;
};

/// Number of bits needed to index `n` distinct values (>=1 even for n<=1), in
/// other words ceil(log2(max(n,2))).
int BitsForCount(uint64_t n);

}  // namespace skl

#endif  // SKL_COMMON_BIT_CODEC_H_
