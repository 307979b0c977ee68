#include "src/common/bit_codec.h"

#include <bit>
#include <cstring>

#include "src/common/check.h"
#include "src/common/varint.h"

namespace skl {

namespace {

/// Appends the first `n` (<= 8) bytes of `window`, most significant first.
void AppendHighBytes(uint64_t window, size_t n, std::vector<uint8_t>* out) {
  if constexpr (std::endian::native == std::endian::little) {
    window = __builtin_bswap64(window);
  }
  const auto* bytes = reinterpret_cast<const uint8_t*>(&window);
  out->insert(out->end(), bytes, bytes + n);
}

/// Up to 8 bytes from `data` as a big-endian word, zero-filled past `size`.
uint64_t LoadHighBytes(const uint8_t* data, size_t size) {
  uint64_t window = 0;
  if (size >= 8) {
    std::memcpy(&window, data, 8);
    if constexpr (std::endian::native == std::endian::little) {
      window = __builtin_bswap64(window);
    }
    return window;
  }
  for (size_t i = 0; i < size; ++i) {
    window |= uint64_t{data[i]} << (56 - 8 * i);
  }
  return window;
}

}  // namespace

void BitWriter::Write(uint64_t value, int bits) {
  SKL_DCHECK(bits > 0 && bits <= 64);
  SKL_DCHECK(bits == 64 || value < (uint64_t{1} << bits));
  const uint64_t field = value << (64 - bits);  // left-aligned
  window_ |= field >> pending_;
  const int filled = pending_ + bits;
  if (filled < 64) {
    pending_ = filled;
    return;
  }
  AppendHighBytes(window_, 8, &bytes_);
  // What did not fit: the field's last `filled - 64` bits.
  pending_ = filled - 64;
  window_ = pending_ == 0 ? 0 : field << (bits - pending_);
}

void BitWriter::WriteVarint(uint64_t value) {
  AlignToByte();
  AppendVarint(value, &bytes_);
}

void BitWriter::WriteBytes(std::span<const uint8_t> bytes) {
  AlignToByte();
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void BitWriter::AlignToByte() {
  // The window's bits past pending_ are zero: flush it, zero-padded.
  AppendHighBytes(window_, static_cast<size_t>(pending_ + 7) / 8, &bytes_);
  window_ = 0;
  pending_ = 0;
}

std::vector<uint8_t> BitWriter::Finish() {
  AlignToByte();
  return std::move(bytes_);
}

BitReader::BitReader(const uint8_t* data, size_t size_bytes)
    : data_(data), size_bits_(size_bytes * 8) {}

BitReader::BitReader(const std::vector<uint8_t>& bytes)
    : BitReader(bytes.data(), bytes.size()) {}

Status BitReader::Read(int bits, uint64_t* value) {
  SKL_DCHECK(bits > 0 && bits <= 64);
  if (bit_pos_ + static_cast<size_t>(bits) > size_bits_) {
    return Status::ParseError("bit stream exhausted");
  }
  // A 64-bit window from the field's first byte holds at least 57 of its
  // bits; a field that starts late in its byte and is wider takes the rest
  // from the ninth byte.
  const size_t byte = bit_pos_ >> 3;
  const int skip = static_cast<int>(bit_pos_ & 7);
  uint64_t window = LoadHighBytes(data_ + byte, (size_bits_ >> 3) - byte)
                    << skip;
  if (skip + bits > 64) window |= data_[byte + 8] >> (8 - skip);
  *value = window >> (64 - bits);
  bit_pos_ += static_cast<size_t>(bits);
  return Status::OK();
}

Status BitReader::ReadVarint(uint64_t* value) {
  AlignToByte();
  size_t pos = bit_pos_ >> 3;
  switch (DecodeVarint({data_, size_bits_ >> 3}, &pos, value)) {
    case VarintError::kNone:
      bit_pos_ = pos << 3;
      return Status::OK();
    case VarintError::kTruncated:
      return Status::ParseError("bit stream exhausted");
    case VarintError::kTooLong:
      break;
  }
  return Status::ParseError("varint too long");
}

Status BitReader::ReadBytes(size_t count, std::span<const uint8_t>* out) {
  const size_t aligned = (bit_pos_ + 7) & ~size_t{7};
  if (count > (size_bits_ - aligned) / 8) {
    return Status::ParseError("bit stream exhausted");
  }
  bit_pos_ = aligned;
  *out = std::span<const uint8_t>(data_ + (bit_pos_ >> 3), count);
  bit_pos_ += count * 8;
  return Status::OK();
}

void BitReader::AlignToByte() {
  bit_pos_ = (bit_pos_ + 7) & ~size_t{7};
}

int BitsForCount(uint64_t n) {
  if (n <= 2) return 1;
  return 64 - std::countl_zero(n - 1);
}

}  // namespace skl
