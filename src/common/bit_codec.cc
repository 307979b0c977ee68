#include "src/common/bit_codec.h"

#include <bit>

#include "src/common/check.h"
#include "src/common/varint.h"

namespace skl {

void BitWriter::Write(uint64_t value, int bits) {
  SKL_DCHECK(bits > 0 && bits <= 64);
  SKL_DCHECK(bits == 64 || value < (uint64_t{1} << bits));
  for (int i = bits - 1; i >= 0; --i) {
    size_t byte = bit_count_ >> 3;
    if (byte >= bytes_.size()) bytes_.push_back(0);
    uint8_t bit = static_cast<uint8_t>((value >> i) & 1);
    bytes_[byte] = static_cast<uint8_t>(bytes_[byte] |
                                        (bit << (7 - (bit_count_ & 7))));
    ++bit_count_;
  }
}

void BitWriter::WriteVarint(uint64_t value) {
  AlignToByte();  // now bytes_ holds exactly bit_count_ / 8 bytes
  AppendVarint(value, &bytes_);
  bit_count_ = bytes_.size() * 8;
}

void BitWriter::WriteBytes(std::span<const uint8_t> bytes) {
  AlignToByte();
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  bit_count_ += bytes.size() * 8;
}

void BitWriter::AlignToByte() {
  while (bit_count_ & 7) Write(0, 1);
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
  uint64_t out = 0;
  for (int i = 0; i < bits; ++i) {
    uint8_t byte = data_[bit_pos_ >> 3];
    uint8_t bit = (byte >> (7 - (bit_pos_ & 7))) & 1;
    out = (out << 1) | bit;
    ++bit_pos_;
  }
  *value = out;
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
