// Tests for the common substrate: Status/Result, Rng, DynamicBitset and the
// bit codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bit_codec.h"
#include "src/common/bitset.h"
#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/varint.h"

namespace skl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidRun("boom");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidRun);
  EXPECT_EQ(st.message(), "boom");
  EXPECT_EQ(st.ToString(), "InvalidRun: boom");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidSpecification),
               "InvalidSpecification");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidRun), "InvalidRun");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCapacityExceeded),
               "CapacityExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Status UseResult(int x, int* out) {
  SKL_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  *out = doubled;
  return Status::OK();
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseResult(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseResult(-5, &out).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(42);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextCountMeanRoughlyMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextCount(3.0);
  double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.25);
  EXPECT_EQ(rng.NextCount(1.0), 1u);
  EXPECT_EQ(rng.NextCount(0.5), 1u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(BitsetTest, SetTestClear) {
  DynamicBitset bs(130);
  EXPECT_EQ(bs.size(), 130u);
  EXPECT_TRUE(bs.None());
  bs.Set(0);
  bs.Set(64);
  bs.Set(129);
  EXPECT_TRUE(bs.Test(0));
  EXPECT_TRUE(bs.Test(64));
  EXPECT_TRUE(bs.Test(129));
  EXPECT_FALSE(bs.Test(1));
  EXPECT_EQ(bs.Count(), 3u);
  bs.Clear(64);
  EXPECT_FALSE(bs.Test(64));
  EXPECT_EQ(bs.Count(), 2u);
}

TEST(BitsetTest, SetOperations) {
  DynamicBitset a(100), b(100);
  a.Set(3);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.IsSubsetOf(b));

  DynamicBitset u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.Count(), 3u);
  EXPECT_TRUE(a.IsSubsetOf(u));
  EXPECT_TRUE(b.IsSubsetOf(u));

  DynamicBitset i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(50));

  DynamicBitset c(100);
  c.Set(0);
  EXPECT_FALSE(a.Intersects(c));
}

TEST(BitsetTest, FindFirstNext) {
  DynamicBitset bs(200);
  EXPECT_EQ(bs.FindFirst(), 200u);
  bs.Set(5);
  bs.Set(63);
  bs.Set(64);
  bs.Set(199);
  EXPECT_EQ(bs.FindFirst(), 5u);
  EXPECT_EQ(bs.FindNext(5), 63u);
  EXPECT_EQ(bs.FindNext(63), 64u);
  EXPECT_EQ(bs.FindNext(64), 199u);
  EXPECT_EQ(bs.FindNext(199), 200u);
}

TEST(BitsetTest, Equality) {
  DynamicBitset a(10), b(10);
  EXPECT_TRUE(a == b);
  a.Set(4);
  EXPECT_FALSE(a == b);
  b.Set(4);
  EXPECT_TRUE(a == b);
}

TEST(BitsetTest, GrowToPreservesBitsAndClearsNewOnes) {
  DynamicBitset bs(70);
  bs.Set(0);
  bs.Set(63);
  bs.Set(69);
  bs.GrowTo(200);
  EXPECT_EQ(bs.size(), 200u);
  EXPECT_TRUE(bs.Test(0));
  EXPECT_TRUE(bs.Test(63));
  EXPECT_TRUE(bs.Test(69));
  for (size_t i = 70; i < 200; ++i) EXPECT_FALSE(bs.Test(i)) << i;
  bs.GrowTo(200);  // growing to the current size is a no-op
  EXPECT_EQ(bs.size(), 200u);
}

// EraseBit against a reference model, across word-boundary positions: the
// word-level shift-with-carry must agree with deleting one element of a
// bool vector for every erase position.
TEST(BitsetTest, EraseBitMatchesReferenceModel) {
  constexpr size_t kBits = 140;
  for (size_t pos = 0; pos < kBits; ++pos) {
    DynamicBitset bs(kBits);
    std::vector<bool> model(kBits);
    Rng rng(0xB17 + pos);
    for (size_t i = 0; i < kBits; ++i) {
      if (rng.NextBelow(2) == 1) {
        bs.Set(i);
        model[i] = true;
      }
    }
    bs.EraseBit(pos);
    model.erase(model.begin() + static_cast<ptrdiff_t>(pos));
    ASSERT_EQ(bs.size(), kBits - 1);
    for (size_t i = 0; i + 1 < kBits; ++i) {
      ASSERT_EQ(bs.Test(i), model[i]) << "pos=" << pos << " i=" << i;
    }
  }
}

TEST(BitsetTest, EraseBitDownToEmpty) {
  DynamicBitset bs(65);
  bs.Set(64);
  bs.EraseBit(0);  // the carried top bit shifts down a word
  EXPECT_EQ(bs.size(), 64u);
  EXPECT_TRUE(bs.Test(63));
  while (bs.size() > 0) bs.EraseBit(bs.size() - 1);
  EXPECT_EQ(bs.size(), 0u);
  EXPECT_EQ(bs.MemoryBytes(), 0u);
}

TEST(BitCodecTest, RoundTripFixedWidths) {
  BitWriter w;
  w.Write(0b101, 3);
  w.Write(0xdeadbeef, 32);
  w.Write(1, 1);
  w.Write(0x3ff, 10);
  auto bytes = w.Finish();
  BitReader r(bytes);
  uint64_t v;
  ASSERT_TRUE(r.Read(3, &v).ok());
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(r.Read(32, &v).ok());
  EXPECT_EQ(v, 0xdeadbeefu);
  ASSERT_TRUE(r.Read(1, &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(r.Read(10, &v).ok());
  EXPECT_EQ(v, 0x3ffu);
}

TEST(BitCodecTest, RoundTripVarint) {
  BitWriter w;
  w.Write(1, 3);  // misalign on purpose
  w.WriteVarint(0);
  w.WriteVarint(127);
  w.WriteVarint(128);
  w.WriteVarint(UINT64_MAX);
  auto bytes = w.Finish();
  BitReader r(bytes);
  uint64_t v;
  ASSERT_TRUE(r.Read(3, &v).ok());
  ASSERT_TRUE(r.ReadVarint(&v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(r.ReadVarint(&v).ok());
  EXPECT_EQ(v, 127u);
  ASSERT_TRUE(r.ReadVarint(&v).ok());
  EXPECT_EQ(v, 128u);
  ASSERT_TRUE(r.ReadVarint(&v).ok());
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(VarintTest, DecodesWhatItAppendsAndRejectsBadInput) {
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384, uint64_t{1} << 63,
                             UINT64_MAX};
  std::vector<uint8_t> bytes;
  for (uint64_t value : values) {
    const size_t before = bytes.size();
    AppendVarint(value, &bytes);
    EXPECT_EQ(VarintSize(value), bytes.size() - before) << value;
  }
  size_t pos = 0;
  for (uint64_t value : values) {
    uint64_t got = 0;
    ASSERT_EQ(DecodeVarint(bytes, &pos, &got), VarintError::kNone);
    EXPECT_EQ(got, value);
  }
  EXPECT_EQ(pos, bytes.size());
  // After a split inside the last varint, the rest is truncated and nothing
  // moves.
  uint64_t got = 7;
  pos = bytes.size() - 1;
  EXPECT_EQ(DecodeVarint({bytes.data(), bytes.size() - 1}, &pos, &got),
            VarintError::kTruncated);
  EXPECT_EQ(pos, bytes.size() - 1);
  EXPECT_EQ(got, 7u);
  // Eleven continuation bytes cannot be a 64-bit value.
  const std::vector<uint8_t> too_long(11, 0x80);
  pos = 0;
  EXPECT_EQ(DecodeVarint(too_long, &pos, &got), VarintError::kTooLong);
  EXPECT_EQ(pos, 0u);
  // BitWriter and BitReader keep the same bytes after unaligned fields.
  BitWriter w;
  w.Write(1, 3);
  for (uint64_t value : values) w.WriteVarint(value);
  std::vector<uint8_t> expected;
  expected.push_back(0x20);  // the 3-bit field, padded
  for (uint64_t value : values) AppendVarint(value, &expected);
  const std::vector<uint8_t> written = w.Finish();
  EXPECT_EQ(written, expected);
  BitReader r(written);
  uint64_t head = 0;
  ASSERT_TRUE(r.Read(3, &head).ok());
  for (uint64_t value : values) {
    ASSERT_TRUE(r.ReadVarint(&got).ok());
    EXPECT_EQ(got, value);
  }
  EXPECT_FALSE(r.ReadVarint(&got).ok());
}

TEST(BitCodecTest, ReadPastEndFails) {
  BitWriter w;
  w.Write(1, 4);
  auto bytes = w.Finish();  // padded to 8 bits
  BitReader r(bytes);
  uint64_t v;
  ASSERT_TRUE(r.Read(8, &v).ok());
  EXPECT_FALSE(r.Read(1, &v).ok());
}

TEST(Crc32Test, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, StreamingMatchesOneShot) {
  std::vector<uint8_t> bytes(300);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const uint32_t one_shot = Crc32(bytes);
  uint32_t streamed = 0;
  std::span<const uint8_t> view(bytes);
  streamed = Crc32Update(streamed, view.subspan(0, 100));
  streamed = Crc32Update(streamed, view.subspan(100, 1));
  streamed = Crc32Update(streamed, view.subspan(101));
  EXPECT_EQ(streamed, one_shot);
  EXPECT_NE(Crc32(view.subspan(1)), one_shot);
}

/// Bit-at-a-time CRC-32 straight from the reflected polynomial: no tables
/// and no carry-less multiply, so it shares nothing with either kernel
/// under test. Element i is the CRC-32 of bytes.first(i), for i = 0..size.
std::vector<uint32_t> ReferencePrefixCrc32s(std::span<const uint8_t> bytes) {
  std::vector<uint32_t> out{0};
  uint32_t c = 0xFFFFFFFFu;
  for (uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    out.push_back(c ^ 0xFFFFFFFFu);
  }
  return out;
}

uint32_t ReferenceCrc32(std::span<const uint8_t> bytes) {
  return ReferencePrefixCrc32s(bytes).back();
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every start offset 0-7 puts the eight-byte steps at every alignment,
  // and every length 0-1024 gives the byte tail every size it can have.
  const std::vector<uint8_t> bytes = RandomBytes(1024 + 8, 0xC3C3);
  const std::span<const uint8_t> view(bytes);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const std::span<const uint8_t> piece = view.subspan(offset, length);
      ASSERT_EQ(Crc32(piece), ReferenceCrc32(piece))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32Test, StreamingMatchesReferenceAtEverySplit) {
  const std::vector<uint8_t> bytes = RandomBytes(1024, 0x5EED);
  const std::span<const uint8_t> view(bytes);
  const uint32_t expected = ReferenceCrc32(view);
  for (size_t split = 0; split <= view.size(); ++split) {
    const uint32_t head = Crc32Update(0, view.first(split));
    ASSERT_EQ(Crc32Update(head, view.subspan(split)), expected)
        << "split at " << split;
  }
}

/// One CRC kernel under test: its name and its streaming entry point.
struct Crc32Kernel {
  const char* name;
  uint32_t (*update)(uint32_t, std::span<const uint8_t>);
  friend void PrintTo(const Crc32Kernel& kernel, std::ostream* os) {
    *os << kernel.name;
  }
};

/// The table kernel always; the carry-less-multiply kernel only on a host
/// that has PCLMULQDQ (and the test says so when it is skipped).
class Crc32KernelTest : public ::testing::TestWithParam<Crc32Kernel> {
 protected:
  void SetUp() override {
    if (GetParam().update == crc32_internal::ClmulCrc32Update &&
        !crc32_internal::HostHasClmul()) {
      GTEST_SKIP() << "host CPU lacks PCLMULQDQ; the carry-less-multiply "
                      "kernel cannot run here";
    }
  }
};

TEST_P(Crc32KernelTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-4096 at start offsets 0-15 cover every mix of 64-byte folds,
  // 16-byte folds and a 0-15 byte tail, at every load alignment.
  const auto update = GetParam().update;
  const std::vector<uint8_t> bytes = RandomBytes(4096 + 16, 0xC1C1);
  const std::span<const uint8_t> view(bytes);
  for (size_t offset = 0; offset < 16; ++offset) {
    const std::vector<uint32_t> expected =
        ReferencePrefixCrc32s(view.subspan(offset, 4096));
    for (size_t length = 0; length <= 4096; ++length) {
      ASSERT_EQ(update(0, view.subspan(offset, length)), expected[length])
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST_P(Crc32KernelTest, StreamingMatchesReferenceAtEverySplit) {
  // The second piece starts from a non-zero seed, so the fold's first lane
  // must take the running register, not a fresh one.
  const auto update = GetParam().update;
  const std::vector<uint8_t> bytes = RandomBytes(4096, 0x5EED5);
  const std::span<const uint8_t> view(bytes);
  const uint32_t expected = ReferenceCrc32(view);
  for (size_t split = 0; split <= view.size(); ++split) {
    const uint32_t head = update(0, view.first(split));
    ASSERT_EQ(update(head, view.subspan(split)), expected)
        << "split at " << split;
  }
}

TEST_P(Crc32KernelTest, MatchesZlibOnAMebibyte) {
  // Pinned to zlib.crc32 of the same bytes, so a kernel that agrees with
  // the reference only by sharing its mistake still fails.
  const auto update = GetParam().update;
  std::vector<uint8_t> bytes(size_t{1} << 20);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131 + 7) % 251);
  }
  const std::span<const uint8_t> view(bytes);
  EXPECT_EQ(update(0, view), 0x5dcba3c7u);
  EXPECT_EQ(update(0, view.subspan(3, view.size() - 8)), 0xbf9d254bu);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32KernelTest,
    ::testing::Values(
        Crc32Kernel{"Table", crc32_internal::TableCrc32Update},
        Crc32Kernel{"Clmul", crc32_internal::ClmulCrc32Update}),
    [](const ::testing::TestParamInfo<Crc32Kernel>& info) {
      return std::string(info.param.name);
    });

TEST(BitCodecTest, RoundTripRawBytes) {
  std::vector<uint8_t> blob = {0x00, 0xFF, 0x42, 0x13};
  BitWriter w;
  w.Write(1, 3);  // misalign on purpose; WriteBytes must realign
  w.WriteBytes(blob);
  w.WriteVarint(99);
  auto bytes = w.Finish();
  BitReader r(bytes);
  uint64_t v;
  ASSERT_TRUE(r.Read(3, &v).ok());
  std::span<const uint8_t> out;
  ASSERT_TRUE(r.ReadBytes(blob.size(), &out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), blob.begin(), blob.end()));
  ASSERT_TRUE(r.ReadVarint(&v).ok());
  EXPECT_EQ(v, 99u);
}

TEST(BitCodecTest, ReadBytesPastEndFailsWithoutAdvancing) {
  BitWriter w;
  w.WriteBytes(std::vector<uint8_t>{1, 2});
  auto bytes = w.Finish();
  BitReader r(bytes);
  std::span<const uint8_t> out;
  EXPECT_FALSE(r.ReadBytes(3, &out).ok());
  ASSERT_TRUE(r.ReadBytes(2, &out).ok());  // the failed read consumed nothing
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
}

TEST(BitCodecTest, ReadBytesZeroLengthAtEndSucceeds) {
  BitReader r(nullptr, 0);
  std::span<const uint8_t> out;
  EXPECT_TRUE(r.ReadBytes(0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(BitCodecTest, BitsForCount) {
  EXPECT_EQ(BitsForCount(0), 1);
  EXPECT_EQ(BitsForCount(1), 1);
  EXPECT_EQ(BitsForCount(2), 1);
  EXPECT_EQ(BitsForCount(3), 2);
  EXPECT_EQ(BitsForCount(4), 2);
  EXPECT_EQ(BitsForCount(5), 3);
  EXPECT_EQ(BitsForCount(1024), 10);
  EXPECT_EQ(BitsForCount(1025), 11);
}

TEST(BitCodecTest, ExhaustiveWidthRoundTrip) {
  for (int bits = 1; bits <= 64; ++bits) {
    BitWriter w;
    uint64_t max_val =
        bits == 64 ? UINT64_MAX : (uint64_t{1} << bits) - 1;
    w.Write(max_val, bits);
    w.Write(0, bits);
    w.Write(max_val & 0x5555555555555555ULL, bits);
    auto bytes = w.Finish();
    BitReader r(bytes);
    uint64_t v;
    ASSERT_TRUE(r.Read(bits, &v).ok());
    EXPECT_EQ(v, max_val) << bits;
    ASSERT_TRUE(r.Read(bits, &v).ok());
    EXPECT_EQ(v, 0u) << bits;
    ASSERT_TRUE(r.Read(bits, &v).ok());
    EXPECT_EQ(v, max_val & 0x5555555555555555ULL) << bits;
  }
}

/// Bit-at-a-time model of BitWriter: MSB-first within each field, fields
/// back to back, varints and raw bytes byte-aligned first.
class ReferenceBitWriter {
 public:
  void Write(uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) PutBit((value >> i) & 1);
  }
  void WriteVarint(uint64_t value) {
    std::vector<uint8_t> bytes;
    AppendVarint(value, &bytes);
    WriteBytes(bytes);
  }
  void WriteBytes(std::span<const uint8_t> bytes) {
    AlignToByte();
    for (uint8_t byte : bytes) Write(byte, 8);
  }
  void AlignToByte() {
    while (bit_count_ % 8 != 0) PutBit(0);
  }
  size_t bit_count() const { return bit_count_; }
  std::vector<uint8_t> Finish() {
    AlignToByte();
    return bytes_;
  }

 private:
  void PutBit(uint64_t bit) {
    if (bit_count_ % 8 == 0) bytes_.push_back(0);
    bytes_.back() |= static_cast<uint8_t>(bit << (7 - bit_count_ % 8));
    ++bit_count_;
  }
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

uint64_t RandomField(Rng& rng, int bits) {
  const uint64_t value = rng.Next();
  return bits == 64 ? value : value & ((uint64_t{1} << bits) - 1);
}

TEST(BitCodecTest, MatchesBitwiseReferenceAtEveryWidthAndOffset) {
  Rng rng(20261019);
  for (int bits = 1; bits <= 64; ++bits) {
    for (int offset = 0; offset < 8; ++offset) {
      SCOPED_TRACE("bits=" + std::to_string(bits) +
                   " offset=" + std::to_string(offset));
      BitWriter w;
      ReferenceBitWriter ref;
      // What was written, in order: a field (width > 0), a varint
      // (width 0), raw bytes (width -n) or an alignment (width -100).
      std::vector<std::pair<int, uint64_t>> script;
      auto field = [&](uint64_t value, int width) {
        w.Write(value, width);
        ref.Write(value, width);
        script.emplace_back(width, value);
      };
      if (offset > 0) field(RandomField(rng, offset), offset);
      field(RandomField(rng, bits), bits);
      const uint64_t max = bits == 64 ? UINT64_MAX
                                      : (uint64_t{1} << bits) - 1;
      field(max, bits);
      const uint64_t varint = RandomField(rng, 1 + bits % 64);
      w.WriteVarint(varint);
      ref.WriteVarint(varint);
      script.emplace_back(0, varint);
      field(0, bits);
      field(1, 1 + (bits + offset) % 7);
      std::vector<uint8_t> raw(static_cast<size_t>(offset % 3));
      for (uint8_t& byte : raw) byte = static_cast<uint8_t>(rng.Next());
      w.WriteBytes(raw);
      ref.WriteBytes(raw);
      script.emplace_back(-static_cast<int>(raw.size()) - 1, 0);
      field(RandomField(rng, bits), bits);
      w.AlignToByte();
      ref.AlignToByte();
      script.emplace_back(-100, 0);
      field(RandomField(rng, bits), bits);
      ASSERT_EQ(w.bit_count(), ref.bit_count());
      const std::vector<uint8_t> bytes = w.Finish();
      ASSERT_EQ(bytes, ref.Finish());

      BitReader r(bytes);
      for (const auto& [width, value] : script) {
        uint64_t got = 0;
        if (width > 0) {
          ASSERT_TRUE(r.Read(width, &got).ok());
          EXPECT_EQ(got, value);
        } else if (width == 0) {
          ASSERT_TRUE(r.ReadVarint(&got).ok());
          EXPECT_EQ(got, value);
        } else if (width == -100) {
          r.AlignToByte();
        } else {
          std::span<const uint8_t> out;
          ASSERT_TRUE(r.ReadBytes(static_cast<size_t>(-width - 1), &out).ok());
          EXPECT_TRUE(std::equal(out.begin(), out.end(), raw.begin(),
                                 raw.end()));
        }
      }
      EXPECT_EQ(r.bit_position(), bytes.size() * 8 - (8 - bits % 8) % 8);
    }
  }
}

TEST(BitCodecTest, TruncatedFieldFailsAtEveryWidthAndOffset) {
  Rng rng(7);
  for (int bits = 1; bits <= 64; ++bits) {
    for (int offset = 0; offset < 8; ++offset) {
      BitWriter w;
      if (offset > 0) w.Write(RandomField(rng, offset), offset);
      w.Write(RandomField(rng, bits), bits);
      const std::vector<uint8_t> bytes = w.Finish();
      // One byte short, held in an exact-size buffer so a sanitizer sees
      // any read past its end.
      const size_t kept = bytes.size() - 1;
      auto data = std::make_unique<uint8_t[]>(kept);
      std::copy(bytes.begin(), bytes.begin() + kept, data.get());
      BitReader r(data.get(), kept);
      // When the whole stream was one byte, the prefix is cut off too.
      const bool prefix_kept = static_cast<size_t>(offset) <= kept * 8;
      uint64_t got = 0;
      if (offset > 0 && prefix_kept) ASSERT_TRUE(r.Read(offset, &got).ok());
      const Status status = r.Read(prefix_kept ? bits : offset, &got);
      ASSERT_FALSE(status.ok()) << bits << " " << offset;
      EXPECT_EQ(status.message(), "bit stream exhausted");
      EXPECT_EQ(r.bit_position(),
                prefix_kept ? static_cast<size_t>(offset) : size_t{0});
    }
  }
}

}  // namespace
}  // namespace skl
