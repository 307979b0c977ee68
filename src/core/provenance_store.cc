#include "src/core/provenance_store.h"

#include <algorithm>

#include "src/common/bit_codec.h"
#include "src/common/check.h"
#include "src/common/varint.h"
#include "src/core/label_codec.h"

namespace skl {

namespace {
constexpr uint32_t kMagic = 0x534b4c50;  // "SKLP"
// Blob format version; Deserialize accepts only this one.
constexpr uint32_t kVersion = 2;
constexpr uint64_t kMaxSchemeTagBytes = 256;
}  // namespace

ProvenanceStore::ProvenanceStore(
    std::span<const uint32_t> q1, std::span<const uint32_t> q2,
    std::span<const uint32_t> q3, std::span<const uint32_t> origin,
    std::span<const uint32_t> item_writers,
    std::span<const uint32_t> reader_offsets,
    std::span<const uint32_t> readers, std::string scheme_tag,
    std::shared_ptr<const void> backing)
    : q1_(q1),
      q2_(q2),
      q3_(q3),
      origin_(origin),
      item_writers_(item_writers),
      reader_offsets_(reader_offsets),
      readers_(readers),
      backing_(std::move(backing)),
      scheme_tag_(std::move(scheme_tag)) {}

ProvenanceStore ProvenanceStore::Share(std::vector<uint32_t> arena, size_t n,
                                       size_t items, std::string scheme_tag) {
  const size_t readers_total = arena.size() - (4 * n + 2 * items + 1);
  auto shared = std::make_shared<const std::vector<uint32_t>>(std::move(arena));
  const uint32_t* base = shared->data();
  return ProvenanceStore(
      {base, n}, {base + n, n}, {base + 2 * n, n}, {base + 3 * n, n},
      {base + 4 * n, items}, {base + 4 * n + items, items + 1},
      {base + 4 * n + 2 * items + 1, readers_total}, std::move(scheme_tag),
      std::move(shared));
}

ProvenanceStore ProvenanceStore::Capture(const RunLabeling& labeling,
                                         const DataCatalog* catalog,
                                         std::string_view scheme_tag) {
  const std::vector<RunLabel>& labels = labeling.labels();
  const size_t n = labels.size();
  const size_t items = catalog != nullptr ? catalog->size() : 0;
  size_t readers_total = 0;
  for (DataItemId x = 0; x < items; ++x) {
    readers_total += catalog->InputsOf(x).size();
  }
  std::vector<uint32_t> arena(4 * n + 2 * items + 1 + readers_total);
  uint32_t* q1 = arena.data();
  uint32_t* q2 = q1 + n;
  uint32_t* q3 = q2 + n;
  uint32_t* origin = q3 + n;
  for (size_t v = 0; v < n; ++v) {
    q1[v] = labels[v].q1;
    q2[v] = labels[v].q2;
    q3[v] = labels[v].q3;
    origin[v] = labels[v].origin;
  }
  uint32_t* writers = origin + n;
  uint32_t* offsets = writers + items;
  uint32_t* readers = offsets + items + 1;
  uint32_t off = 0;
  offsets[0] = 0;
  for (DataItemId x = 0; x < items; ++x) {
    writers[x] = catalog->OutputOf(x);
    for (VertexId r : catalog->InputsOf(x)) readers[off++] = r;
    offsets[x + 1] = off;
  }
  return Share(std::move(arena), n, items, std::string(scheme_tag));
}

Result<ProvenanceStore> ProvenanceStore::FromColumns(
    std::span<const uint32_t> q1, std::span<const uint32_t> q2,
    std::span<const uint32_t> q3, std::span<const uint32_t> origin,
    std::span<const uint32_t> item_writers,
    std::span<const uint32_t> reader_offsets,
    std::span<const uint32_t> readers, std::string scheme_tag,
    std::shared_ptr<const void> backing) {
  const size_t n = q1.size();
  const size_t items = item_writers.size();
  if (q2.size() != n || q3.size() != n || origin.size() != n ||
      reader_offsets.size() != items + 1) {
    return Status::ParseError("column lengths disagree");
  }
  for (uint32_t w : item_writers) {
    if (w >= n) return Status::ParseError("item writer out of range");
  }
  if (reader_offsets[0] != 0 || reader_offsets[items] != readers.size()) {
    return Status::ParseError("corrupt reader offsets");
  }
  for (size_t x = 0; x < items; ++x) {
    if (reader_offsets[x + 1] < reader_offsets[x]) {
      return Status::ParseError("corrupt reader offsets");
    }
  }
  for (uint32_t r : readers) {
    if (r >= n) return Status::ParseError("item reader out of range");
  }
  return ProvenanceStore(q1, q2, q3, origin, item_writers, reader_offsets,
                         readers, std::move(scheme_tag), std::move(backing));
}

std::vector<uint8_t> ProvenanceStore::Serialize() const {
  // Labels block: reuse the label codec widths.
  const uint32_t n = static_cast<uint32_t>(q1_.size());
  uint32_t max_q = 1, max_origin = 0;
  for (uint32_t q : q1_) max_q = std::max(max_q, q);
  for (uint32_t q : q2_) max_q = std::max(max_q, q);
  for (uint32_t q : q3_) max_q = std::max(max_q, q);
  for (uint32_t o : origin_) max_origin = std::max(max_origin, o);
  const int q_bits = BitsForCount(max_q + 1);
  const int o_bits = BitsForCount(max_origin + 2);
  // The exact blob size, so the writer fills one buffer.
  size_t size = 4 + VarintSize(kVersion) + VarintSize(scheme_tag_.size()) +
                scheme_tag_.size() + VarintSize(n) + VarintSize(q_bits) +
                VarintSize(o_bits) +
                (uint64_t{n} * (3 * q_bits + o_bits) + 7) / 8 +
                VarintSize(item_writers_.size());
  for (size_t x = 0; x < item_writers_.size(); ++x) {
    std::span<const VertexId> rs = item_readers(static_cast<DataItemId>(x));
    size += VarintSize(item_writers_[x]) + VarintSize(rs.size());
    for (VertexId r : rs) size += VarintSize(r);
  }

  BitWriter writer;
  writer.Reserve(size);
  writer.Write(kMagic, 32);
  writer.WriteVarint(kVersion);
  writer.WriteVarint(scheme_tag_.size());
  writer.WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(scheme_tag_.data()),
      scheme_tag_.size()));
  writer.WriteVarint(n);
  writer.WriteVarint(static_cast<uint64_t>(q_bits));
  writer.WriteVarint(static_cast<uint64_t>(o_bits));
  for (uint32_t v = 0; v < n; ++v) {
    writer.Write(q1_[v], q_bits);
    writer.Write(q2_[v], q_bits);
    writer.Write(q3_[v], q_bits);
    writer.Write(origin_[v], o_bits);
  }
  // Catalog block.
  writer.WriteVarint(item_writers_.size());
  for (size_t x = 0; x < item_writers_.size(); ++x) {
    writer.WriteVarint(item_writers_[x]);
    std::span<const VertexId> rs = item_readers(static_cast<DataItemId>(x));
    writer.WriteVarint(rs.size());
    for (VertexId r : rs) writer.WriteVarint(r);
  }
  std::vector<uint8_t> blob = writer.Finish();
  SKL_DCHECK(blob.size() == size);
  return blob;
}

Result<ProvenanceStore> ProvenanceStore::Deserialize(
    const std::vector<uint8_t>& bytes) {
  return Deserialize(std::span<const uint8_t>(bytes));
}

Result<ProvenanceStore> ProvenanceStore::Deserialize(
    std::span<const uint8_t> bytes) {
  BitReader reader(bytes.data(), bytes.size());
  uint64_t magic, version, n, q_bits, o_bits;
  SKL_RETURN_NOT_OK(reader.Read(32, &magic));
  if (magic != kMagic) return Status::ParseError("not a provenance store");
  SKL_RETURN_NOT_OK(reader.ReadVarint(&version));
  if (version != kVersion) {
    return Status::ParseError(
        "unsupported provenance store version " + std::to_string(version) +
        "; this build reads only version " + std::to_string(kVersion) +
        ", re-export the run with a matching build");
  }
  // An empty tag means "unknown" and is accepted everywhere.
  uint64_t tag_len;
  SKL_RETURN_NOT_OK(reader.ReadVarint(&tag_len));
  if (tag_len > kMaxSchemeTagBytes) {
    return Status::ParseError("corrupt store header (scheme tag too long)");
  }
  std::span<const uint8_t> tag;
  SKL_RETURN_NOT_OK(reader.ReadBytes(tag_len, &tag));
  SKL_RETURN_NOT_OK(reader.ReadVarint(&n));
  SKL_RETURN_NOT_OK(reader.ReadVarint(&q_bits));
  SKL_RETURN_NOT_OK(reader.ReadVarint(&o_bits));
  if (q_bits == 0 || q_bits > 32 || o_bits == 0 || o_bits > 32) {
    return Status::ParseError("corrupt store header");
  }
  // A valid blob carries n * (3*q_bits + o_bits) label bits, so n cannot
  // exceed what the byte stream could possibly hold.
  if (n > bytes.size() * 8 / (3 * q_bits + o_bits)) {
    return Status::ParseError("corrupt store header");
  }
  // The arena in its final layout: labels first, then the catalog, whose
  // size is known only once the labels are parsed.
  std::vector<uint32_t> arena(4 * n, 0);
  uint32_t* col_q1 = arena.data();
  uint32_t* col_q2 = col_q1 + n;
  uint32_t* col_q3 = col_q2 + n;
  uint32_t* col_origin = col_q3 + n;
  for (uint64_t v = 0; v < n; ++v) {
    uint64_t q1, q2, q3, origin;
    SKL_RETURN_NOT_OK(reader.Read(static_cast<int>(q_bits), &q1));
    SKL_RETURN_NOT_OK(reader.Read(static_cast<int>(q_bits), &q2));
    SKL_RETURN_NOT_OK(reader.Read(static_cast<int>(q_bits), &q3));
    SKL_RETURN_NOT_OK(reader.Read(static_cast<int>(o_bits), &origin));
    col_q1[v] = static_cast<uint32_t>(q1);
    col_q2[v] = static_cast<uint32_t>(q2);
    col_q3[v] = static_cast<uint32_t>(q3);
    col_origin[v] = static_cast<uint32_t>(origin);
  }
  uint64_t items;
  SKL_RETURN_NOT_OK(reader.ReadVarint(&items));
  if (items > bytes.size()) {
    return Status::ParseError("corrupt store header");
  }
  const size_t writers_at = 4 * n;
  const size_t offsets_at = writers_at + items;
  const size_t readers_at = offsets_at + items + 1;
  arena.resize(readers_at, 0);
  for (uint64_t x = 0; x < items; ++x) {
    uint64_t writer_v, n_readers;
    SKL_RETURN_NOT_OK(reader.ReadVarint(&writer_v));
    if (writer_v >= n) return Status::ParseError("item writer out of range");
    arena[writers_at + x] = static_cast<uint32_t>(writer_v);
    SKL_RETURN_NOT_OK(reader.ReadVarint(&n_readers));
    if (n_readers > n) return Status::ParseError("reader count out of range");
    for (uint64_t r = 0; r < n_readers; ++r) {
      uint64_t reader_v;
      SKL_RETURN_NOT_OK(reader.ReadVarint(&reader_v));
      if (reader_v >= n) {
        return Status::ParseError("item reader out of range");
      }
      arena.push_back(static_cast<uint32_t>(reader_v));
    }
    arena[offsets_at + x + 1] =
        static_cast<uint32_t>(arena.size() - readers_at);
  }
  return Share(std::move(arena), n, items, std::string(tag.begin(), tag.end()));
}

}  // namespace skl
