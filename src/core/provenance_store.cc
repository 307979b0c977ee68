#include "src/core/provenance_store.h"

#include <algorithm>
#include <bit>

#include "src/common/bit_codec.h"
#include "src/common/check.h"
#include "src/common/varint.h"

namespace skl {

namespace {
constexpr uint32_t kMagic = 0x534b4c50;  // "SKLP"
// Blob format version; Deserialize accepts only this one.
constexpr uint32_t kVersion = 2;
constexpr uint64_t kMaxSchemeTagBytes = 256;
}  // namespace

Result<LabelPacking> LabelPacking::Make(uint64_t q_bits, uint64_t o_bits) {
  if (q_bits == 0 || q_bits > 32 || o_bits == 0 || o_bits > 32 ||
      3 * q_bits + o_bits > 64) {
    return Status::CapacityExceeded(
        "a run label of 3 x " + std::to_string(q_bits) + " context bits + " +
        std::to_string(o_bits) +
        " origin bits does not fit one 64-bit label word");
  }
  return LabelPacking(static_cast<int>(q_bits), static_cast<int>(o_bits));
}

/// Columns a store owns: the label words, and the catalog laid out as
/// [writers | offsets | readers].
struct ProvenanceStore::Owned {
  std::vector<uint64_t> labels;
  std::vector<uint32_t> catalog;
};

Result<ProvenanceStore> ProvenanceStore::Bind(
    std::span<const uint64_t> labels, LabelPacking packing,
    std::span<const uint32_t> item_writers,
    std::span<const uint32_t> reader_offsets,
    std::span<const uint32_t> readers, std::string scheme_tag,
    std::shared_ptr<const void> backing, StatusCode code) {
  // The one catalog check, whichever way the columns were built: every
  // item writer and reader names a vertex, and the offsets start at 0,
  // never decrease and end at the reader count. Reductions, not early
  // exits, so each loop vectorizes.
  const size_t n = labels.size();
  const size_t items = item_writers.size();
  if (reader_offsets.size() != items + 1) {
    return Status(code, "column lengths disagree");
  }
  uint32_t highest_writer = 0;
  for (uint32_t w : item_writers) highest_writer = std::max(highest_writer, w);
  if (items > 0 && highest_writer >= n) {
    return Status(code, "item writer out of range");
  }
  uint32_t descents = 0;
  for (size_t x = 0; x < items; ++x) {
    descents |= static_cast<uint32_t>(reader_offsets[x + 1] <
                                      reader_offsets[x]);
  }
  if (reader_offsets[0] != 0 || reader_offsets[items] != readers.size() ||
      descents != 0) {
    return Status(code, "corrupt reader offsets");
  }
  uint32_t highest_reader = 0;
  for (uint32_t r : readers) highest_reader = std::max(highest_reader, r);
  if (!readers.empty() && highest_reader >= n) {
    return Status(code, "item reader out of range");
  }
  ProvenanceStore store;
  store.labels_ = labels;
  store.packing_ = packing;
  store.item_writers_ = item_writers;
  store.reader_offsets_ = reader_offsets;
  store.readers_ = readers;
  store.backing_ = std::move(backing);
  store.scheme_tag_ = std::move(scheme_tag);
  return store;
}

Result<ProvenanceStore> ProvenanceStore::Share(
    std::shared_ptr<const Owned> owned, size_t items, LabelPacking packing,
    std::string scheme_tag, StatusCode code) {
  const std::span<const uint32_t> catalog = owned->catalog;
  return Bind(owned->labels, packing, catalog.first(items),
              catalog.subspan(items, items + 1), catalog.subspan(2 * items + 1),
              std::move(scheme_tag), owned, code);
}

Result<ProvenanceStore> ProvenanceStore::Capture(
    std::span<const RunLabel> labels, const DataCatalog* catalog,
    std::string_view scheme_tag) {
  // The blob's widths (Lemma 4.7 at the run's actual label values):
  // BitsForCount(max q + 1) and BitsForCount(max origin + 2), which are the
  // bit widths of max q and of max (origin + 1). A maximum has the bit
  // width of the or of its inputs, so the scan is two ors per label.
  uint32_t q_or = 1;
  uint64_t origin_or = 1;
  for (const RunLabel& label : labels) {
    q_or |= label.q1 | label.q2 | label.q3;
    origin_or |= uint64_t{label.origin} + 1;
  }
  SKL_ASSIGN_OR_RETURN(LabelPacking packing,
                       LabelPacking::Make(std::bit_width(q_or),
                                          std::bit_width(origin_or)));
  auto owned = std::make_shared<Owned>();
  owned->labels.resize(labels.size());
  for (size_t v = 0; v < labels.size(); ++v) {
    owned->labels[v] = packing.Pack(labels[v]);
  }
  const size_t items = catalog != nullptr ? catalog->size() : 0;
  size_t readers_total = 0;
  for (DataItemId x = 0; x < items; ++x) {
    readers_total += catalog->InputsOf(x).size();
  }
  owned->catalog.resize(2 * items + 1 + readers_total);
  uint32_t* writers = owned->catalog.data();
  uint32_t* offsets = writers + items;
  uint32_t* readers = offsets + items + 1;
  uint32_t off = 0;
  offsets[0] = 0;
  for (DataItemId x = 0; x < items; ++x) {
    writers[x] = catalog->OutputOf(x);
    for (VertexId r : catalog->InputsOf(x)) readers[off++] = r;
    offsets[x + 1] = off;
  }
  return Share(std::move(owned), items, packing, std::string(scheme_tag),
               StatusCode::kInvalidArgument);
}

Result<ProvenanceStore> ProvenanceStore::FromColumns(
    std::span<const uint64_t> labels, LabelPacking packing,
    std::span<const uint32_t> item_writers,
    std::span<const uint32_t> reader_offsets,
    std::span<const uint32_t> readers, std::string scheme_tag,
    std::shared_ptr<const void> backing) {
  return Bind(labels, packing, item_writers, reader_offsets, readers,
              std::move(scheme_tag), std::move(backing),
              StatusCode::kParseError);
}

std::vector<uint8_t> ProvenanceStore::Serialize() const {
  const uint32_t n = num_vertices();
  const int q_bits = packing_.q_bits();
  const int o_bits = packing_.o_bits();
  const int label_bits = 3 * q_bits + o_bits;
  // The exact blob size, so the writer fills one buffer.
  size_t size = 4 + VarintSize(kVersion) + VarintSize(scheme_tag_.size()) +
                scheme_tag_.size() + VarintSize(n) + VarintSize(q_bits) +
                VarintSize(o_bits) +
                (uint64_t{n} * label_bits + 7) / 8 +
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
  // The blob holds q1, q2, q3, origin, each MSB-first: the word's fields in
  // reverse order, written as one field of label_bits bits.
  for (uint64_t word : labels_) {
    const RunLabel l = packing_.Unpack(word);
    writer.Write((((((uint64_t{l.q1} << q_bits) | l.q2) << q_bits) | l.q3)
                  << o_bits) |
                     l.origin,
                 label_bits);
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
  Result<LabelPacking> packing = LabelPacking::Make(q_bits, o_bits);
  if (!packing.ok()) {
    return Status::ParseError("corrupt store header: " +
                              packing.status().message());
  }
  const int label_bits = static_cast<int>(3 * q_bits + o_bits);
  // A valid blob carries n * label_bits label bits, so n cannot exceed
  // what the byte stream could possibly hold.
  if (n > bytes.size() * 8 / label_bits) {
    return Status::ParseError("corrupt store header");
  }
  auto owned = std::make_shared<Owned>();
  owned->labels.resize(n);
  const uint64_t q_mask = (uint64_t{1} << q_bits) - 1;
  const uint64_t o_mask = (uint64_t{1} << o_bits) - 1;
  for (uint64_t& word : owned->labels) {
    uint64_t field;  // q1, q2, q3, origin, MSB-first (see Serialize)
    SKL_RETURN_NOT_OK(reader.Read(label_bits, &field));
    const uint64_t q3 = (field >> o_bits) & q_mask;
    const uint64_t q2 = (field >> (o_bits + q_bits)) & q_mask;
    const uint64_t q1 = field >> (o_bits + 2 * q_bits);
    word = q1 | (q2 << q_bits) | (q3 << 2 * q_bits) |
           ((field & o_mask) << 3 * q_bits);
  }
  uint64_t items;
  SKL_RETURN_NOT_OK(reader.ReadVarint(&items));
  if (items > bytes.size()) {
    return Status::ParseError("corrupt store header");
  }
  // The catalog in its final layout; Bind checks it. A value past 32 bits
  // is caught once, after the loop, from the or of every high half.
  std::vector<uint32_t>& catalog = owned->catalog;
  catalog.resize(2 * items + 1, 0);
  uint64_t high = 0;
  for (uint64_t x = 0; x < items; ++x) {
    uint64_t writer_v, n_readers;
    SKL_RETURN_NOT_OK(reader.ReadVarint(&writer_v));
    SKL_RETURN_NOT_OK(reader.ReadVarint(&n_readers));
    catalog[x] = static_cast<uint32_t>(writer_v);
    high |= writer_v >> 32;
    for (uint64_t r = 0; r < n_readers; ++r) {
      uint64_t reader_v;
      SKL_RETURN_NOT_OK(reader.ReadVarint(&reader_v));
      catalog.push_back(static_cast<uint32_t>(reader_v));
      high |= reader_v >> 32;
    }
    catalog[items + x + 1] =
        static_cast<uint32_t>(catalog.size() - (2 * items + 1));
  }
  if (high != 0) return Status::ParseError("item vertex out of range");
  return Share(std::move(owned), items, *packing,
               std::string(tag.begin(), tag.end()), StatusCode::kParseError);
}

}  // namespace skl
