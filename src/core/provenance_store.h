// Persistent provenance store: what a workflow system would actually write
// to its provenance database after a run completes. Holds the run labels at
// the paper's size (Lemma 4.7), one 64-bit word per vertex, plus the
// data-item catalog in CSR form, so batch queries are tight loops over flat
// memory. Serializes to a single self-describing binary blob; queries need
// only the blob and the specification's skeleton scheme — the run graph
// itself can be discarded, which is the whole point of reachability labels.
//
// A label word is q1 | q2 << q_bits | q3 << 2*q_bits | origin << 3*q_bits
// (LabelPacking), at the run's exact blob widths. Lemma 4.5's context test
// compares each field masked in place (`a.q2 > b.q2` iff
// `(a & M2) > (b & M2)`), so a query loads one word per vertex and shifts
// out only the origin. A run whose label needs more than 64 bits is refused.
//
// Blob layout: magic "SKLP", format version, scheme tag, vertex count and
// the q/origin widths, then each label as one field of the exact Lemma 4.7
// bit width, then the catalog as varints (item count; per item: writer,
// reader count, readers).
//
// Every store is the same thing: a label-word span and three catalog spans
// plus one shared, immutable backing that keeps them alive. Capture and
// Deserialize fill owned columns and hand them over as the backing;
// FromColumns binds spans into memory someone else laid out (a snapshot's
// columns section, heap-held or mmap'd). Nothing writes a column after it
// is bound, so a copy is a refcount bump that shares the columns, and the
// memory is released when the last store sharing it is destroyed.
#ifndef SKL_CORE_PROVENANCE_STORE_H_
#define SKL_CORE_PROVENANCE_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/data_provenance.h"
#include "src/core/run_labeling.h"

namespace skl {

/// A label word's context fields, each masked in place: ContextTest orders
/// them exactly as it orders the fields themselves.
struct PackedContext {
  uint64_t q1;
  uint64_t q2;
  uint64_t q3;
};

/// The bit layout of one run's label words: q1 | q2 << q_bits |
/// q3 << 2*q_bits | origin << 3*q_bits.
class LabelPacking {
 public:
  /// One-bit fields: the widths of a store with no vertices.
  LabelPacking() : LabelPacking(1, 1) {}

  /// The packing at these widths; CapacityExceeded when either is outside
  /// 1..32 or the label needs more than 64 bits.
  static Result<LabelPacking> Make(uint64_t q_bits, uint64_t o_bits);

  int q_bits() const { return q_bits_; }
  int o_bits() const { return o_bits_; }

  /// Precondition: each field fits its width.
  uint64_t Pack(const RunLabel& label) const {
    return label.q1 | (uint64_t{label.q2} << q_bits_) |
           (uint64_t{label.q3} << 2 * q_bits_) |
           (uint64_t{label.origin} << 3 * q_bits_);
  }
  RunLabel Unpack(uint64_t word) const {
    return RunLabel{static_cast<uint32_t>(word & q_mask_),
                    static_cast<uint32_t>((word >> q_bits_) & q_mask_),
                    static_cast<uint32_t>((word >> 2 * q_bits_) & q_mask_),
                    Origin(word)};
  }
  PackedContext Context(uint64_t word) const {
    return {word & q_mask_, word & (q_mask_ << q_bits_),
            word & (q_mask_ << 2 * q_bits_)};
  }
  VertexId Origin(uint64_t word) const {
    return static_cast<VertexId>(OriginField(word));
  }
  /// Every bit above the context fields: the origin, when the word is
  /// well formed (it fits o_bits, which admission checks).
  uint64_t OriginField(uint64_t word) const { return word >> 3 * q_bits_; }

 private:
  LabelPacking(int q_bits, int o_bits)
      : q_bits_(q_bits),
        o_bits_(o_bits),
        q_mask_((uint64_t{1} << q_bits) - 1) {}

  int q_bits_;
  int o_bits_;
  uint64_t q_mask_;
};

/// The origins of a store's label words, decoded on access.
class OriginView {
 public:
  OriginView(std::span<const uint64_t> words, LabelPacking packing)
      : words_(words), packing_(packing) {}
  VertexId operator[](size_t v) const { return packing_.Origin(words_[v]); }

 private:
  std::span<const uint64_t> words_;
  LabelPacking packing_;
};

class ProvenanceStore {
 public:
  ProvenanceStore() = default;

  /// Captures labels (one per run vertex) and, optionally, their data
  /// catalog. `scheme_tag` names the skeleton scheme the labels were
  /// produced under (the bundled SpecSchemeKind name); it is embedded in
  /// the blob so a later import can reject a blob paired with the wrong
  /// scheme. Empty means "unknown" and is accepted everywhere. A label
  /// needing more than 64 bits is CapacityExceeded; a catalog naming a
  /// vertex the run does not have is InvalidArgument.
  static Result<ProvenanceStore> Capture(std::span<const RunLabel> labels,
                                         const DataCatalog* catalog = nullptr,
                                         std::string_view scheme_tag = {});
  static Result<ProvenanceStore> Capture(const RunLabeling& labeling,
                                         const DataCatalog* catalog = nullptr,
                                         std::string_view scheme_tag = {}) {
    return Capture(labeling.labels(), catalog, scheme_tag);
  }

  /// Binds columns that live in memory kept alive by `backing` (e.g. an
  /// mmap'd snapshot section), without copying. `reader_offsets` is the CSR
  /// offset column, num_items() + 1 entries. The catalog is checked here,
  /// so item queries can index the columns unchecked: every item writer
  /// and reader must name one of the labels.size() vertices, and the
  /// offsets must start at 0, never decrease and end at readers.size();
  /// otherwise a ParseError. Label values are the admitting service's to
  /// check.
  static Result<ProvenanceStore> FromColumns(
      std::span<const uint64_t> labels, LabelPacking packing,
      std::span<const uint32_t> item_writers,
      std::span<const uint32_t> reader_offsets,
      std::span<const uint32_t> readers, std::string scheme_tag,
      std::shared_ptr<const void> backing);

  /// Serializes to a self-describing blob.
  std::vector<uint8_t> Serialize() const;

  /// Restores a store from a blob. A blob of any other format version, or
  /// whose label needs more than 64 bits, is refused with a ParseError.
  static Result<ProvenanceStore> Deserialize(std::span<const uint8_t> bytes);
  static Result<ProvenanceStore> Deserialize(
      const std::vector<uint8_t>& bytes);

  VertexId num_vertices() const {
    return static_cast<VertexId>(labels_.size());
  }
  size_t num_items() const { return item_writers_.size(); }

  RunLabel label(VertexId v) const { return packing_.Unpack(labels_[v]); }

  /// One label word per vertex, laid out by packing().
  std::span<const uint64_t> label_words() const { return labels_; }
  const LabelPacking& packing() const { return packing_; }
  OriginView origin_column() const { return {labels_, packing_}; }

  // The store is pure data: label words plus the catalog's writer/reader
  // lists. Query through skl::ProvenanceService (Reaches/DependsOn/...),
  // which holds the scheme once per specification and answers from these
  // accessors. The blob's scheme tag (below) is what ties a blob to the
  // scheme it was labeled under — importers reject a tag that names a
  // different scheme.

  /// Execution that wrote item x. Precondition: x < num_items().
  VertexId item_writer(DataItemId x) const { return item_writers_[x]; }

  /// Executions that read item x. Precondition: x < num_items().
  std::span<const VertexId> item_readers(DataItemId x) const {
    return readers_.subspan(reader_offsets_[x],
                            reader_offsets_[x + 1] - reader_offsets_[x]);
  }

  /// Total reader entries across all items (the READERS column length).
  size_t num_reader_entries() const { return readers_.size(); }

  // The catalog's CSR columns: item writers, num_items() + 1 offsets from
  // 0 into the reader column, and the readers of every item in item order.
  std::span<const uint32_t> item_writer_column() const {
    return item_writers_;
  }
  std::span<const uint32_t> reader_offset_column() const {
    return reader_offsets_;
  }
  std::span<const uint32_t> reader_column() const { return readers_; }

  /// Name of the skeleton scheme these labels were produced under; empty
  /// when unknown.
  const std::string& scheme_tag() const { return scheme_tag_; }

 private:
  struct Owned;

  /// Binds the spans as given, after the one catalog check: the error
  /// carries `code`.
  static Result<ProvenanceStore> Bind(
      std::span<const uint64_t> labels, LabelPacking packing,
      std::span<const uint32_t> item_writers,
      std::span<const uint32_t> reader_offsets,
      std::span<const uint32_t> readers, std::string scheme_tag,
      std::shared_ptr<const void> backing, StatusCode code);

  /// Binds owned columns, holding `items` catalog items, as the shared
  /// backing.
  static Result<ProvenanceStore> Share(std::shared_ptr<const Owned> owned,
                                       size_t items, LabelPacking packing,
                                       std::string scheme_tag,
                                       StatusCode code);

  std::span<const uint64_t> labels_;
  LabelPacking packing_;
  std::span<const uint32_t> item_writers_;
  std::span<const uint32_t> reader_offsets_;  // num_items()+1; empty by default
  std::span<const uint32_t> readers_;
  std::shared_ptr<const void> backing_;  // keeps the columns alive
  std::string scheme_tag_;
};

}  // namespace skl

#endif  // SKL_CORE_PROVENANCE_STORE_H_
