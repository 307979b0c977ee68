// Persistent provenance store: what a workflow system would actually write
// to its provenance database after a run completes. Holds the run labels in
// contiguous columnar arrays (one flat uint32 column per label component)
// plus the data-item catalog in CSR form, so batch queries are tight loops
// over flat memory. Serializes to a single self-describing binary blob;
// queries need only the blob and the specification's skeleton scheme — the
// run graph itself can be discarded, which is the whole point of
// reachability labels.
//
// Blob layout: magic "SKLP", format version, scheme tag, encoded
// labels block at the exact Lemma 4.7 bit width (label_codec), then the
// catalog as varints (item count; per item: writer, reader count, readers).
//
// Every store is the same thing: seven column spans plus one shared,
// immutable backing that keeps them alive. Capture and Deserialize fill one
// contiguous uint32 arena [q1 | q2 | q3 | origin | writers | offsets |
// readers] and hand it over as the backing; FromColumns binds spans into
// memory someone else laid out (a snapshot's columns section, heap-held or
// mmap'd). Nothing writes a column after it is bound, so a copy is a
// refcount bump that shares the columns, and the memory is released when
// the last store sharing it is destroyed.
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

class ProvenanceStore {
 public:
  ProvenanceStore() = default;

  /// Captures a labeled run and (optionally) its data catalog. `scheme_tag`
  /// names the skeleton scheme the labels were produced under (the bundled
  /// SpecSchemeKind name); it is embedded in the blob so a later import can
  /// reject a blob paired with the wrong scheme. Empty means "unknown" and
  /// is accepted everywhere.
  static ProvenanceStore Capture(const RunLabeling& labeling,
                                 const DataCatalog* catalog = nullptr,
                                 std::string_view scheme_tag = {});

  /// Binds columns that live in memory kept alive by `backing` (e.g. an
  /// mmap'd snapshot section), without copying. `reader_offsets` is the CSR
  /// offset column, num_items() + 1 entries. The catalog is checked here,
  /// so item queries can index the columns unchecked: every item writer
  /// and reader must name one of the q1.size() vertices, and the offsets
  /// must start at 0, never decrease and end at readers.size(); otherwise a
  /// ParseError. Label values are the admitting service's to check.
  static Result<ProvenanceStore> FromColumns(
      std::span<const uint32_t> q1, std::span<const uint32_t> q2,
      std::span<const uint32_t> q3, std::span<const uint32_t> origin,
      std::span<const uint32_t> item_writers,
      std::span<const uint32_t> reader_offsets,
      std::span<const uint32_t> readers, std::string scheme_tag,
      std::shared_ptr<const void> backing);

  /// Serializes to a self-describing blob.
  std::vector<uint8_t> Serialize() const;

  /// Restores a store from a blob. A blob of any other format version is
  /// refused with a ParseError naming both versions.
  static Result<ProvenanceStore> Deserialize(std::span<const uint8_t> bytes);
  static Result<ProvenanceStore> Deserialize(
      const std::vector<uint8_t>& bytes);

  VertexId num_vertices() const { return static_cast<VertexId>(q1_.size()); }
  size_t num_items() const { return item_writers_.size(); }

  RunLabel label(VertexId v) const {
    return RunLabel{q1_[v], q2_[v], q3_[v], origin_[v]};
  }

  // Flat label columns for batch loops (SIMD-friendly: one contiguous
  // uint32 array per component, indexed by vertex).
  std::span<const uint32_t> q1_column() const { return q1_; }
  std::span<const uint32_t> q2_column() const { return q2_; }
  std::span<const uint32_t> q3_column() const { return q3_; }
  std::span<const uint32_t> origin_column() const { return origin_; }

  // The store is pure data: label columns plus the catalog's writer/reader
  // lists. The scheme-passing query overloads that used to live here
  // (deprecated since the service landed) are gone; query through
  // skl::ProvenanceService (Reaches/DependsOn/...), which holds the scheme
  // once per specification and answers from these accessors. The blob's
  // scheme tag (below) is what ties a blob to the scheme it was labeled
  // under — importers reject a tag that names a different scheme.

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
  /// Binds the spans as given: FromColumns after its checks, and the
  /// arena builders, whose columns are valid by construction.
  ProvenanceStore(std::span<const uint32_t> q1, std::span<const uint32_t> q2,
                  std::span<const uint32_t> q3,
                  std::span<const uint32_t> origin,
                  std::span<const uint32_t> item_writers,
                  std::span<const uint32_t> reader_offsets,
                  std::span<const uint32_t> readers, std::string scheme_tag,
                  std::shared_ptr<const void> backing);

  /// Makes `arena` ([q1 | q2 | q3 | origin | writers | offsets | readers],
  /// n vertices and `items` items) the shared backing and binds its
  /// columns.
  static ProvenanceStore Share(std::vector<uint32_t> arena, size_t n,
                               size_t items, std::string scheme_tag);

  std::span<const uint32_t> q1_, q2_, q3_, origin_;
  std::span<const uint32_t> item_writers_;
  std::span<const uint32_t> reader_offsets_;  // num_items()+1; empty by default
  std::span<const uint32_t> readers_;
  std::shared_ptr<const void> backing_;  // keeps the columns alive
  std::string scheme_tag_;
};

}  // namespace skl

#endif  // SKL_CORE_PROVENANCE_STORE_H_
