// Durable service snapshots: the whole ProvenanceService — specification,
// skeleton scheme identity, and every registered run with its labels —
// serialized to one versioned, checksummed binary file. This is the paper's
// amortization argument made restart-proof: the specification is labeled
// once, and a warm restart (ProvenanceService::LoadSnapshot) restores a
// fully queryable service without relabeling a single run.
//
// Container layout (all multi-byte fields via the bit_codec varint/bit
// encodings, byte-aligned):
//
//   magic "SKLS" (32 bits)
//   container format version  varint
//   section count             varint
//   per section:
//     section id              varint
//     payload length (bytes)  varint
//     payload CRC-32          32 bits
//     payload                 raw bytes
//
// Sections are opaque payloads to the container; SnapshotWriter /
// SnapshotReader only deal in (id, bytes, checksum). An *aligned* section's
// payload additionally starts at a 64-byte multiple in the file — the
// writer inserts a pad section (id 0) in front of it — so a reader that
// mmaps the file can hand the payload to SIMD loops and typed column views
// in place. The service-level encoding on top (section ids
// kSnapshotSection*) lives in snapshot.cc and is documented in
// docs/PERSISTENCE.md, together with the versioning and recovery policy.
// Every malformed input — truncated file, bad magic, unsupported version,
// checksum mismatch — is reported as a descriptive ParseError Status,
// never a crash.
#ifndef SKL_IO_SNAPSHOT_H_
#define SKL_IO_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace skl {

/// Container format version written by SnapshotWriter. SnapshotReader
/// accepts only this version and refuses any other with a ParseError naming
/// both versions (docs/PERSISTENCE.md).
inline constexpr uint32_t kSnapshotFormatVersion = 4;

/// Alignment (bytes) the writer guarantees for aligned sections' payloads,
/// chosen to match cache-line / SIMD-width expectations of the column
/// loops.
inline constexpr size_t kSnapshotSectionAlignment = 64;

/// Section ids of the service snapshot encoding (see docs/PERSISTENCE.md).
inline constexpr uint32_t kSnapshotSectionPad = 0;       ///< alignment filler
inline constexpr uint32_t kSnapshotSectionSpec = 1;      ///< spec XML
inline constexpr uint32_t kSnapshotSectionScheme = 2;    ///< scheme name
inline constexpr uint32_t kSnapshotSectionRunIndex = 4;  ///< run index
inline constexpr uint32_t kSnapshotSectionColumns = 5;   ///< label words + catalog
inline constexpr uint32_t kSnapshotSectionEpochs = 6;    ///< epoch chain

/// Owns the bytes a parsed snapshot points into — a heap buffer or a
/// read-only mmap'd region. Shared (via shared_ptr) by the SnapshotReader
/// and any zero-copy ProvenanceStore views carved out of it, so an mmap is
/// released exactly when the last owner lets go.
class SnapshotBacking {
 public:
  virtual ~SnapshotBacking() = default;
  SnapshotBacking(const SnapshotBacking&) = delete;
  SnapshotBacking& operator=(const SnapshotBacking&) = delete;

  std::span<const uint8_t> bytes() const { return bytes_; }
  /// True for mmap'd regions (whose validity depends on the file not being
  /// truncated underneath the mapping — see docs/PERSISTENCE.md).
  virtual bool mapped() const { return false; }

 protected:
  SnapshotBacking() = default;
  std::span<const uint8_t> bytes_;
};

/// Assembles a snapshot file: add sections, then Finish() into bytes or
/// WriteFile() to disk (written to a unique "<path>.tmp.<pid>.<seq>"
/// sibling, fsynced, and renamed into place, so neither a crash mid-save
/// nor a concurrent save to the same path can leave a half-written
/// snapshot at `path`).
class SnapshotWriter {
 public:
  /// Appends one section. Ids should be unique; SnapshotReader::Section
  /// returns the first match.
  void AddSection(uint32_t id, std::vector<uint8_t> payload);

  /// Appends one section whose payload will start at a multiple of
  /// kSnapshotSectionAlignment in the encoded file (a pad section is
  /// inserted in front of it). Precondition: id < 128.
  void AddAlignedSection(uint32_t id, std::vector<uint8_t> payload);

  /// Encodes the container and returns its bytes.
  std::vector<uint8_t> Finish() &&;

  /// Encodes the container and writes it to `path` (tmp-file + rename).
  Status WriteFile(const std::string& path) &&;

 private:
  struct PendingSection {
    uint32_t id;
    std::vector<uint8_t> payload;
    bool aligned;
  };
  /// Where the encoded container puts things: the section count with pad
  /// sections, each aligned section's pad length, and the total size.
  struct Layout {
    size_t n_sections = 0;
    std::vector<size_t> pads;
    size_t size = 0;
  };
  Layout Lay() const;
  /// Passes the encoded container to `put` piece by piece, in file order:
  /// the file header, then for each section the bytes ahead of its payload
  /// (pad section, id, length, CRC) and the payload itself.
  void Emit(const Layout& layout,
            const std::function<void(std::span<const uint8_t>)>& put) const;

  std::vector<PendingSection> sections_;
};

/// Parses and validates a snapshot: magic, version, section table, and the
/// CRC-32 of every section payload are all checked up front, so a reader
/// holding a SnapshotReader knows the bytes are intact (for an mmap'd file,
/// "intact" as of the eager CRC sweep — the mapping contract is the
/// caller's from there).
class SnapshotReader {
 public:
  /// Parses an in-memory snapshot. The reader owns the bytes; Section()
  /// spans point into them.
  static Result<SnapshotReader> Parse(std::vector<uint8_t> bytes);

  /// Reads and parses a snapshot file into a heap buffer (the copying
  /// path).
  static Result<SnapshotReader> ReadFile(const std::string& path);

  /// Maps a snapshot file read-only and parses it in place (the zero-copy
  /// path). NotFound if the file cannot be opened, ParseError if its bytes
  /// are malformed (exactly as ReadFile would report), Internal if the
  /// platform cannot map it — callers treat only the last as "fall back to
  /// ReadFile".
  static Result<SnapshotReader> MapFile(const std::string& path);

  size_t num_sections() const { return sections_.size(); }

  bool Has(uint32_t id) const;

  /// Payload of the section with the given id (checksum already verified),
  /// or NotFound. The span is valid while the backing lives.
  Result<std::span<const uint8_t>> Section(uint32_t id) const;

  /// The byte owner. Callers that build zero-copy views into Section()
  /// spans must retain a copy of this shared_ptr for the views' lifetime.
  const std::shared_ptr<const SnapshotBacking>& backing() const {
    return backing_;
  }

  /// True when the backing is an mmap'd region rather than a heap buffer.
  bool is_mapped() const {
    return backing_ != nullptr && backing_->mapped();
  }

 private:
  struct SectionEntry {
    uint32_t id;
    size_t offset;  ///< byte offset of the payload in the backing
    size_t length;
  };

  SnapshotReader() = default;

  static Result<SnapshotReader> ParseBacking(
      std::shared_ptr<const SnapshotBacking> backing);

  std::shared_ptr<const SnapshotBacking> backing_;
  std::vector<SectionEntry> sections_;
};

}  // namespace skl

#endif  // SKL_IO_SNAPSHOT_H_
