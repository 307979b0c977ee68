#include "src/io/snapshot.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "src/common/bit_codec.h"
#include "src/common/check.h"
#include "src/common/crc32.h"
#include "src/common/file_bytes.h"
#include "src/common/varint.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/speclabel/scheme.h"

namespace skl {

namespace {

constexpr uint32_t kMagic = 0x534b4c53;  // "SKLS"
constexpr uint64_t kMaxSchemeTagBytes = 256;

size_t AlignUp(size_t offset) {
  return (offset + kSnapshotSectionAlignment - 1) &
         ~(kSnapshotSectionAlignment - 1);
}

/// Grows `out` by `count` little-endian u32 slots in one resize and returns
/// the first, for PutU32Le to fill.
uint8_t* GrowU32s(std::vector<uint8_t>& out, size_t count) {
  const size_t at = out.size();
  out.resize(at + 4 * count);
  return out.data() + at;
}

/// Stores `value` little-endian at `p`; returns the next slot.
uint8_t* PutU32Le(uint8_t* p, uint32_t value) {
  p[0] = static_cast<uint8_t>(value);
  p[1] = static_cast<uint8_t>(value >> 8);
  p[2] = static_cast<uint8_t>(value >> 16);
  p[3] = static_cast<uint8_t>(value >> 24);
  return p + 4;
}

uint32_t LoadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Heap-owned snapshot bytes (Parse/ReadFile).
class HeapBacking final : public SnapshotBacking {
 public:
  explicit HeapBacking(std::vector<uint8_t> buf) : buf_(std::move(buf)) {
    bytes_ = buf_;
  }

 private:
  std::vector<uint8_t> buf_;
};

#if defined(__unix__) || defined(__APPLE__)
/// mmap'd snapshot bytes (MapFile); unmapped when the last shared owner
/// (reader or zero-copy run view) drops its reference.
class MmapBacking final : public SnapshotBacking {
 public:
  MmapBacking(void* addr, size_t len) : addr_(addr), len_(len) {
    bytes_ = std::span<const uint8_t>(static_cast<const uint8_t*>(addr), len);
  }
  ~MmapBacking() override { ::munmap(addr_, len_); }
  bool mapped() const override { return true; }

 private:
  void* addr_;
  size_t len_;
};
#endif

}  // namespace

// ----------------------------------------------------------- container IO --

void SnapshotWriter::AddSection(uint32_t id, std::vector<uint8_t> payload) {
  sections_.push_back({id, std::move(payload), /*aligned=*/false});
}

void SnapshotWriter::AddAlignedSection(uint32_t id,
                                       std::vector<uint8_t> payload) {
  sections_.push_back({id, std::move(payload), /*aligned=*/true});
}

SnapshotWriter::Layout SnapshotWriter::Lay() const {
  Layout layout;
  layout.n_sections = sections_.size();
  for (const PendingSection& s : sections_) {
    if (s.aligned) ++layout.n_sections;  // each gets a pad section ahead
  }
  layout.pads.assign(sections_.size(), 0);
  size_t offset =
      4 + VarintSize(kSnapshotFormatVersion) + VarintSize(layout.n_sections);
  for (size_t i = 0; i < sections_.size(); ++i) {
    const PendingSection& s = sections_[i];
    const size_t header_len =
        VarintSize(s.id) + VarintSize(s.payload.size()) + 4;
    if (s.aligned) {
      // A pad section (id 0) sized so the *next* section's payload lands on
      // an alignment boundary. The pad's own header is 6 bytes: 1-byte id,
      // 1-byte length (the pad is < 64, so its varint is one byte), 4-byte
      // CRC.
      const size_t unpadded = offset + 6 + header_len;
      layout.pads[i] =
          (kSnapshotSectionAlignment - unpadded % kSnapshotSectionAlignment) %
          kSnapshotSectionAlignment;
      offset += 6 + layout.pads[i];
    }
    offset += header_len + s.payload.size();
  }
  layout.size = offset;
  return layout;
}

void SnapshotWriter::Emit(
    const Layout& layout,
    const std::function<void(std::span<const uint8_t>)>& put) const {
  BitWriter header;
  header.Write(kMagic, 32);
  header.WriteVarint(kSnapshotFormatVersion);
  header.WriteVarint(layout.n_sections);
  put(header.Finish());
  for (size_t i = 0; i < sections_.size(); ++i) {
    const PendingSection& s = sections_[i];
    BitWriter head;
    if (s.aligned) {
      const std::vector<uint8_t> zeros(layout.pads[i], 0);
      head.WriteVarint(kSnapshotSectionPad);
      head.WriteVarint(layout.pads[i]);
      head.Write(Crc32(zeros), 32);
      head.WriteBytes(zeros);
    }
    head.WriteVarint(s.id);
    head.WriteVarint(s.payload.size());
    head.Write(Crc32(s.payload), 32);
    put(head.Finish());
    put(s.payload);
  }
}

std::vector<uint8_t> SnapshotWriter::Finish() && {
  const Layout layout = Lay();
  std::vector<uint8_t> bytes;
  bytes.reserve(layout.size);
  Emit(layout, [&bytes](std::span<const uint8_t> piece) {
    bytes.insert(bytes.end(), piece.begin(), piece.end());
  });
  SKL_DCHECK(bytes.size() == layout.size);
  return bytes;
}

Status SnapshotWriter::WriteFile(const std::string& path) && {
  // Sections go to the file one by one, with no whole-file copy in memory:
  // the same bytes Finish() would return.
  const Layout layout = Lay();
  // Write to a sibling tmp file and rename into place: a crash mid-save
  // must never leave a torn snapshot under the real name (the previous
  // snapshot, if any, stays intact until the atomic rename). The tmp name
  // is pid+sequence qualified so concurrent saves to the same path cannot
  // clobber each other's half-written bytes before their renames.
  static std::atomic<uint64_t> save_seq{0};
  std::string unique = std::to_string(save_seq.fetch_add(1));
#if defined(__unix__) || defined(__APPLE__)
  unique = std::to_string(::getpid()) + "." + unique;
#endif
  const std::string tmp = path + ".tmp." + unique;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot create snapshot file " + tmp);
    Emit(layout, [&out](std::span<const uint8_t> piece) {
      out.write(reinterpret_cast<const char*>(piece.data()),
                static_cast<std::streamsize>(piece.size()));
    });
    out.close();  // flushes; a failed final flush surfaces on the stream
    if (out.fail()) {
      std::error_code cleanup_ec;
      std::filesystem::remove(tmp, cleanup_ec);
      return Status::Internal("error writing snapshot file " + tmp);
    }
  }
  // The tmp bytes must be on stable storage before the rename publishes
  // them, or a power failure could replace a good snapshot with a torn one.
  Status synced = SyncFile(tmp, "snapshot file");
  if (!synced.ok()) {
    std::error_code cleanup_ec;
    std::filesystem::remove(tmp, cleanup_ec);
    return synced;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string reason = ec.message();
    std::error_code cleanup_ec;
    std::filesystem::remove(tmp, cleanup_ec);
    return Status::Internal("cannot move snapshot into place at " + path +
                            ": " + reason);
  }
  // ... and the rename itself is only durable once the directory entry is
  // flushed; only then may the caller be told the checkpoint committed.
  return SyncDir(std::filesystem::path(path).parent_path().string(),
                 "snapshot directory");
}

Result<SnapshotReader> SnapshotReader::ParseBacking(
    std::shared_ptr<const SnapshotBacking> backing) {
  SnapshotReader snapshot;
  snapshot.backing_ = std::move(backing);
  const std::span<const uint8_t> bytes = snapshot.backing_->bytes();
  BitReader reader(bytes.data(), bytes.size());
  uint64_t magic = 0;
  if (!reader.Read(32, &magic).ok()) {
    return Status::ParseError("snapshot truncated: missing file header");
  }
  if (magic != kMagic) {
    return Status::ParseError("not an SKL snapshot (bad magic)");
  }
  uint64_t version = 0, count = 0;
  if (!reader.ReadVarint(&version).ok() || !reader.ReadVarint(&count).ok()) {
    return Status::ParseError("snapshot truncated: incomplete header");
  }
  if (version != kSnapshotFormatVersion) {
    return Status::ParseError(
        "unsupported snapshot format version " + std::to_string(version) +
        "; this build reads only version " +
        std::to_string(kSnapshotFormatVersion) +
        ", re-create the snapshot with a matching build");
  }
  // The count is corruption-controlled: cap the reserve at what the file
  // could physically hold (>= 6 header bytes per section) so a crafted
  // varint yields ParseError below, not a length_error/bad_alloc abort.
  snapshot.sections_.reserve(std::min<uint64_t>(count, bytes.size() / 6));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0, length = 0, expected_crc = 0;
    if (!reader.ReadVarint(&id).ok() || !reader.ReadVarint(&length).ok() ||
        !reader.Read(32, &expected_crc).ok()) {
      return Status::ParseError("snapshot truncated in section " +
                                std::to_string(i) + " header");
    }
    std::span<const uint8_t> payload;
    if (!reader.ReadBytes(length, &payload).ok()) {
      return Status::ParseError(
          "snapshot truncated: section " + std::to_string(i) + " declares " +
          std::to_string(length) + " payload bytes past end of file");
    }
    if (id > UINT32_MAX) {
      return Status::ParseError("snapshot section id " + std::to_string(id) +
                                " out of range");
    }
    if (Crc32(payload) != expected_crc) {
      return Status::ParseError("snapshot section " + std::to_string(id) +
                                " checksum mismatch (corrupted payload)");
    }
    snapshot.sections_.push_back(
        {static_cast<uint32_t>(id),
         static_cast<size_t>(payload.data() - bytes.data()),
         static_cast<size_t>(length)});
  }
  // Bytes past the last declared section mean a torn writer or a
  // concatenated file — reject rather than silently ignore them.
  if (reader.bit_position() != bytes.size() * 8) {
    return Status::ParseError(
        "snapshot has trailing bytes after the last section");
  }
  return snapshot;
}

Result<SnapshotReader> SnapshotReader::Parse(std::vector<uint8_t> bytes) {
  return ParseBacking(std::make_shared<HeapBacking>(std::move(bytes)));
}

Result<SnapshotReader> SnapshotReader::ReadFile(const std::string& path) {
  SKL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       ReadFileBytes(path, "snapshot file"));
  return Parse(std::move(bytes));
}

Result<SnapshotReader> SnapshotReader::MapFile(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open snapshot file " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("cannot stat snapshot file " + path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len == 0) {
    // mmap(0) is an error; report what Parse would say about an empty file.
    ::close(fd);
    return Status::ParseError("snapshot truncated: missing file header");
  }
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping survives the descriptor
  if (addr == MAP_FAILED) {
    return Status::Internal("cannot mmap snapshot file " + path);
  }
  // The CRC sweep inside ParseBacking touches every page, so corruption
  // surfaces here as ParseError — the same way the copying path reports it
  // — not as a SIGBUS at query time.
  return ParseBacking(std::make_shared<MmapBacking>(addr, len));
#else
  (void)path;
  return Status::Internal("mmap snapshots are not supported on this platform");
#endif
}

bool SnapshotReader::Has(uint32_t id) const {
  for (const SectionEntry& s : sections_) {
    if (s.id == id) return true;
  }
  return false;
}

Result<std::span<const uint8_t>> SnapshotReader::Section(uint32_t id) const {
  for (const SectionEntry& s : sections_) {
    if (s.id == id) {
      return backing_->bytes().subspan(s.offset, s.length);
    }
  }
  return Status::NotFound("snapshot has no section " + std::to_string(id));
}

// ------------------------------------------- service snapshot on top of it --
//
// The service-level encoding (defined here so the spec-XML and scheme-name
// dependencies stay inside src/io):
//
//   section kSnapshotSectionSpec    spec XML (WriteSpecificationXml)
//   section kSnapshotSectionScheme  canonical scheme name ("TCM", ...)
//   section kSnapshotSectionEpochs  varint chain length, then per epoch >= 2
//     varint number, varint delta length and the serialized SpecDelta
//
// and the registry, split into a small index and one aligned columnar
// payload the loader can view in place (the mmap path maps it read-only and
// copies nothing):
//
//   section kSnapshotSectionRunIndex  varint next_id, varint run count,
//     then per run in ascending id order: varint id, the RunStats fields
//     (num_vertices, num_items, label_bits, context_bits, origin_bits,
//     num_nonempty_plus, imported, epoch), varint reader-entry count,
//     varint scheme-tag length + tag bytes.
//   section kSnapshotSectionColumns (aligned)  a 16-byte header of u32-LE
//     totals (vertices, items, offset entries, reader entries), then seven
//     u32-LE columns, each starting at a 64-byte multiple relative to the
//     payload: Q1, Q2, Q3, ORIGIN (label components, all runs' vertices
//     concatenated in id order), WRITERS (item writers), OFFSETS (per-run
//     CSR offset arrays, run-local values, num_items+1 entries per run),
//     READERS (CSR reader entries). A run's columns are the contiguous
//     slices at its cumulative base.
//
// The scheme itself is not serialized: every bundled scheme builds
// deterministically from the specification graph, so rebuilding on load
// yields bit-identical skeleton labels — and therefore bit-identical query
// answers — at a fraction of the snapshot size.

Result<SnapshotWriter> ProvenanceService::BuildSnapshotWriter() const {
  const std::string_view scheme_name = scheme().name();
  if (!ParseSpecSchemeKind(scheme_name).ok()) {
    return Status::InvalidArgument(
        "scheme '" + std::string(scheme_name) +
        "' is not a bundled SpecSchemeKind; only services over bundled "
        "schemes can be snapshotted");
  }
  // Freeze the epoch chain for this snapshot: deltas applied after this
  // point are simply not part of the file, exactly like runs published
  // after the registry sweep below. (Epoch entries are append-only, so the
  // copied prefix stays internally consistent.)
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> deltas;
  uint64_t epoch_count = 1;
  {
    std::lock_guard<std::mutex> lock(*epoch_mu_);
    epoch_count = epochs_->back().number;
    for (const SpecEpoch& e : *epochs_) {
      if (e.number < 2) continue;  // epoch 1 is the spec XML itself
      deltas.emplace_back(e.number, SerializeSpecDelta(e.delta));
    }
  }
  SnapshotWriter writer;
  // The Spec section always holds the *creation* (epoch 1) specification;
  // the Epochs section replays the deltas on load.
  const std::string spec_xml = WriteSpecificationXml(base_spec());
  writer.AddSection(kSnapshotSectionSpec,
                    std::vector<uint8_t>(spec_xml.begin(), spec_xml.end()));
  writer.AddSection(
      kSnapshotSectionScheme,
      std::vector<uint8_t>(scheme_name.begin(), scheme_name.end()));
  BitWriter epochs;
  epochs.WriteVarint(epoch_count);
  for (const auto& [number, blob] : deltas) {
    epochs.WriteVarint(number);
    epochs.WriteVarint(blob.size());
    epochs.WriteBytes(blob);
  }
  writer.AddSection(kSnapshotSectionEpochs, epochs.Finish());

  // Compose the registry view shard by shard under each shard's read lock
  // — no stop-the-world pass, so queries keep answering while the snapshot
  // is encoded. Shards partition ids by hash, so the sweep's cross-shard
  // order interleaves; sorting restores the ascending id order the on-disk
  // layout requires. A store copy shares its immutable columns, so the
  // sweep takes references, not label copies.
  struct SavedRun {
    uint64_t id;
    RunStats stats;
    ProvenanceStore store;
  };
  std::vector<SavedRun> saved;
  registry_->ForEach([&](uint64_t id, const RunRecord& record) {
    // A run ingested under an epoch past the frozen chain (a delta raced
    // in between the chain copy and this sweep) belongs to a later
    // snapshot; including it would dangle off the recorded chain.
    if (record.stats.epoch > epoch_count) return;
    saved.push_back({id, record.stats, record.store});
  });
  // Read the id allocator *after* the sweep: every id the sweep collected
  // was allocated before this load, so the invariant id < next_id holds
  // even for runs published concurrently mid-sweep.
  const uint64_t next_id = registry_->next_id();
  std::sort(saved.begin(), saved.end(),
            [](const SavedRun& a, const SavedRun& b) { return a.id < b.id; });

  uint64_t total_vertices = 0, total_items = 0, total_offsets = 0,
           total_readers = 0;
  for (const SavedRun& r : saved) {
    total_vertices += r.store.num_vertices();
    total_items += r.store.num_items();
    total_offsets += r.store.num_items() + 1;
    total_readers += r.store.num_reader_entries();
  }
  if (total_vertices > UINT32_MAX || total_items > UINT32_MAX ||
      total_offsets > UINT32_MAX || total_readers > UINT32_MAX) {
    return Status::InvalidArgument(
        "run registry too large for a columnar snapshot");
  }

  BitWriter index;
  index.WriteVarint(next_id);
  index.WriteVarint(saved.size());
  for (const SavedRun& r : saved) {
    index.WriteVarint(r.id);
    WriteRunStats(index, r.stats);
    index.WriteVarint(r.store.num_reader_entries());
    const std::string& tag = r.store.scheme_tag();
    index.WriteVarint(tag.size());
    index.WriteBytes(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(tag.data()), tag.size()));
  }
  writer.AddSection(kSnapshotSectionRunIndex, index.Finish());

  std::vector<uint8_t> cols;
  cols.reserve(AlignUp(16) +
               4 * (total_vertices * 4 + total_items + total_offsets +
                    total_readers) +
               7 * kSnapshotSectionAlignment);
  uint8_t* totals = GrowU32s(cols, 4);
  for (uint64_t total :
       {total_vertices, total_items, total_offsets, total_readers}) {
    totals = PutU32Le(totals, static_cast<uint32_t>(total));
  }
  // Every column is the runs' own columns concatenated in id order: a
  // run's offsets already start at 0, as the layout wants them.
  for (const auto column :
       {&ProvenanceStore::q1_column, &ProvenanceStore::q2_column,
        &ProvenanceStore::q3_column, &ProvenanceStore::origin_column,
        &ProvenanceStore::item_writer_column,
        &ProvenanceStore::reader_offset_column,
        &ProvenanceStore::reader_column}) {
    cols.resize(AlignUp(cols.size()), 0);
    for (const SavedRun& r : saved) {
      const std::span<const uint32_t> values = (r.store.*column)();
      uint8_t* p = GrowU32s(cols, values.size());
      for (uint32_t value : values) p = PutU32Le(p, value);
    }
  }
  writer.AddAlignedSection(kSnapshotSectionColumns, std::move(cols));
  return writer;
}

Status ProvenanceService::SaveSnapshot(const std::string& path) const {
  SKL_ASSIGN_OR_RETURN(SnapshotWriter writer, BuildSnapshotWriter());
  Status written = std::move(writer).WriteFile(path);
  if (written.ok()) {
    counters_->snapshot_saves.fetch_add(1, std::memory_order_relaxed);
  }
  return written;
}

Result<std::vector<uint8_t>> ProvenanceService::SnapshotBytes() const {
  // The replication bootstrap path (kSnapshotFetch): same encoding as
  // SaveSnapshot, but handed back as bytes for the wire instead of a file,
  // and not counted as a snapshot save — nothing durable happened here.
  SKL_ASSIGN_OR_RETURN(SnapshotWriter writer, BuildSnapshotWriter());
  return std::move(writer).Finish();
}

Result<ProvenanceService> ProvenanceService::LoadSnapshot(
    const std::string& path, Options options,
    SnapshotLoadOptions load_options) {
  if (load_options.use_mmap && std::getenv("SKL_NO_MMAP") == nullptr) {
    Result<SnapshotReader> mapped = SnapshotReader::MapFile(path);
    if (mapped.ok()) {
      return LoadFromSnapshotReader(std::move(mapped).value(),
                                    std::move(options));
    }
    if (mapped.status().code() == StatusCode::kParseError ||
        mapped.status().code() == StatusCode::kNotFound) {
      // The *file* is bad; the copying reader would report the same thing.
      return mapped.status();
    }
    // Only the mapping mechanism failed (platform/filesystem): fall back to
    // the copying reader below, which sees the same bytes.
  }
  SKL_ASSIGN_OR_RETURN(SnapshotReader reader, SnapshotReader::ReadFile(path));
  return LoadFromSnapshotReader(std::move(reader), std::move(options));
}

Result<ProvenanceService> ProvenanceService::LoadSnapshotBytes(
    std::vector<uint8_t> bytes, Options options) {
  SKL_ASSIGN_OR_RETURN(SnapshotReader reader,
                       SnapshotReader::Parse(std::move(bytes)));
  return LoadFromSnapshotReader(std::move(reader), std::move(options));
}

Result<ProvenanceService> ProvenanceService::LoadFromSnapshotReader(
    SnapshotReader reader, Options options) {
  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> spec_bytes,
                       reader.Section(kSnapshotSectionSpec));
  SKL_ASSIGN_OR_RETURN(
      Specification spec,
      ReadSpecificationXml(std::string(spec_bytes.begin(), spec_bytes.end())));

  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> scheme_bytes,
                       reader.Section(kSnapshotSectionScheme));
  SKL_ASSIGN_OR_RETURN(
      SpecSchemeKind kind,
      ParseSpecSchemeKind(std::string_view(
          reinterpret_cast<const char*>(scheme_bytes.data()),
          scheme_bytes.size())));

  // Rebuilds the skeleton scheme over the restored spec (deterministic).
  SKL_ASSIGN_OR_RETURN(ProvenanceService service,
                       Create(std::move(spec), kind, options));

  // Replay the recorded delta chain before any run is restored, so every
  // run's ingest epoch resolves to a live chain entry. Replay goes through
  // the replica path — chain continuity is enforced and nothing is
  // re-logged.
  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> epoch_bytes,
                       reader.Section(kSnapshotSectionEpochs));
  BitReader epochs(epoch_bytes.data(), epoch_bytes.size());
  uint64_t chain_len = 0;
  SKL_RETURN_NOT_OK(epochs.ReadVarint(&chain_len));
  if (chain_len == 0) {
    return Status::ParseError("snapshot epoch chain: length is zero");
  }
  for (uint64_t number = 2; number <= chain_len; ++number) {
    uint64_t recorded = 0, blob_len = 0;
    std::span<const uint8_t> blob;
    if (!epochs.ReadVarint(&recorded).ok() ||
        !epochs.ReadVarint(&blob_len).ok() ||
        !epochs.ReadBytes(static_cast<size_t>(blob_len), &blob).ok()) {
      return Status::ParseError(
          "snapshot epoch chain truncated at epoch " +
          std::to_string(number));
    }
    if (recorded != number) {
      return Status::ParseError(
          "snapshot epoch chain out of order: expected epoch " +
          std::to_string(number) + ", found " + std::to_string(recorded));
    }
    SKL_ASSIGN_OR_RETURN(SpecDelta delta, DeserializeSpecDelta(blob));
    Status applied = service.ApplySpecDeltaReplicated(delta, number);
    if (!applied.ok()) {
      return Status::ParseError(
          "snapshot epoch " + std::to_string(number) +
          " does not replay: " + applied.message());
    }
  }
  epochs.AlignToByte();
  if (epochs.bit_position() / 8 != epoch_bytes.size()) {
    return Status::ParseError(
        "snapshot epoch chain has trailing bytes after the declared "
        "deltas");
  }

  SKL_RETURN_NOT_OK(service.LoadColumnarRuns(reader));
  return service;
}

Status ProvenanceService::LoadColumnarRuns(const SnapshotReader& reader) {
  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> index_bytes,
                       reader.Section(kSnapshotSectionRunIndex));
  BitReader index(index_bytes.data(), index_bytes.size());
  uint64_t next_id = 0, count = 0;
  SKL_RETURN_NOT_OK(index.ReadVarint(&next_id));
  SKL_RETURN_NOT_OK(index.ReadVarint(&count));
  if (next_id == 0) {
    return Status::ParseError("snapshot run registry: id counter is zero");
  }
  struct RunMeta {
    uint64_t id;
    RunStats stats;
    const SpecEpoch* at;  // the run's ingest epoch
    uint64_t readers_total;
    std::string tag;
  };
  std::vector<RunMeta> metas;
  // Reserve is corruption-controlled like the section table: each indexed
  // run occupies at least 10 varint bytes.
  metas.reserve(std::min<uint64_t>(count, index_bytes.size() / 10 + 1));
  uint64_t prev_id = 0;
  uint64_t sum_vertices = 0, sum_items = 0, sum_offsets = 0, sum_readers = 0;
  for (uint64_t i = 0; i < count; ++i) {
    RunMeta meta;
    uint64_t tag_len = 0;
    SKL_RETURN_NOT_OK(index.ReadVarint(&meta.id));
    Status stats = ReadRunStats(index, &meta.stats);
    if (!stats.ok()) {
      return Status::ParseError("snapshot run " + std::to_string(meta.id) +
                                ": " + stats.message());
    }
    SKL_RETURN_NOT_OK(index.ReadVarint(&meta.readers_total));
    SKL_RETURN_NOT_OK(index.ReadVarint(&tag_len));
    if (meta.id <= prev_id || meta.id >= next_id) {
      return Status::ParseError(
          "snapshot run registry: run id " + std::to_string(meta.id) +
          " out of order or beyond the id counter");
    }
    meta.at = FindEpoch(meta.stats.epoch);
    if (meta.at == nullptr) {
      return Status::ParseError(
          "snapshot run " + std::to_string(meta.id) +
          " was ingested under spec epoch " +
          std::to_string(meta.stats.epoch) +
          ", which the snapshot's epoch chain does not reach");
    }
    if (meta.readers_total > UINT32_MAX) {
      return Status::ParseError("snapshot run " + std::to_string(meta.id) +
                                ": stats field out of range");
    }
    if (tag_len > kMaxSchemeTagBytes) {
      return Status::ParseError("snapshot run " + std::to_string(meta.id) +
                                ": scheme tag too long");
    }
    std::span<const uint8_t> tag_bytes;
    SKL_RETURN_NOT_OK(index.ReadBytes(tag_len, &tag_bytes));
    meta.tag.assign(tag_bytes.begin(), tag_bytes.end());
    sum_vertices += meta.stats.num_vertices;
    sum_items += meta.stats.num_items;
    sum_offsets += meta.stats.num_items + 1;
    sum_readers += meta.readers_total;
    prev_id = meta.id;
    metas.push_back(std::move(meta));
  }
  if (index.bit_position() != index_bytes.size() * 8) {
    return Status::ParseError(
        "snapshot run registry has trailing bytes after the declared runs");
  }

  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> cols,
                       reader.Section(kSnapshotSectionColumns));
  if (cols.size() < 16) {
    return Status::ParseError("snapshot columnar section truncated");
  }
  const uint64_t totals[4] = {LoadU32Le(cols.data()), LoadU32Le(cols.data() + 4),
                              LoadU32Le(cols.data() + 8),
                              LoadU32Le(cols.data() + 12)};
  if (totals[0] != sum_vertices || totals[1] != sum_items ||
      totals[2] != sum_offsets || totals[3] != sum_readers) {
    return Status::ParseError(
        "snapshot columnar section totals disagree with the run index");
  }
  // Column geometry: 16-byte header, then seven u32 columns, each aligned
  // to a 64-byte multiple relative to the payload start.
  const uint64_t col_counts[7] = {totals[0], totals[0], totals[0], totals[0],
                                  totals[1], totals[2], totals[3]};
  size_t col_off[7];
  size_t off = 16;
  for (int c = 0; c < 7; ++c) {
    off = AlignUp(off);
    col_off[c] = off;
    off += static_cast<size_t>(col_counts[c]) * 4;
  }
  if (off != cols.size()) {
    return Status::ParseError(
        "snapshot columnar section size disagrees with the run index");
  }

  // Zero-copy view when the host can read the little-endian columns in
  // place (the payload's actual address is u32-aligned; guaranteed for the
  // writer's aligned section under both the heap and mmap readers, checked
  // anyway for hand-assembled files). Otherwise decode into one owned
  // contiguous buffer — same layout, shared by every restored run.
  const bool can_view =
      std::endian::native == std::endian::little &&
      reinterpret_cast<uintptr_t>(cols.data()) % alignof(uint32_t) == 0;
  const uint32_t* base[7];
  std::shared_ptr<const void> backing;
  if (can_view) {
    for (int c = 0; c < 7; ++c) {
      base[c] = reinterpret_cast<const uint32_t*>(cols.data() + col_off[c]);
    }
    backing = reader.backing();
  } else {
    auto decoded = std::make_shared<std::vector<uint32_t>>();
    size_t total = 0;
    for (uint64_t n : col_counts) total += static_cast<size_t>(n);
    decoded->resize(total);
    size_t out = 0;
    for (int c = 0; c < 7; ++c) {
      base[c] = decoded->data() + out;
      for (uint64_t j = 0; j < col_counts[c]; ++j) {
        (*decoded)[out++] = LoadU32Le(cols.data() + col_off[c] + 4 * j);
      }
    }
    backing = std::move(decoded);
  }

  size_t cum_v = 0, cum_items = 0, cum_offsets = 0, cum_readers = 0;
  std::vector<uint64_t> ids;
  std::vector<RunRecord> records;
  for (RunMeta& meta : metas) {
    const size_t n = meta.stats.num_vertices;
    const size_t items = meta.stats.num_items;
    const size_t readers_total = static_cast<size_t>(meta.readers_total);
    Result<ProvenanceStore> store = ProvenanceStore::FromColumns(
        {base[0] + cum_v, n}, {base[1] + cum_v, n}, {base[2] + cum_v, n},
        {base[3] + cum_v, n}, {base[4] + cum_items, items},
        {base[5] + cum_offsets, items + 1},
        {base[6] + cum_readers, readers_total}, std::move(meta.tag), backing);
    if (!store.ok()) {
      return Status::ParseError("snapshot run " + std::to_string(meta.id) +
                                ": " + store.status().message());
    }
    Status admitted = AdmitStore(*store, *meta.at,
                                 "snapshot run " + std::to_string(meta.id));
    if (!admitted.ok()) {
      return Status::ParseError(admitted.message());
    }
    RunRecord record;
    record.stats = meta.stats;
    record.spec = meta.at->spec.get();
    record.scheme = meta.at->scheme.get();
    record.store = std::move(store).value();
    ids.push_back(meta.id);
    records.push_back(std::move(record));
    cum_v += n;
    cum_items += items;
    cum_offsets += items + 1;
    cum_readers += readers_total;
  }
  // The index ids are strictly ascending and the registry is fresh, so every
  // record goes in; one call takes each shard's writer side once.
  registry_->Restore(ids, records);
  registry_->SetNextId(next_id);
  loaded_via_mmap_ = can_view && reader.is_mapped();
  return Status::OK();
}

}  // namespace skl
