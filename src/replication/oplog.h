// Durable operation log: the replication subsystem's source of truth
// (docs/REPLICATION.md). Every mutating ProvenanceService op — AddRun (all
// ingestion paths), ImportRun, RemoveRun, plus a LoadSnapshot barrier —
// is appended as one CRC-framed entry with a monotonically increasing log
// sequence number (LSN), *before* the op is acked to the caller. A crashed
// primary therefore replays to a state that contains every op any client
// ever saw succeed; replicas tail the same entries over the wire
// (kSubscribe) and apply them in LSN order.
//
// File layout (same sectioned-container idiom as src/io/snapshot.cc: all
// multi-byte fields via the bit_codec varint/bit encodings, byte-aligned,
// every payload CRC-checked):
//
//   magic "SKLO"              32 bits
//   format version            varint
//   header frame:
//     payload length (bytes)  32 bits
//     payload CRC-32          32 bits
//     payload: spec XML (length-prefixed), scheme name (length-prefixed)
//   entry frames, each:
//     payload length (bytes)  32 bits
//     payload CRC-32          32 bits
//     payload: varint LSN, 8-bit op kind, kind-specific fields
//
// LSNs start at 1 and increment by exactly 1; replay verifies the
// sequence, so a dropped or reordered entry is corruption, not a gap to
// skip. Replay is truncation/corruption-tolerant: it stops at the last
// entry whose frame and payload check out and reports *why* it stopped in
// OpLogReplay::tail — a torn tail (crashed mid-append) is truncated away
// on reopen and appending continues from the surviving LSN; it never
// crashes and never silently skips a damaged entry to resync.
//
// The log is append-only and never compacted: a LoadSnapshot barrier
// records where a snapshot superseded the registry (recovery chains
// through it; replicas re-bootstrap), but the bytes before it stay.
//
// The file is the only copy of a logged op. An open OpLog keeps 8 bytes
// per entry in memory, the entry's file offset, and no op or blob:
// ReadFrom (the kSubscribe serving path) reads the framed entries back
// from the file and checks them with the same entry-frame parser replay
// uses, so a run's labels leave memory when its registry record does.
#ifndef SKL_REPLICATION_OPLOG_H_
#define SKL_REPLICATION_OPLOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/core/run_registry.h"

namespace skl {

/// Op-log format version. ReplayFile (and so Open) accepts only this
/// version and refuses any other with a ParseError naming both versions.
inline constexpr uint32_t kOpLogFormatVersion = 2;

/// One replicated operation. The AddRun/ImportRun payload carries the
/// registered id, the ingestion-time RunStats and the ProvenanceStore blob,
/// so a replica restores bit-identical stats and labels without
/// relabeling.
struct LogOp {
  enum class Kind : uint8_t {
    kAddRun = 1,           ///< any non-import ingestion path
    kImportRun = 2,        ///< ImportRun (replica apply also invalidates)
    kRemoveRun = 3,
    kSnapshotBarrier = 4,  ///< service replaced via LoadSnapshot
    kSpecDelta = 5,        ///< ApplySpecDelta
  };

  Kind kind = Kind::kAddRun;
  uint64_t lsn = 0;     ///< assigned by OpLog::Append
  uint64_t run_id = 0;  ///< add/import/remove; unused for barriers/deltas
  /// add/import: the ingestion-time stats (stats.epoch is the run's spec
  /// epoch). kSpecDelta reuses stats.epoch alone: the epoch the delta
  /// *produces*, so a replica can verify chain continuity before applying.
  RunStats stats;
  /// add/import: the ProvenanceStore blob; barrier: the server-side
  /// snapshot path (recovery chains through it); delta: the
  /// SerializeSpecDelta bytes.
  std::vector<uint8_t> blob;
};

/// Encodes one op into its entry payload (without the length/CRC framing):
/// the byte shape that travels in kLogEntries frames and on disk.
std::vector<uint8_t> SerializeLogOp(const LogOp& op);

/// Decodes an entry payload, validating the op kind, field ranges and that
/// the payload is fully consumed. `lsn` is whatever the entry carries; the
/// sequence check against the predecessor is the caller's.
Result<LogOp> DeserializeLogOp(std::span<const uint8_t> payload);

/// What OpLog::ReplayFile recovered from a log file.
struct OpLogReplay {
  std::string spec_xml;
  std::string scheme_name;
  /// The valid entry prefix, LSNs 1..last_lsn in order.
  std::vector<LogOp> ops;
  /// File offset of each entry frame in `ops`, index = LSN - 1.
  std::vector<uint64_t> entry_offsets;
  uint64_t last_lsn = 0;
  /// File offset just past the last valid entry (the truncation point a
  /// reopen uses to drop a torn tail).
  size_t valid_bytes = 0;
  /// OK: the file ends cleanly after the last entry. Otherwise a
  /// descriptive ParseError saying why replay stopped (torn tail, CRC
  /// mismatch, LSN discontinuity, malformed entry).
  Status tail;
};

/// OpLog knobs. (Namespace-scope so it can be brace-defaulted in Open's
/// declaration; spelled OpLog::Options at call sites.)
struct OpLogOptions {
  /// fsync every append before acking. The durable default survives
  /// power loss; tests that only need process-crash durability (a
  /// written page survives the process) disable it for speed.
  bool fsync = true;
};

/// The durable log. Internally synchronized: Append / last_lsn / ReadFrom
/// may be called concurrently (the service appends from many ingestion
/// threads; the server's kSubscribe handler reads). ReadFrom holds the
/// mutex only to copy offsets and reads the file outside it: a written
/// entry never changes while the log is open (only Open truncates).
/// Non-movable — the service and server hold borrowed pointers — so Open
/// returns a unique_ptr.
class OpLog {
 public:
  using Options = OpLogOptions;

  /// Opens `path` for appending. A missing file is created with a header
  /// recording `spec_xml` and `scheme_name`; an existing file is replayed,
  /// checked against both (a log from a different specification or scheme
  /// is refused), its torn tail — if any — truncated away, and appending
  /// continues at the surviving LSN. Entry-level corruption *before* the
  /// tail also truncates from the first damaged entry: everything after it
  /// was never guaranteed ordered, and a log that lies about its LSNs is
  /// worse than a shorter one. `replayed`, when given, is ReplayFile's
  /// parse of the same unchanged file, used instead of parsing it again
  /// (RecoverPrimary already holds one).
  static Result<std::unique_ptr<OpLog>> Open(
      const std::string& path, const std::string& spec_xml,
      const std::string& scheme_name, Options options = {},
      const OpLogReplay* replayed = nullptr);

  /// Parses a log file without opening it for append: header, then every
  /// entry until damage or end-of-file (see OpLogReplay::tail). The
  /// recovery entry point (RecoverPrimary) and the corruption fuzz test's
  /// subject.
  static Result<OpLogReplay> ReplayFile(const std::string& path);

  ~OpLog();
  OpLog(const OpLog&) = delete;
  OpLog& operator=(const OpLog&) = delete;

  /// Assigns the next LSN to `op`, appends the framed entry and (by
  /// default) fsyncs before returning the LSN. A failed write or sync
  /// poisons the log — the file may hold a torn entry, so every later
  /// append fails with the same Internal status rather than risking an
  /// out-of-sequence tail.
  Result<uint64_t> Append(LogOp op);

  /// Last successfully appended LSN (0 for an empty log). Lock-free.
  uint64_t last_lsn() const {
    return last_lsn_.load(std::memory_order_acquire);
  }

  /// Up to `max_ops` entries with LSN > after_lsn, in LSN order — the
  /// kSubscribe serving path. The entries are read back from the file
  /// (one pread of their framed bytes) and pass the checks replay applies:
  /// length, CRC-32, payload shape and LSN sequence. An entry damaged at
  /// rest fails the whole window with a ParseError naming its LSN, never
  /// a wrong op; a failed read is Internal. Empty when nothing follows
  /// after_lsn.
  Result<std::vector<LogOp>> ReadFrom(uint64_t after_lsn,
                                      size_t max_ops) const;

  const std::string& path() const { return path_; }
  const std::string& spec_xml() const { return spec_xml_; }
  const std::string& scheme_name() const { return scheme_name_; }

  /// Append latency distributions, microseconds (docs/OBSERVABILITY.md):
  /// the whole Append (serialize + write + flush + fsync) and the fsync
  /// portion alone (0-filled when Options::fsync is off). The net server
  /// renders both into its kMetrics exposition.
  const LatencyHistogram& append_histogram() const { return append_hist_; }
  const LatencyHistogram& fsync_histogram() const { return fsync_hist_; }

 private:
  OpLog(std::string path, std::string spec_xml, std::string scheme_name,
        Options options);

  std::string path_;
  std::string spec_xml_;
  std::string scheme_name_;
  Options options_;

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;     // appends guarded by mu_
  int fd_ = -1;                   // file_'s descriptor; pread needs no lock
  /// File offset of every entry frame, index = LSN - 1, then the offset
  /// just past the last entry (so size() == last LSN + 1); by mu_.
  std::vector<uint64_t> offsets_;
  Status poisoned_;               // non-OK once an append failed; by mu_
  std::atomic<uint64_t> last_lsn_{0};
  LatencyHistogram append_hist_;  // internally atomic, not under mu_
  LatencyHistogram fsync_hist_;
};

}  // namespace skl

#endif  // SKL_REPLICATION_OPLOG_H_
