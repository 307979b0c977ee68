#include "src/replication/oplog.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>

#include <unistd.h>
#endif

#include "src/common/bit_codec.h"
#include "src/common/crc32.h"
#include "src/common/file_bytes.h"

namespace skl {

namespace {

constexpr uint32_t kMagic = 0x534b4c4f;  // "SKLO"

/// Bytes of the len + CRC prefix in front of every entry payload.
constexpr size_t kEntryFrameBytes = 8;

/// Upper bound on an entry payload's bytes besides its blob: the op kind
/// byte and at most eleven varints of at most ten bytes each.
constexpr size_t kMaxEntryFieldBytes = 1 + 11 * 10;

/// Flushes an open log file's written bytes to stable storage.
Status SyncOpenFile(std::FILE* file, const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(::fileno(file)) != 0) {
    return Status::Internal("cannot sync op-log file " + path);
  }
#else
  (void)file;
  (void)path;
#endif
  return Status::OK();
}

/// Reads exactly `out.size()` bytes at `offset` of the open log file `fd`
/// without moving any file position, so appends may run alongside.
Status ReadAt(int fd, uint64_t offset, std::span<uint8_t> out,
              const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::Internal("cannot read op-log file " + path +
                              " at byte " + std::to_string(offset + done));
    }
    if (n == 0) {
      return Status::Internal(
          "op-log file " + path + " ends before byte " +
          std::to_string(offset + out.size()) + " (truncated while open)");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
#else
  (void)fd;
  (void)offset;
  (void)out;
  return Status::Internal("reading op-log file " + path +
                          " back needs pread, which this platform lacks");
#endif
}

std::span<const uint8_t> StrSpan(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

/// The bytes a fresh log file starts with: magic, format version, and the
/// CRC-framed header payload naming the spec and scheme.
std::vector<uint8_t> EncodeFilePrefix(const std::string& spec_xml,
                                      const std::string& scheme_name) {
  BitWriter header;
  header.WriteVarint(spec_xml.size());
  header.WriteBytes(StrSpan(spec_xml));
  header.WriteVarint(scheme_name.size());
  header.WriteBytes(StrSpan(scheme_name));
  const std::vector<uint8_t> header_payload = header.Finish();

  BitWriter prefix;
  prefix.Write(kMagic, 32);
  prefix.WriteVarint(kOpLogFormatVersion);
  prefix.Write(static_cast<uint32_t>(header_payload.size()), 32);
  prefix.Write(Crc32(header_payload), 32);
  prefix.WriteBytes(header_payload);
  return prefix.Finish();
}

}  // namespace

// ------------------------------------------------------- entry payloads --

namespace {

/// Appends SerializeLogOp's bytes for `op` to `writer`, after whatever it
/// already holds.
void WriteLogOp(const LogOp& op, BitWriter& writer) {
  writer.WriteVarint(op.lsn);
  writer.Write(static_cast<uint8_t>(op.kind), 8);
  switch (op.kind) {
    case LogOp::Kind::kAddRun:
    case LogOp::Kind::kImportRun: {
      writer.WriteVarint(op.run_id);
      WriteRunStats(writer, op.stats);
      writer.WriteVarint(op.blob.size());
      writer.WriteBytes(op.blob);
      break;
    }
    case LogOp::Kind::kRemoveRun:
      writer.WriteVarint(op.run_id);
      break;
    case LogOp::Kind::kSnapshotBarrier:
      writer.WriteVarint(op.blob.size());
      writer.WriteBytes(op.blob);
      break;
    case LogOp::Kind::kSpecDelta:
      // The epoch the delta produces, then the SerializeSpecDelta bytes.
      writer.WriteVarint(op.stats.epoch);
      writer.WriteVarint(op.blob.size());
      writer.WriteBytes(op.blob);
      break;
  }
}

void StoreBigEndian32(uint32_t value, uint8_t* out) {
  out[0] = static_cast<uint8_t>(value >> 24);
  out[1] = static_cast<uint8_t>(value >> 16);
  out[2] = static_cast<uint8_t>(value >> 8);
  out[3] = static_cast<uint8_t>(value);
}

}  // namespace

std::vector<uint8_t> SerializeLogOp(const LogOp& op) {
  BitWriter writer;
  WriteLogOp(op, writer);
  return writer.Finish();
}

Result<LogOp> DeserializeLogOp(std::span<const uint8_t> payload) {
  BitReader reader(payload.data(), payload.size());
  uint64_t lsn = 0, kind = 0;
  if (!reader.ReadVarint(&lsn).ok()) {
    return Status::ParseError("op-log entry truncated inside its LSN");
  }
  if (lsn == 0) {
    return Status::ParseError("op-log entry carries LSN 0 (LSNs start at 1)");
  }
  if (!reader.Read(8, &kind).ok()) {
    return Status::ParseError("op-log entry truncated before its op kind");
  }
  if (kind < static_cast<uint64_t>(LogOp::Kind::kAddRun) ||
      kind > static_cast<uint64_t>(LogOp::Kind::kSpecDelta)) {
    return Status::ParseError("op-log entry has unknown op kind " +
                              std::to_string(kind));
  }

  LogOp op;
  op.lsn = lsn;
  op.kind = static_cast<LogOp::Kind>(kind);
  switch (op.kind) {
    case LogOp::Kind::kAddRun:
    case LogOp::Kind::kImportRun: {
      uint64_t run_id = 0, blob_len = 0;
      if (!reader.ReadVarint(&run_id).ok()) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": truncated run fields");
      }
      Status stats = ReadRunStats(reader, &op.stats);
      if (!stats.ok()) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": " + stats.message());
      }
      if (!reader.ReadVarint(&blob_len).ok()) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": truncated run fields");
      }
      if (run_id == 0) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": run id 0 is not a valid id");
      }
      std::span<const uint8_t> blob;
      if (!reader.ReadBytes(static_cast<size_t>(blob_len), &blob).ok()) {
        return Status::ParseError(
            "op-log entry LSN " + std::to_string(lsn) + " declares " +
            std::to_string(blob_len) + " blob bytes past the entry end");
      }
      op.run_id = run_id;
      op.blob.assign(blob.begin(), blob.end());
      break;
    }
    case LogOp::Kind::kRemoveRun: {
      uint64_t run_id = 0;
      if (!reader.ReadVarint(&run_id).ok()) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": truncated run id");
      }
      if (run_id == 0) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": run id 0 is not a valid id");
      }
      op.run_id = run_id;
      break;
    }
    case LogOp::Kind::kSnapshotBarrier: {
      uint64_t blob_len = 0;
      if (!reader.ReadVarint(&blob_len).ok()) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": truncated barrier payload length");
      }
      std::span<const uint8_t> blob;
      if (!reader.ReadBytes(static_cast<size_t>(blob_len), &blob).ok()) {
        return Status::ParseError(
            "op-log entry LSN " + std::to_string(lsn) + " declares " +
            std::to_string(blob_len) + " barrier bytes past the entry end");
      }
      op.blob.assign(blob.begin(), blob.end());
      break;
    }
    case LogOp::Kind::kSpecDelta: {
      uint64_t epoch = 0, blob_len = 0;
      if (!reader.ReadVarint(&epoch).ok() ||
          !reader.ReadVarint(&blob_len).ok()) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": truncated spec-delta fields");
      }
      // A delta always *produces* an epoch, and epoch 1 is the creation
      // spec — no delta can produce it.
      if (epoch < 2) {
        return Status::ParseError("op-log entry LSN " + std::to_string(lsn) +
                                  ": spec delta targets epoch " +
                                  std::to_string(epoch) +
                                  " (deltas produce epochs >= 2)");
      }
      std::span<const uint8_t> blob;
      if (!reader.ReadBytes(static_cast<size_t>(blob_len), &blob).ok()) {
        return Status::ParseError(
            "op-log entry LSN " + std::to_string(lsn) + " declares " +
            std::to_string(blob_len) + " delta bytes past the entry end");
      }
      op.stats.epoch = epoch;
      op.blob.assign(blob.begin(), blob.end());
      break;
    }
  }
  reader.AlignToByte();
  if (reader.bit_position() / 8 != payload.size()) {
    return Status::ParseError(
        "op-log entry LSN " + std::to_string(lsn) + " has " +
        std::to_string(payload.size() - reader.bit_position() / 8) +
        " trailing bytes");
  }
  return op;
}

// --------------------------------------------------------- entry frames --

namespace {

/// One entry frame parsed from the front of a byte range.
struct EntryFrame {
  LogOp op;
  size_t bytes = 0;  ///< framed size: length + CRC prefix, then payload
};

/// Parses the entry frame at the front of `bytes`, which must carry LSN
/// `lsn`: the 32-bit payload length and CRC-32, the payload under that
/// CRC, DeserializeLogOp and the LSN sequence. The one copy of these
/// checks: replay and ReadFrom both go through it. A ParseError says why
/// the frame does not check out (torn, corrupted, malformed or out of
/// sequence), naming the LSN it follows.
Result<EntryFrame> ParseEntryFrame(std::span<const uint8_t> bytes,
                                   uint64_t lsn) {
  const auto after = [lsn] { return "after LSN " + std::to_string(lsn - 1); };
  const size_t remaining = bytes.size();
  if (remaining < kEntryFrameBytes) {
    return Status::ParseError(
        "op-log torn tail " + after() + ": " + std::to_string(remaining) +
        " trailing bytes are too short for an entry frame");
  }
  BitReader reader(bytes.data(), bytes.size());
  uint64_t len = 0, crc = 0;
  // Cannot fail: kEntryFrameBytes are present.
  (void)reader.Read(32, &len);
  (void)reader.Read(32, &crc);
  if (len > remaining - kEntryFrameBytes) {
    return Status::ParseError(
        "op-log entry " + after() + " declares " + std::to_string(len) +
        " payload bytes but only " +
        std::to_string(remaining - kEntryFrameBytes) + " remain (torn tail)");
  }
  const std::span<const uint8_t> payload =
      bytes.subspan(kEntryFrameBytes, static_cast<size_t>(len));
  if (Crc32(payload) != crc) {
    return Status::ParseError(
        "op-log entry " + after() +
        " failed its CRC-32 check (corrupted or torn append)");
  }
  Result<LogOp> op = DeserializeLogOp(payload);
  if (!op.ok()) {
    return Status::ParseError("op-log entry " + after() + " is malformed: " +
                              op.status().message());
  }
  if (op->lsn != lsn) {
    return Status::ParseError("op-log LSN discontinuity: expected " +
                              std::to_string(lsn) + ", entry carries " +
                              std::to_string(op->lsn));
  }
  return EntryFrame{std::move(op).value(), kEntryFrameBytes + payload.size()};
}

}  // namespace

// ------------------------------------------------------------ the log --

OpLog::OpLog(std::string path, std::string spec_xml, std::string scheme_name,
             Options options)
    : path_(std::move(path)),
      spec_xml_(std::move(spec_xml)),
      scheme_name_(std::move(scheme_name)),
      options_(options) {}

OpLog::~OpLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<OpLogReplay> OpLog::ReplayFile(const std::string& path) {
  SKL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       ReadFileBytes(path, "op-log file"));
  BitReader reader(bytes);

  uint64_t magic = 0;
  if (!reader.Read(32, &magic).ok()) {
    return Status::ParseError("op-log truncated: missing file header");
  }
  if (magic != kMagic) {
    return Status::ParseError("not an SKL op-log (bad magic)");
  }
  uint64_t version = 0;
  if (!reader.ReadVarint(&version).ok()) {
    return Status::ParseError("op-log truncated: missing format version");
  }
  if (version != kOpLogFormatVersion) {
    return Status::ParseError(
        "unsupported op-log format version " + std::to_string(version) +
        "; this build reads only version " +
        std::to_string(kOpLogFormatVersion) +
        ", replay it with a matching build or start a fresh log");
  }
  uint64_t header_len = 0, header_crc = 0;
  if (!reader.Read(32, &header_len).ok() ||
      !reader.Read(32, &header_crc).ok()) {
    return Status::ParseError("op-log truncated: incomplete header frame");
  }
  std::span<const uint8_t> header_payload;
  if (!reader.ReadBytes(static_cast<size_t>(header_len), &header_payload)
           .ok()) {
    return Status::ParseError("op-log header declares " +
                              std::to_string(header_len) +
                              " bytes past end of file");
  }
  if (Crc32(header_payload) != header_crc) {
    return Status::ParseError(
        "op-log header checksum mismatch (corrupted header)");
  }

  OpLogReplay replay;
  {
    BitReader header(header_payload.data(), header_payload.size());
    uint64_t spec_len = 0, scheme_len = 0;
    std::span<const uint8_t> spec, scheme;
    if (!header.ReadVarint(&spec_len).ok() ||
        !header.ReadBytes(static_cast<size_t>(spec_len), &spec).ok() ||
        !header.ReadVarint(&scheme_len).ok() ||
        !header.ReadBytes(static_cast<size_t>(scheme_len), &scheme).ok()) {
      return Status::ParseError("op-log header payload is malformed");
    }
    header.AlignToByte();
    if (header.bit_position() / 8 != header_payload.size()) {
      return Status::ParseError("op-log header has trailing bytes");
    }
    replay.spec_xml.assign(spec.begin(), spec.end());
    replay.scheme_name.assign(scheme.begin(), scheme.end());
  }

  // Entry loop. The replay invariant: after every iteration, ops holds the
  // complete valid prefix (LSNs 1..last_lsn) and valid_bytes points just
  // past it — the first damaged frame sets `tail` and stops, never skips.
  // A clean end of file leaves `tail` OK.
  const std::span<const uint8_t> file(bytes);
  replay.valid_bytes = reader.bit_position() / 8;
  while (replay.valid_bytes < file.size()) {
    Result<EntryFrame> frame = ParseEntryFrame(
        file.subspan(replay.valid_bytes), replay.last_lsn + 1);
    if (!frame.ok()) {
      replay.tail = frame.status();
      break;
    }
    replay.entry_offsets.push_back(replay.valid_bytes);
    replay.ops.push_back(std::move(frame->op));
    replay.last_lsn += 1;
    replay.valid_bytes += frame->bytes;
  }
  return replay;
}

Result<std::unique_ptr<OpLog>> OpLog::Open(const std::string& path,
                                           const std::string& spec_xml,
                                           const std::string& scheme_name,
                                           Options options) {
  std::unique_ptr<OpLog> log(
      new OpLog(path, spec_xml, scheme_name, options));
  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec);
  if (exists) {
    SKL_ASSIGN_OR_RETURN(OpLogReplay replay, ReplayFile(path));
    if (replay.spec_xml != spec_xml) {
      return Status::InvalidArgument(
          "op-log at " + path +
          " was written for a different specification; refusing to append");
    }
    if (replay.scheme_name != scheme_name) {
      return Status::InvalidArgument(
          "op-log at " + path + " was written for scheme '" +
          replay.scheme_name + "', not '" + scheme_name +
          "'; refusing to append");
    }
    // Drop the torn/corrupt tail (if any) so the next append lands right
    // after the last valid entry instead of extending garbage.
    std::error_code size_ec;
    const uintmax_t size = std::filesystem::file_size(path, size_ec);
    if (size_ec) {
      return Status::Internal("cannot stat op-log file " + path + ": " +
                              size_ec.message());
    }
    if (size > replay.valid_bytes) {
      std::error_code trunc_ec;
      std::filesystem::resize_file(path, replay.valid_bytes, trunc_ec);
      if (trunc_ec) {
        return Status::Internal("cannot truncate op-log torn tail at " +
                                path + ": " + trunc_ec.message());
      }
    }
    log->offsets_ = std::move(replay.entry_offsets);
    log->offsets_.push_back(replay.valid_bytes);
    log->last_lsn_.store(replay.last_lsn, std::memory_order_release);
    // Read + append on one descriptor: writes land at the end, ReadFrom
    // preads.
    log->file_ = std::fopen(path.c_str(), "a+b");
    if (log->file_ == nullptr) {
      return Status::Internal("cannot open op-log file " + path +
                              " for append");
    }
  } else {
    log->file_ = std::fopen(path.c_str(), "w+b");
    if (log->file_ == nullptr) {
      return Status::Internal("cannot create op-log file " + path);
    }
    const std::vector<uint8_t> prefix =
        EncodeFilePrefix(spec_xml, scheme_name);
    if (std::fwrite(prefix.data(), 1, prefix.size(), log->file_) !=
            prefix.size() ||
        std::fflush(log->file_) != 0) {
      return Status::Internal("error writing op-log header to " + path);
    }
    log->offsets_.push_back(prefix.size());
    if (options.fsync) {
      SKL_RETURN_NOT_OK(SyncOpenFile(log->file_, path));
      // The file's directory entry must also be durable, or a crash could
      // forget the log existed while clients hold acks recorded in it.
      SKL_RETURN_NOT_OK(
          SyncDir(std::filesystem::path(path).parent_path().string(),
                  "op-log directory"));
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  log->fd_ = ::fileno(log->file_);
#endif
  return log;
}

Result<uint64_t> OpLog::Append(LogOp op) {
  const auto append_start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  const uint64_t lsn = last_lsn_.load(std::memory_order_relaxed) + 1;
  op.lsn = lsn;
  // One buffer per entry: the payload is serialized after an 8-byte slot,
  // which then takes its big-endian length and CRC in place.
  BitWriter framed;
  framed.Reserve(kEntryFrameBytes + kMaxEntryFieldBytes + op.blob.size());
  framed.Write(0, 64);
  WriteLogOp(op, framed);
  std::vector<uint8_t> bytes = framed.Finish();
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(bytes).subspan(kEntryFrameBytes);
  StoreBigEndian32(static_cast<uint32_t>(payload.size()), bytes.data());
  StoreBigEndian32(Crc32(payload), bytes.data() + 4);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size() ||
      std::fflush(file_) != 0) {
    poisoned_ = Status::Internal(
        "op-log append of LSN " + std::to_string(lsn) + " failed: write "
        "error on " + path_ + " (the file may hold a torn entry; the log "
        "is poisoned and refuses further appends)");
    return poisoned_;
  }
  if (options_.fsync) {
    const auto fsync_start = std::chrono::steady_clock::now();
    Status synced = SyncOpenFile(file_, path_);
    fsync_hist_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - fsync_start)
            .count()));
    if (!synced.ok()) {
      poisoned_ = Status::Internal(
          "op-log append of LSN " + std::to_string(lsn) +
          " failed: " + synced.message() +
          " (durability unknown; the log is poisoned)");
      return poisoned_;
    }
  }
  offsets_.push_back(offsets_.back() + bytes.size());
  last_lsn_.store(lsn, std::memory_order_release);
  append_hist_.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - append_start)
          .count()));
  return lsn;
}

Result<std::vector<LogOp>> OpLog::ReadFrom(uint64_t after_lsn,
                                          size_t max_ops) const {
  // The window's entry offsets and the end of its last entry, copied under
  // the lock. The bytes they bound were written before the offsets were
  // published and never change again, so the read needs no lock.
  std::vector<uint64_t> window;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t entries = offsets_.size() - 1;
    if (after_lsn >= entries || max_ops == 0) return std::vector<LogOp>{};
    // LSN n starts at offsets_[n - 1], so the first entry past after_lsn
    // starts at offsets_[after_lsn].
    const uint64_t count = std::min<uint64_t>(entries - after_lsn, max_ops);
    const auto first = offsets_.begin() + static_cast<ptrdiff_t>(after_lsn);
    window.assign(first, first + static_cast<ptrdiff_t>(count + 1));
  }
  std::vector<uint8_t> bytes(window.back() - window.front());
  SKL_RETURN_NOT_OK(ReadAt(fd_, window.front(), bytes, path_));

  std::vector<LogOp> ops;
  ops.reserve(window.size() - 1);
  for (size_t i = 0; i + 1 < window.size(); ++i) {
    const uint64_t lsn = after_lsn + i + 1;
    const size_t size = window[i + 1] - window[i];
    Result<EntryFrame> frame = ParseEntryFrame(
        std::span<const uint8_t>(bytes).subspan(window[i] - window.front(),
                                                size),
        lsn);
    Status damage = frame.status();
    if (damage.ok() && frame->bytes != size) {
      damage = Status::ParseError(
          "its frame spans " + std::to_string(frame->bytes) + " bytes, not "
          "the " + std::to_string(size) + " appended");
    }
    if (!damage.ok()) {
      return Status::ParseError("op-log " + path_ + " cannot serve LSN " +
                                std::to_string(lsn) + " at byte " +
                                std::to_string(window[i]) + ": " +
                                damage.message());
    }
    ops.push_back(std::move(frame->op));
  }
  return ops;
}

}  // namespace skl
