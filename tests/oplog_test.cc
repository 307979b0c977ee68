// Durable op-log unit + fuzz suite (src/replication/oplog.h): entry
// round trips, reopen-continues-LSN, header identity checks, ReadFrom
// windows read back from the file (after a torn-tail reopen, at the log's
// end, over a damaged entry, racing appends) — and, mirroring
// snapshot_test.cc's fuzz style, byte-exhaustive
// truncation and bit-flip sweeps over a 3-entry log asserting replay
// always stops at the last valid LSN with a descriptive Status: never a
// crash, never a silently skipped entry, never a full-length replay of a
// damaged file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bit_codec.h"
#include "src/common/check.h"
#include "src/common/crc32.h"
#include "src/common/temp_path.h"
#include "src/replication/oplog.h"
#include "tests/test_util.h"

namespace skl {
namespace {

constexpr char kSpecXml[] = "<specification fake-but-stable/>";
constexpr char kScheme[] = "tcm";

std::string FreshLogPath(const std::string& stem) {
  const std::string path = PidQualifiedTempPath(stem, ".skllog");
  std::filesystem::remove(path);
  return path;
}

LogOp MakeAddOp(uint64_t run_id, uint8_t blob_fill, size_t blob_len) {
  LogOp op;
  op.kind = LogOp::Kind::kAddRun;
  op.run_id = run_id;
  op.stats.num_vertices = 30;
  op.stats.num_items = 12;
  op.stats.label_bits = 96;
  op.stats.context_bits = 40;
  op.stats.origin_bits = 8;
  op.stats.num_nonempty_plus = 5;
  op.stats.imported = false;
  op.blob.assign(blob_len, blob_fill);
  return op;
}

using testing_util::ReadAll;
using testing_util::WriteAll;

/// ReadFrom's window, asserting it was served.
std::vector<LogOp> ReadOk(const OpLog& log, uint64_t after_lsn,
                          size_t max_ops) {
  auto window = log.ReadFrom(after_lsn, max_ops);
  SKL_CHECK_MSG(window.ok(), window.status().ToString().c_str());
  return std::move(window).value();
}

/// A log with 3 entries (add, import, remove); fsync off — these tests
/// exercise the format, not the disk.
std::string BuildThreeEntryLog(const std::string& stem) {
  const std::string path = FreshLogPath(stem);
  OpLog::Options options;
  options.fsync = false;
  auto log = OpLog::Open(path, kSpecXml, kScheme, options);
  SKL_CHECK_MSG(log.ok(), log.status().ToString().c_str());
  auto a = (*log)->Append(MakeAddOp(1, 0xAA, 24));
  SKL_CHECK_MSG(a.ok(), a.status().ToString().c_str());
  LogOp imported = MakeAddOp(2, 0xBB, 16);
  imported.kind = LogOp::Kind::kImportRun;
  imported.stats.imported = true;
  auto b = (*log)->Append(std::move(imported));
  SKL_CHECK_MSG(b.ok(), b.status().ToString().c_str());
  LogOp removed;
  removed.kind = LogOp::Kind::kRemoveRun;
  removed.run_id = 1;
  auto c = (*log)->Append(std::move(removed));
  SKL_CHECK_MSG(c.ok(), c.status().ToString().c_str());
  return path;
}

TEST(OpLogTest, AppendsReplayBitIdentical) {
  const std::string path = BuildThreeEntryLog("oplog_roundtrip");
  auto replay = OpLog::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->tail.ok()) << replay->tail.ToString();
  EXPECT_EQ(replay->spec_xml, kSpecXml);
  EXPECT_EQ(replay->scheme_name, kScheme);
  EXPECT_EQ(replay->last_lsn, 3u);
  ASSERT_EQ(replay->ops.size(), 3u);

  const LogOp& add = replay->ops[0];
  EXPECT_EQ(add.lsn, 1u);
  EXPECT_EQ(add.kind, LogOp::Kind::kAddRun);
  EXPECT_EQ(add.run_id, 1u);
  EXPECT_EQ(add.stats.num_vertices, 30u);
  EXPECT_EQ(add.stats.num_items, 12u);
  EXPECT_EQ(add.stats.label_bits, 96u);
  EXPECT_EQ(add.stats.context_bits, 40u);
  EXPECT_EQ(add.stats.origin_bits, 8u);
  EXPECT_EQ(add.stats.num_nonempty_plus, 5u);
  EXPECT_FALSE(add.stats.imported);
  EXPECT_EQ(add.blob, std::vector<uint8_t>(24, 0xAA));

  const LogOp& imported = replay->ops[1];
  EXPECT_EQ(imported.lsn, 2u);
  EXPECT_EQ(imported.kind, LogOp::Kind::kImportRun);
  EXPECT_TRUE(imported.stats.imported);
  EXPECT_EQ(imported.blob, std::vector<uint8_t>(16, 0xBB));

  const LogOp& removed = replay->ops[2];
  EXPECT_EQ(removed.lsn, 3u);
  EXPECT_EQ(removed.kind, LogOp::Kind::kRemoveRun);
  EXPECT_EQ(removed.run_id, 1u);
  std::filesystem::remove(path);
}

TEST(OpLogTest, ServiceHistoryBytesArePinned) {
  // The op-log a service writes for a seeded history (catalogued runs
  // under three epochs, an import, a removal), pinned by digest: the entry
  // encoding, the stats fields and the run blobs may not move one byte.
  const std::string path = FreshLogPath("pinned_history");
  testing_util::PinnedHistoryService(path);
  const std::vector<uint8_t> bytes = ReadAll(path);
  std::filesystem::remove(path);
  EXPECT_EQ(bytes.size(), 3138u);
  EXPECT_EQ(testing_util::Fnv1a(bytes.data(), bytes.size()),
            0x8d4025735ba072a5ULL);
}

TEST(OpLogTest, ReopenContinuesTheLsnSequence) {
  const std::string path = BuildThreeEntryLog("oplog_reopen");
  OpLog::Options options;
  options.fsync = false;
  auto reopened = OpLog::Open(path, kSpecXml, kScheme, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->last_lsn(), 3u);
  auto lsn = (*reopened)->Append(MakeAddOp(3, 0xCC, 8));
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, 4u);

  auto replay = OpLog::ReplayFile(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->tail.ok());
  EXPECT_EQ(replay->last_lsn, 4u);
  std::filesystem::remove(path);
}

TEST(OpLogTest, OpenRefusesAForeignHeader) {
  const std::string path = BuildThreeEntryLog("oplog_header");
  OpLog::Options options;
  options.fsync = false;
  auto wrong_spec = OpLog::Open(path, "<other spec/>", kScheme, options);
  ASSERT_FALSE(wrong_spec.ok());
  EXPECT_EQ(wrong_spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_spec.status().message().find("different specification"),
            std::string::npos)
      << wrong_spec.status().ToString();

  auto wrong_scheme = OpLog::Open(path, kSpecXml, "bfs", options);
  ASSERT_FALSE(wrong_scheme.ok());
  EXPECT_EQ(wrong_scheme.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_scheme.status().message().find("tcm"), std::string::npos);
  EXPECT_NE(wrong_scheme.status().message().find("bfs"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(OpLogTest, OtherFormatVersionIsRejected) {
  // A hand-built header-only log at version 1 (and one from the future):
  // magic "SKLO", the version varint, then the CRC-framed spec/scheme
  // header. Replay and Open refuse it, naming both versions, and Open
  // leaves the file untouched.
  for (uint32_t version : {1u, kOpLogFormatVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    BitWriter header;
    header.WriteVarint(sizeof(kSpecXml) - 1);
    header.WriteBytes({reinterpret_cast<const uint8_t*>(kSpecXml),
                       sizeof(kSpecXml) - 1});
    header.WriteVarint(sizeof(kScheme) - 1);
    header.WriteBytes({reinterpret_cast<const uint8_t*>(kScheme),
                       sizeof(kScheme) - 1});
    const std::vector<uint8_t> payload = header.Finish();
    BitWriter file;
    file.Write(0x534b4c4f, 32);  // "SKLO"
    file.WriteVarint(version);
    file.Write(static_cast<uint32_t>(payload.size()), 32);
    file.Write(Crc32(payload), 32);
    file.WriteBytes(payload);
    const std::vector<uint8_t> bytes = file.Finish();
    const std::string path = FreshLogPath("oplog_version");
    WriteAll(path, bytes);

    auto replay = OpLog::ReplayFile(path);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kParseError);
    EXPECT_NE(replay.status().message().find(
                  "unsupported op-log format version " +
                  std::to_string(version)),
              std::string::npos)
        << replay.status().ToString();
    EXPECT_NE(replay.status().message().find(
                  "only version " + std::to_string(kOpLogFormatVersion)),
              std::string::npos)
        << replay.status().ToString();

    OpLog::Options options;
    options.fsync = false;
    auto opened = OpLog::Open(path, kSpecXml, kScheme, options);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().message(), replay.status().message());
    EXPECT_EQ(ReadAll(path), bytes);
    std::filesystem::remove(path);
  }
}

TEST(OpLogTest, ZeroLengthAndMissingFilesKeepTheirErrors) {
  const std::string path = FreshLogPath("oplog_zero_length");
  WriteAll(path, {});
  auto empty = OpLog::ReplayFile(path);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kParseError);
  EXPECT_EQ(empty.status().message(), "op-log truncated: missing file header");

  std::filesystem::remove(path);
  auto missing = OpLog::ReplayFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound)
      << missing.status().ToString();
}

TEST(OpLogTest, ReadFromServesLsnWindows) {
  const std::string path = FreshLogPath("oplog_readfrom");
  OpLog::Options options;
  options.fsync = false;
  auto log = OpLog::Open(path, kSpecXml, kScheme, options);
  ASSERT_TRUE(log.ok());
  std::vector<LogOp> appended;
  for (uint64_t i = 1; i <= 5; ++i) {
    appended.push_back(MakeAddOp(i, static_cast<uint8_t>(0x10 + i), 3 * i));
    auto lsn = (*log)->Append(appended.back());
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    appended.back().lsn = *lsn;
  }
  // All of it, a middle window, windows ending exactly at the last entry
  // or clamped to it, and the last entry alone.
  for (const auto& [after, max] : {std::pair<uint64_t, size_t>{0, 100},
                                   {2, 2}, {2, 3}, {2, 4}, {4, 1}, {0, 5}}) {
    SCOPED_TRACE("after " + std::to_string(after) + ", max " +
                 std::to_string(max));
    const std::vector<LogOp> window = ReadOk(**log, after, max);
    ASSERT_EQ(window.size(), std::min<size_t>(5 - after, max));
    for (size_t i = 0; i < window.size(); ++i) {
      EXPECT_EQ(window[i].lsn, after + i + 1);
      EXPECT_EQ(SerializeLogOp(window[i]), SerializeLogOp(appended[after + i]));
    }
  }
  EXPECT_TRUE(ReadOk(**log, 5, 10).empty());
  EXPECT_TRUE(ReadOk(**log, 50, 10).empty());
  EXPECT_TRUE(ReadOk(**log, 0, 0).empty());
  std::filesystem::remove(path);
}

TEST(OpLogTest, ReadFromAfterATornTailReopenReturnsWhatWasAppended) {
  // One op of every kind, each with its blob; then a crash mid-append.
  const std::string path = FreshLogPath("oplog_readfrom_torn");
  OpLog::Options options;
  options.fsync = false;
  std::vector<LogOp> appended;
  appended.push_back(MakeAddOp(1, 0xA1, 40));
  LogOp imported = MakeAddOp(2, 0xB2, 17);
  imported.kind = LogOp::Kind::kImportRun;
  imported.stats.imported = true;
  appended.push_back(imported);
  LogOp removed;
  removed.kind = LogOp::Kind::kRemoveRun;
  removed.run_id = 1;
  appended.push_back(removed);
  LogOp delta;
  delta.kind = LogOp::Kind::kSpecDelta;
  delta.stats.epoch = 2;
  delta.blob = {0x01, 0x02, 0x03};
  appended.push_back(delta);
  LogOp barrier;
  barrier.kind = LogOp::Kind::kSnapshotBarrier;
  const std::string snapshot = "/some/snapshot.skls";
  barrier.blob.assign(snapshot.begin(), snapshot.end());
  appended.push_back(barrier);
  {
    auto log = OpLog::Open(path, kSpecXml, kScheme, options);
    ASSERT_TRUE(log.ok());
    for (size_t i = 0; i < appended.size(); ++i) {
      auto lsn = (*log)->Append(appended[i]);
      ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
      appended[i].lsn = *lsn;
    }
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {0x00, 0x00, 0x01, 0x00, 0x7F, 0x01};
    out.write(torn, sizeof(torn));
  }
  auto reopened = OpLog::Open(path, kSpecXml, kScheme, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->last_lsn(), appended.size());
  // The reopened log serves LSNs 1..k from the file it replayed, then the
  // entries appended after the truncation.
  LogOp after = MakeAddOp(3, 0xC3, 9);
  ASSERT_TRUE((*reopened)->Append(after).ok());
  after.lsn = appended.size() + 1;
  appended.push_back(after);
  const std::vector<LogOp> all = ReadOk(**reopened, 0, 100);
  ASSERT_EQ(all.size(), appended.size());
  for (size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE("LSN " + std::to_string(i + 1));
    EXPECT_EQ(all[i].lsn, i + 1);
    EXPECT_EQ(all[i].kind, appended[i].kind);
    EXPECT_EQ(all[i].blob, appended[i].blob);
    EXPECT_EQ(SerializeLogOp(all[i]), SerializeLogOp(appended[i]));
  }
  std::filesystem::remove(path);
}

TEST(OpLogTest, ReadFromRefusesAnEntryDamagedAtRest) {
  // Reads come from the file: flipping one payload byte of entry 2 after
  // it was appended turns every window over it into a ParseError naming
  // LSN 2 — never a wrong op — while windows beside it are still served.
  const std::string path = FreshLogPath("oplog_readfrom_damaged");
  OpLog::Options options;
  options.fsync = false;
  auto log = OpLog::Open(path, kSpecXml, kScheme, options);
  ASSERT_TRUE(log.ok());
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE((*log)->Append(MakeAddOp(i, 0x33, 32)).ok());
  }
  auto replay = OpLog::ReplayFile(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->entry_offsets.size(), 4u);
  // Last byte of entry 2's blob: past its 8-byte frame prefix, inside the
  // CRC-covered payload.
  const uint64_t victim = replay->entry_offsets[2] - 1;
  testing_util::FlipByteAt(path, victim, 0x40);

  for (const auto& [after, max] :
       {std::pair<uint64_t, size_t>{0, 10}, {1, 1}, {1, 3}}) {
    SCOPED_TRACE("after " + std::to_string(after) + ", max " +
                 std::to_string(max));
    auto window = (*log)->ReadFrom(after, max);
    ASSERT_FALSE(window.ok()) << "a damaged entry was served";
    EXPECT_EQ(window.status().code(), StatusCode::kParseError);
    EXPECT_NE(window.status().message().find("cannot serve LSN 2"),
              std::string::npos)
        << window.status().ToString();
    EXPECT_NE(window.status().message().find("CRC-32"), std::string::npos)
        << window.status().ToString();
  }
  EXPECT_EQ(ReadOk(**log, 0, 1).size(), 1u);
  const std::vector<LogOp> past = ReadOk(**log, 2, 10);
  ASSERT_EQ(past.size(), 2u);
  EXPECT_EQ(past[0].lsn, 3u);
  std::filesystem::remove(path);
}

TEST(OpLogTest, ReadFromRacesAppendsWithoutTornWindows) {
  // ReadFrom reads the file outside the log mutex while Append writes:
  // every window a reader sees is a contiguous run of whole entries.
  const std::string path = FreshLogPath("oplog_readfrom_race");
  OpLog::Options options;
  options.fsync = false;
  auto log = OpLog::Open(path, kSpecXml, kScheme, options);
  ASSERT_TRUE(log.ok());
  constexpr uint64_t kEntries = 300;
  std::thread writer([&] {
    for (uint64_t i = 1; i <= kEntries; ++i) {
      auto lsn = (*log)->Append(
          MakeAddOp(i, static_cast<uint8_t>(i), static_cast<size_t>(i % 50)));
      SKL_CHECK_MSG(lsn.ok(), lsn.status().ToString().c_str());
    }
  });
  uint64_t seen = 0;
  bool whole = true;
  while (seen < kEntries && whole) {
    for (const LogOp& op : ReadOk(**log, seen, 7)) {
      whole = whole && op.lsn == seen + 1 && op.run_id == op.lsn &&
              op.blob == std::vector<uint8_t>(op.lsn % 50,
                                              static_cast<uint8_t>(op.lsn));
      ++seen;
    }
  }
  writer.join();
  EXPECT_TRUE(whole) << "window torn at or before LSN " << seen;
  std::filesystem::remove(path);
}

TEST(OpLogTest, DeserializeRejectsMalformedEntries) {
  LogOp op = MakeAddOp(7, 0x5A, 6);
  op.lsn = 1;  // Append assigns this in real use; 0 is invalid on the wire
  const std::vector<uint8_t> good = SerializeLogOp(op);
  {
    auto decoded = DeserializeLogOp(good);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->run_id, 7u);
  }
  // Empty payload.
  EXPECT_FALSE(DeserializeLogOp(std::vector<uint8_t>{}).ok());
  // Every strict prefix is a truncation, never a partial decode.
  for (size_t len = 0; len < good.size(); ++len) {
    auto r = DeserializeLogOp(std::vector<uint8_t>(good.begin(),
                                                   good.begin() + len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is a shape mismatch.
  std::vector<uint8_t> padded = good;
  padded.push_back(0x00);
  auto r = DeserializeLogOp(padded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// -------------------------------------------------------- corruption fuzz --

/// Shared checker: a (possibly damaged) file must replay to a valid strict
/// prefix — contiguous LSNs from 1 — and must say why it stopped early.
void ExpectSanePartialReplay(const std::string& path, size_t file_len,
                             const char* what) {
  auto replay = OpLog::ReplayFile(path);
  if (!replay.ok()) {
    // Header-level damage: the whole file is rejected, descriptively.
    EXPECT_EQ(replay.status().code(), StatusCode::kParseError)
        << what << ": " << replay.status().ToString();
    EXPECT_FALSE(replay.status().message().empty()) << what;
    return;
  }
  EXPECT_LE(replay->ops.size(), 3u) << what;
  EXPECT_EQ(replay->last_lsn, replay->ops.size()) << what;
  for (size_t i = 0; i < replay->ops.size(); ++i) {
    EXPECT_EQ(replay->ops[i].lsn, i + 1) << what;
  }
  EXPECT_LE(replay->valid_bytes, file_len) << what;
  if (replay->tail.ok()) {
    // A clean tail means the file ends exactly after the last valid
    // entry — nothing was skipped.
    EXPECT_EQ(replay->valid_bytes, file_len) << what;
  } else {
    EXPECT_EQ(replay->tail.code(), StatusCode::kParseError)
        << what << ": " << replay->tail.ToString();
    EXPECT_FALSE(replay->tail.message().empty()) << what;
  }
}

TEST(OpLogFuzzTest, TruncationAtEveryByteStopsAtTheLastValidLsn) {
  const std::string path = BuildThreeEntryLog("oplog_trunc_src");
  const std::vector<uint8_t> wire = ReadAll(path);
  ASSERT_GT(wire.size(), 0u);
  const std::string scratch = FreshLogPath("oplog_trunc_scratch");
  size_t full_replays = 0;
  for (size_t len = 0; len < wire.size(); ++len) {
    SCOPED_TRACE("prefix of " + std::to_string(len) + " bytes");
    WriteAll(scratch,
             std::vector<uint8_t>(wire.begin(), wire.begin() + len));
    ExpectSanePartialReplay(scratch, len, "truncation");
    auto replay = OpLog::ReplayFile(scratch);
    if (replay.ok() && replay->ops.size() == 3) ++full_replays;
  }
  // No strict prefix may replay all three entries: the last one is
  // incomplete by construction.
  EXPECT_EQ(full_replays, 0u);
  std::filesystem::remove(path);
  std::filesystem::remove(scratch);
}

TEST(OpLogFuzzTest, BitFlipAtEveryByteNeverSkipsOrCrashes) {
  const std::string path = BuildThreeEntryLog("oplog_flip_src");
  const std::vector<uint8_t> wire = ReadAll(path);
  const std::string scratch = FreshLogPath("oplog_flip_scratch");
  for (size_t i = 0; i < wire.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
      SCOPED_TRACE("byte " + std::to_string(i) + " ^ " +
                   std::to_string(int(flip)));
      std::vector<uint8_t> corrupted = wire;
      corrupted[i] ^= flip;
      WriteAll(scratch, corrupted);
      ExpectSanePartialReplay(scratch, corrupted.size(), "bit flip");
      // A flip anywhere damages the header or exactly one entry: a full
      // undamaged replay of all 3 ops with a clean tail is impossible
      // (the frame CRC detects every single-byte flip in a payload; a
      // flipped length or CRC field breaks its own frame).
      auto replay = OpLog::ReplayFile(scratch);
      if (replay.ok()) {
        EXPECT_FALSE(replay->ops.size() == 3 && replay->tail.ok())
            << "flip decoded as an undamaged file";
      }
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove(scratch);
}

TEST(OpLogTest, OpenTruncatesATornTailAndContinues) {
  const std::string path = BuildThreeEntryLog("oplog_torn");
  // Simulate a crash mid-append: half a frame of garbage at the end.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {0x00, 0x00, 0x00, 0x30, 0x12};
    out.write(torn, sizeof(torn));
  }
  const auto damaged_size = std::filesystem::file_size(path);
  OpLog::Options options;
  options.fsync = false;
  auto reopened = OpLog::Open(path, kSpecXml, kScheme, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->last_lsn(), 3u);
  EXPECT_LT(std::filesystem::file_size(path), damaged_size);
  auto lsn = (*reopened)->Append(MakeAddOp(9, 0xEE, 4));
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, 4u);
  auto replay = OpLog::ReplayFile(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->tail.ok());
  EXPECT_EQ(replay->last_lsn, 4u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace skl
