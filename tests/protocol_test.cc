// Wire-protocol robustness: frame round trips, incremental decoding, and —
// mirroring snapshot_test.cc's fuzz style — byte-exhaustive truncation and
// corruption over encoded frames. Every malformed input must come back as a
// descriptive ParseError (or "incomplete, feed more"), never a decoded
// frame and never a crash; the CRC makes a single flipped byte detectable
// at every position.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/replication/oplog.h"
#include "src/workflow/spec_delta.h"
#include "src/workload/data_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

Frame MakeReachesFrame(uint64_t request_id) {
  Frame frame;
  frame.type = MsgType::kReaches;
  frame.request_id = request_id;
  PayloadWriter payload;
  payload.U64(7);   // run id
  payload.U64(3);   // v
  payload.U64(12);  // w
  frame.payload = std::move(payload).Finish();
  return frame;
}

std::vector<uint8_t> Encode(const Frame& frame) {
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  return bytes;
}

void ExpectFramesEqual(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(ProtocolTest, FrameRoundTrips) {
  for (const Frame& frame :
       {MakeReachesFrame(1), MakeReachesFrame(UINT64_MAX),
        Frame{kProtocolVersion, MsgType::kPing, 0, {}},
        Frame{kProtocolVersion, MsgType::kImportRun, 42,
              std::vector<uint8_t>(100000, 0xAB)}}) {
    FrameDecoder decoder;
    decoder.Feed(Encode(frame));
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next->has_value());
    ExpectFramesEqual(**next, frame);
    // Exactly one frame; the stream is fully consumed.
    auto empty = decoder.Next();
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(empty->has_value());
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(ProtocolTest, DecodesManyFramesFedByteByByte) {
  std::vector<uint8_t> wire;
  for (uint64_t id = 1; id <= 3; ++id) {
    EncodeFrame(MakeReachesFrame(id), &wire);
  }
  FrameDecoder decoder;
  uint64_t decoded = 0;
  for (uint8_t byte : wire) {
    decoder.Feed({&byte, 1});
    for (;;) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      ++decoded;
      EXPECT_EQ((*next)->request_id, decoded);
      ExpectFramesEqual(**next, MakeReachesFrame(decoded));
    }
  }
  EXPECT_EQ(decoded, 3u);
}

TEST(ProtocolTest, TruncationAtEveryPrefixIsIncompleteNotError) {
  const std::vector<uint8_t> wire = Encode(MakeReachesFrame(9));
  for (size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed({wire.data(), len});
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok()) << "prefix of " << len << " bytes: "
                           << next.status().ToString();
    EXPECT_FALSE(next->has_value()) << "prefix of " << len << " bytes";
    // Feeding the remainder completes the frame: truncation was benign.
    decoder.Feed({wire.data() + len, wire.size() - len});
    auto completed = decoder.Next();
    ASSERT_TRUE(completed.ok());
    ASSERT_TRUE(completed->has_value());
    ExpectFramesEqual(**completed, MakeReachesFrame(9));
  }
}

TEST(ProtocolTest, CorruptionAtEveryByteNeverYieldsAFrame) {
  const Frame original = MakeReachesFrame(5);
  const std::vector<uint8_t> wire = Encode(original);
  // A valid Ping follows the corrupted frame, as it would on a pipelined
  // connection; it must never be misparsed as part of the damage.
  std::vector<uint8_t> tail;
  EncodeFrame(Frame{kProtocolVersion, MsgType::kPing, 6, {}}, &tail);

  for (size_t i = 0; i < wire.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
      std::vector<uint8_t> corrupted = wire;
      corrupted[i] ^= flip;
      FrameDecoder decoder;
      decoder.Feed(corrupted);
      decoder.Feed(tail);
      auto next = decoder.Next();
      if (next.ok()) {
        // The corruption may leave the stream incomplete (e.g. an inflated
        // length prefix) — but it must never decode into a frame.
        EXPECT_FALSE(next->has_value())
            << "byte " << i << " ^ " << int(flip) << " decoded a frame";
      } else {
        EXPECT_EQ(next.status().code(), StatusCode::kParseError);
        EXPECT_FALSE(next.status().message().empty());
        // Poisoned: the error is sticky, the tail is not resynced into.
        EXPECT_TRUE(decoder.poisoned());
        auto again = decoder.Next();
        EXPECT_FALSE(again.ok());
      }
    }
  }
}

TEST(ProtocolTest, OversizedLengthPrefixIsBoundedNotAllocated) {
  // Header claiming a ~4GB body: must fail fast on the configured ceiling,
  // not wait for (or allocate) gigabytes.
  std::vector<uint8_t> wire = Encode(MakeReachesFrame(1));
  wire[2] = 0xFF;  // big-endian body_len high byte
  FrameDecoder decoder(/*max_frame_bytes=*/1 << 20);
  decoder.Feed(wire);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kParseError);
  EXPECT_NE(next.status().message().find("exceeds the maximum"),
            std::string::npos)
      << next.status().ToString();
}

TEST(ProtocolTest, UnsupportedVersionDecodesForTheDispatcherToReject) {
  // A CRC-intact frame of a future protocol version is not line noise: the
  // decoder hands it over so the server can answer a descriptive error.
  Frame future = MakeReachesFrame(2);
  future.version = kProtocolVersion + 3;
  FrameDecoder decoder;
  decoder.Feed(Encode(future));
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->version, kProtocolVersion + 3);
}

TEST(ProtocolTest, PayloadReaderRejectsTruncationAndTrailingBytes) {
  PayloadWriter writer;
  writer.U64(300);
  writer.Boolean(true);
  writer.Str("hello");
  const std::vector<uint8_t> payload = std::move(writer).Finish();

  {
    PayloadReader reader(payload);
    ASSERT_TRUE(reader.U64().ok());
    ASSERT_TRUE(reader.Boolean().ok());
    auto s = reader.Str();
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, "hello");
    EXPECT_TRUE(reader.ExpectEnd().ok());
  }
  {
    // Stopping early is a shape mismatch.
    PayloadReader reader(payload);
    ASSERT_TRUE(reader.U64().ok());
    Status end = reader.ExpectEnd();
    ASSERT_FALSE(end.ok());
    EXPECT_EQ(end.code(), StatusCode::kParseError);
    EXPECT_NE(end.message().find("trailing"), std::string::npos);
  }
  {
    // Reading past the end fails instead of fabricating values.
    PayloadReader reader(payload);
    ASSERT_TRUE(reader.U64().ok());
    ASSERT_TRUE(reader.Boolean().ok());
    ASSERT_TRUE(reader.Str().ok());
    EXPECT_FALSE(reader.U64().ok());
  }
  {
    // A blob length pointing past the payload is caught by the read.
    PayloadWriter w;
    w.U64(1000);  // as a Bytes() length this overruns
    const std::vector<uint8_t> bad = std::move(w).Finish();
    PayloadReader reader(bad);
    EXPECT_FALSE(reader.Bytes().ok());
  }
}

TEST(ProtocolTest, BoolListCodecMatchesOneBooleanPerElement) {
  // The vector<bool> codec writes and reads the bytes a count varint plus
  // one Boolean per element would, including across 64-answer words.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (size_t n : {0, 1, 7, 8, 63, 64, 65, 200, 1025}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<bool> values(n);
    PayloadWriter reference;
    reference.U64(n);
    for (size_t i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      values[i] = (state >> 61) & 1;
      reference.Boolean(values[i]);
    }
    const std::vector<uint8_t> expected = std::move(reference).Finish();
    PayloadWriter writer;
    PutField(writer, values);
    const std::vector<uint8_t> payload = std::move(writer).Finish();
    EXPECT_EQ(payload, expected);
    std::vector<bool> decoded = {true};
    ASSERT_TRUE(
        DecodeMessage(payload, StatusCode::kParseError, decoded).ok());
    EXPECT_EQ(decoded, values);
  }
  // Malformed lists fail as the same sequence of Boolean reads would: on
  // the first byte other than 0/1, else on the missing bytes.
  const auto decode_error = [](std::vector<uint8_t> payload) {
    std::vector<bool> decoded;
    return DecodeMessage(payload, StatusCode::kParseError, decoded);
  };
  const Status short_list = decode_error({3, 1, 0});
  EXPECT_EQ(short_list.code(), StatusCode::kParseError);
  EXPECT_EQ(short_list.message(), "payload truncated before a boolean");
  const Status bad_byte = decode_error({3, 1, 7, 0});
  EXPECT_EQ(bad_byte.code(), StatusCode::kParseError);
  EXPECT_EQ(bad_byte.message(), "boolean field holds 7");
  EXPECT_EQ(decode_error({4, 0, 1, 9}).message(), "boolean field holds 9");
  EXPECT_EQ(decode_error({2, 255, 2}).message(), "boolean field holds 255");
  EXPECT_EQ(decode_error({1, 0, 0}).message(), "payload has 1 trailing bytes");
}

TEST(ProtocolTest, ErrorPayloadRoundTripsEveryCode) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kInvalidSpecification,
        StatusCode::kInvalidRun, StatusCode::kNotFound,
        StatusCode::kParseError, StatusCode::kCapacityExceeded,
        StatusCode::kInternal, StatusCode::kCancelled,
        StatusCode::kUnavailable, StatusCode::kRetryAt}) {
    const Status original(code, std::string("message for ") +
                                    StatusCodeName(code));
    uint64_t trace = 0;
    Status decoded =
        DecodeErrorPayload(EncodeErrorPayload(original, 91), &trace);
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
    EXPECT_EQ(trace, 91u);
  }
}

TEST(ProtocolTest, UnknownErrorCodeMapsToInternalKeepingTheMessage) {
  PayloadWriter writer;
  writer.U64(200);  // a code from the future
  writer.Str("future failure");
  writer.U64(0);  // trace id
  Status decoded = DecodeErrorPayload(std::move(writer).Finish());
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
  EXPECT_NE(decoded.message().find("future failure"), std::string::npos);
}

TEST(ProtocolTest, MalformedErrorPayloadIsAParseError) {
  Status decoded = DecodeErrorPayload(std::vector<uint8_t>{0x01});
  EXPECT_EQ(decoded.code(), StatusCode::kParseError);
  EXPECT_NE(decoded.message().find("malformed error payload"),
            std::string::npos);
  // A payload without the trailing trace id is malformed too.
  PayloadWriter writer;
  writer.U64(static_cast<uint64_t>(StatusCode::kNotFound));
  writer.Str("no trace");
  uint64_t trace = 7;
  decoded = DecodeErrorPayload(std::move(writer).Finish(), &trace);
  EXPECT_EQ(decoded.code(), StatusCode::kParseError);
  EXPECT_EQ(trace, 0u);
}

TEST(ProtocolTest, OpcodeTableHasOneNamedRowPerOpcode) {
  std::set<std::string> names;
  int previous = -1;
  for (const OpcodeInfo& row : OpcodeTable()) {
    const uint8_t op = static_cast<uint8_t>(row.type);
    SCOPED_TRACE(row.name);
    EXPECT_GT(op, previous) << "rows must be in MsgType value order";
    previous = op;
    EXPECT_EQ(FindOpcode(op), &row);
    EXPECT_STREQ(MsgTypeName(row.type), row.name);
    EXPECT_STRNE(row.name, "Unknown");
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate name";
    // Only requests mutate or name a run; only run-naming reads run on an
    // I/O thread.
    if (!row.is_request) EXPECT_FALSE(row.mutates || row.names_run);
    if (row.runs_inline) EXPECT_TRUE(row.names_run && !row.mutates);
    // Only requests have trailers, a lock mode or a reply; a token-checked
    // read is retried and never mutates; only mutations ack an LSN.
    if (!row.is_request) {
      EXPECT_FALSE(row.read_token || row.retried || row.exclusive ||
                   row.acks_lsn);
    } else {
      EXPECT_TRUE(row.reply == MsgType::kReply ||
                  row.reply == MsgType::kLogEntries);
    }
    if (row.read_token) EXPECT_TRUE(row.retried && !row.mutates);
    if (row.acks_lsn || row.exclusive) EXPECT_TRUE(row.mutates);
    if (row.retried) EXPECT_FALSE(row.mutates);
  }
  // Every byte value finds the row of that opcode, or none.
  size_t found = 0;
  for (int op = 0; op < 256; ++op) {
    SCOPED_TRACE(op);
    const OpcodeInfo* row = FindOpcode(static_cast<uint8_t>(op));
    const auto it = std::find_if(
        OpcodeTable().begin(), OpcodeTable().end(), [&](const OpcodeInfo& r) {
          return static_cast<uint8_t>(r.type) == op;
        });
    if (it == OpcodeTable().end()) {
      EXPECT_EQ(row, nullptr);
      EXPECT_STREQ(MsgTypeName(static_cast<MsgType>(op)), "Unknown");
    } else {
      EXPECT_EQ(row, &*it);
      ++found;
    }
  }
  EXPECT_EQ(found, OpcodeTable().size());
  // The reads costing one label compare a pair, and nothing else, are
  // answered inline.
  std::set<std::string> inline_rows;
  for (const OpcodeInfo& row : OpcodeTable()) {
    if (row.runs_inline) inline_rows.insert(row.name);
  }
  EXPECT_EQ(inline_rows,
            (std::set<std::string>{"Reaches", "ReachesBatch",
                                   "DataDependsOnModule"}));
  // Only a snapshot load replaces the service under the exclusive lock.
  for (const OpcodeInfo& row : OpcodeTable()) {
    EXPECT_EQ(row.exclusive, row.type == MsgType::kLoadSnapshot) << row.name;
  }
}

// ----------------------------------------------------------- golden bytes --
// The exact wire bytes of representative frames. A codec rewrite must leave
// every one of them unchanged; a change here is a protocol change and needs
// a kProtocolVersion bump.

std::string Hex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

Frame FieldsFrame(MsgType type, uint64_t request_id,
                  std::initializer_list<uint64_t> fields) {
  PayloadWriter payload;
  for (uint64_t field : fields) payload.U64(field);
  return Frame{kProtocolVersion, type, request_id,
               std::move(payload).Finish()};
}

/// A kReply to a ReachesBatch: the answer count, then one boolean each.
Frame BatchReplyFrame(uint64_t request_id, const std::vector<bool>& answers) {
  PayloadWriter payload;
  payload.U64(answers.size());
  for (bool answer : answers) payload.Boolean(answer);
  return Frame{kProtocolVersion, MsgType::kReply, request_id,
               std::move(payload).Finish()};
}

TEST(ProtocolTest, GoldenWireBytes) {
  // Reaches {run 7, v 3, w 12, min-LSN 0, trace 0}.
  EXPECT_EQ(Hex(Encode(FieldsFrame(MsgType::kReaches, 1, {7, 3, 12, 0, 0}))),
            "534e0000000856019ef806020107030c0000");
  // The same request with multi-byte varints in every field.
  EXPECT_EQ(Hex(Encode(FieldsFrame(
                MsgType::kReaches, 70000,
                {20000, 16384, (1u << 21) + 5, uint64_t{1} << 35,
                 0xDEADBEEF}))),
            "534e0000001ae880da0b0602f0a204a09c01808001858080018080808080"
            "01effdb6f50d");
  // ReachesBatch {run 1, 3 pairs, min-LSN 0, trace 9} and its reply.
  EXPECT_EQ(Hex(Encode(FieldsFrame(MsgType::kReachesBatch, 2,
                                   {1, 3, 0, 1, 2, 300, 1, 0, 0, 9}))),
            "534e0000000edc7ae8600603020103000102ac0201000009");
  EXPECT_EQ(Hex(Encode(BatchReplyFrame(2, {true, false, true}))),
            "534e00000007ef54460706400203010001");
  // kError {NotFound, message, trace 42} and kRetryAt {applied LSN 17}.
  EXPECT_EQ(Hex(Encode(Frame{kProtocolVersion, MsgType::kError, 3,
                             EncodeErrorPayload(
                                 Status::NotFound("Reaches: no run 999"),
                                 42)})),
            "534e00000019a5b295330641030413526561636865733a206e6f2072756e"
            "203939392a");
  EXPECT_EQ(Hex(Encode(FieldsFrame(MsgType::kRetryAt, 4, {17}))),
            "534e00000004782f56af06430411");
  // The longest request id: a ten-byte varint.
  EXPECT_EQ(Hex(Encode(FieldsFrame(MsgType::kRetryAt, UINT64_MAX, {0}))),
            "534e0000000db90497610643ffffffffffffffffff0100");
}

TEST(ProtocolTest, LiveServerRepliesWithTheEncodersBytes) {
  // The server builds its replies in place rather than through
  // EncodeFrame; the bytes it sends must be exactly EncodeFrame's.
  testing_util::RunningExample ex = testing_util::MakeRunningExample();
  auto service = ProvenanceService::Create(ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto id = service->AddRun(ex.run);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const std::vector<VertexPair> pairs = {
      {ex.rv("a1"), ex.rv("d1")}, {ex.rv("d1"), ex.rv("a1")},
      {ex.rv("b1"), ex.rv("g1")}};
  auto direct = service->ReachesBatch(*id, pairs);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto server = ProvenanceServer::Start(std::move(service).value(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::vector<uint64_t> batch = {id->value(), pairs.size()};
  for (const VertexPair& p : pairs) {
    batch.push_back(p.first);
    batch.push_back(p.second);
  }
  batch.push_back(0);  // min-LSN
  batch.push_back(5);  // trace id
  PayloadWriter batch_payload;
  for (uint64_t field : batch) batch_payload.U64(field);
  std::vector<uint8_t> wire;
  EncodeFrame(Frame{kProtocolVersion, MsgType::kReachesBatch, 1,
                    std::move(batch_payload).Finish()},
              &wire);
  // A server without an op-log has applied LSN 0, so a min-LSN token of 1
  // bounces as kRetryAt {0}.
  EncodeFrame(FieldsFrame(MsgType::kReaches, 2, {id->value(), 0, 0, 1, 0}),
              &wire);
  // An unknown run: kError.
  EncodeFrame(FieldsFrame(MsgType::kReaches, 3, {999, 0, 0, 0, 6}), &wire);
  // A mutation, answered by the worker pool rather than the I/O thread.
  EncodeFrame(FieldsFrame(MsgType::kRemoveRun, 4, {999, 7}), &wire);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ::shutdown(fd, SHUT_WR);
  std::vector<uint8_t> received;
  uint8_t buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    received.insert(received.end(), buf, buf + n);
  }
  ::close(fd);
  (*server)->Shutdown();

  // Split the stream at frame boundaries; re-encoding each decoded frame
  // must give back exactly the bytes the server sent.
  std::vector<std::vector<uint8_t>> replies;
  FrameDecoder decoder;
  decoder.Feed(received);
  size_t offset = 0;
  for (;;) {
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) break;
    const std::vector<uint8_t> bytes = Encode(**next);
    ASSERT_LE(offset + bytes.size(), received.size());
    EXPECT_EQ(Hex(bytes), Hex(std::span<const uint8_t>(received).subspan(
                              offset, bytes.size())));
    offset += bytes.size();
    replies.push_back(bytes);
  }
  EXPECT_EQ(offset, received.size());
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(Hex(replies[0]), Hex(Encode(BatchReplyFrame(1, *direct))));
  EXPECT_EQ(Hex(replies[1]),
            Hex(Encode(FieldsFrame(MsgType::kRetryAt, 2, {0}))));
  uint64_t trace = 0;
  FrameDecoder one;
  one.Feed(replies[2]);
  auto error = one.Next();
  ASSERT_TRUE(error.ok() && error->has_value());
  EXPECT_EQ((*error)->type, MsgType::kError);
  EXPECT_EQ(DecodeErrorPayload((*error)->payload, &trace).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(trace, 6u);
}

// --------------------------------------------------- per-opcode pins --
// The exact bytes of every request the client sends and of every reply the
// live server sends, one pin per request opcode. A table-driven codec must
// leave each of them unchanged.

/// Connects a raw TCP socket to 127.0.0.1:`port`.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads from `fd` until `decoder` holds one more complete frame; returns
/// that frame's raw bytes (empty when the peer closed first).
std::vector<uint8_t> ReadOneFrame(int fd, FrameDecoder& decoder,
                                  std::vector<uint8_t>& stream,
                                  size_t& consumed, Frame* frame) {
  uint8_t buf[4096];
  for (;;) {
    const size_t before = decoder.buffered_bytes();
    auto next = decoder.Next();
    if (!next.ok()) return {};
    if (next->has_value()) {
      const size_t length = before - decoder.buffered_bytes();
      std::vector<uint8_t> bytes(stream.begin() + consumed,
                                 stream.begin() + consumed + length);
      consumed += length;
      *frame = std::move(**next);
      return bytes;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return {};
    stream.insert(stream.end(), buf, buf + n);
    decoder.Feed({buf, static_cast<size_t>(n)});
  }
}

/// A reply a scripted peer sends back: its type and payload.
struct ScriptedReply {
  MsgType type = MsgType::kReply;
  std::vector<uint8_t> payload;
};

ScriptedReply Reply(std::initializer_list<uint64_t> fields) {
  return {MsgType::kReply, FieldsFrame(MsgType::kReply, 0, fields).payload};
}

ScriptedReply BoolsReply(std::initializer_list<bool> answers, bool counted) {
  PayloadWriter payload;
  if (counted) payload.U64(answers.size());
  for (bool answer : answers) payload.Boolean(answer);
  return {MsgType::kReply, std::move(payload).Finish()};
}

/// A raw loopback listener standing in for the server: it accepts one
/// connection, records each request frame byte for byte and answers it
/// with the next scripted reply.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::vector<ScriptedReply> replies)
      : replies_(std::move(replies)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    SKL_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0);
    SKL_CHECK(::listen(listen_fd_, 1) == 0);
    SKL_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len) == 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~ScriptedPeer() { Join(); }

  uint16_t port() const { return port_; }

  /// Waits for the peer to finish; returns the hex of each request.
  std::vector<std::string> Join() {
    if (thread_.joinable()) {
      ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks an accept never met
      thread_.join();
      ::close(listen_fd_);
    }
    return requests_;
  }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    FrameDecoder decoder;
    std::vector<uint8_t> stream;
    size_t consumed = 0;
    for (const ScriptedReply& reply : replies_) {
      Frame frame;
      const std::vector<uint8_t> bytes =
          ReadOneFrame(fd, decoder, stream, consumed, &frame);
      if (bytes.empty()) break;
      requests_.push_back(Hex(bytes));
      const std::vector<uint8_t> out = Encode(Frame{
          kProtocolVersion, reply.type, frame.request_id, reply.payload});
      if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) break;
    }
    ::close(fd);
  }

  std::vector<ScriptedReply> replies_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::string> requests_;
  std::thread thread_;
};

TEST(ProtocolTest, ClientSendsPinnedRequestBytesForEveryOpcode) {
  LogOp op;
  op.kind = LogOp::Kind::kRemoveRun;
  op.lsn = 4;
  op.run_id = 7;
  PayloadWriter entries;
  entries.U64(1);
  entries.Bytes(SerializeLogOp(op));
  entries.U64(20);
  PayloadWriter snapshot;
  snapshot.U64(15);
  snapshot.Bytes(std::vector<uint8_t>{1, 2, 3, 4});
  PayloadWriter export_blob;
  export_blob.Bytes(std::vector<uint8_t>{9, 9});
  PayloadWriter metrics;
  metrics.Str("m 1\n");
  PayloadWriter run_stats;
  for (uint64_t field : {16, 3, 20, 5, 6, 2}) run_stats.U64(field);
  run_stats.Boolean(true);
  const std::vector<ScriptedReply> replies = {
      Reply({}),                                        // Ping
      BoolsReply({true}, false),                        // Reaches
      BoolsReply({true, false}, true),                  // ReachesBatch
      BoolsReply({false}, false),                       // DependsOn
      BoolsReply({true}, true),                         // DependsOnBatch
      BoolsReply({true}, false),                        // ModuleDependsOnData
      BoolsReply({false}, false),                       // DataDependsOnModule
      Reply({7, 11}),                                   // AddRun
      Reply({8, 12}),                                   // ImportRun
      {MsgType::kReply, std::move(export_blob).Finish()},  // ExportRun
      Reply({13}),                                      // RemoveRun
      Reply({2, 7, 9}),                                 // ListRuns
      {MsgType::kReply, std::move(run_stats).Finish()},  // RunStats
      Reply({1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
             12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22}),  // ServiceStats
      Reply({2, 14}),                                   // ApplySpecDelta
      Reply({}),                                        // SaveSnapshot
      Reply({}),                                        // LoadSnapshot
      {MsgType::kReply, std::move(snapshot).Finish()},  // SnapshotFetch
      {MsgType::kLogEntries, std::move(entries).Finish()},  // Subscribe
      {MsgType::kReply, std::move(metrics).Finish()},   // Metrics
      Reply({1, 42, 2, 7, 3, 100, 200}),                // SlowQueries
      Reply({}),                                        // Shutdown
      BoolsReply({true}, false),   // ReachesPipelined, pair 1
      BoolsReply({false}, false),  // ReachesPipelined, pair 2
      BoolsReply({true}, false),   // DependsOnPipelined
  };
  ScriptedPeer peer(replies);
  {
    auto client = ProvenanceClient::Connect("127.0.0.1", peer.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client->set_trace_id(0x2A);
    client->SetReadLsn(5);
    const RunId run = RunId::FromValue(7);
    EXPECT_TRUE(client->Ping().ok());
    EXPECT_EQ(*client->Reaches(run, 3, 300), true);
    const std::vector<VertexPair> pairs = {{1, 2}, {3, 4}};
    EXPECT_EQ(*client->ReachesBatch(run, pairs),
              (std::vector<bool>{true, false}));
    EXPECT_EQ(*client->DependsOn(run, 5, 6), false);
    const std::vector<ItemPair> items = {{5, 6}};
    EXPECT_EQ(*client->DependsOnBatch(run, items), std::vector<bool>{true});
    EXPECT_EQ(*client->ModuleDependsOnData(run, 1, 2), true);
    EXPECT_EQ(*client->DataDependsOnModule(run, 2, 1), false);
    EXPECT_EQ(client->AddRunXml("<run/>")->value(), 7u);
    EXPECT_EQ(client->ImportRun({1, 2, 3})->value(), 8u);
    EXPECT_EQ(*client->ExportRun(run), (std::vector<uint8_t>{9, 9}));
    EXPECT_TRUE(client->RemoveRun(RunId::FromValue(8)).ok());
    auto runs = client->ListRuns();
    ASSERT_TRUE(runs.ok()) << runs.status().ToString();
    ASSERT_EQ(runs->size(), 2u);
    EXPECT_EQ((*runs)[1].value(), 9u);
    auto stats = client->Stats(run);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->num_vertices, 16u);
    EXPECT_EQ(stats->num_nonempty_plus, 2u);
    EXPECT_TRUE(stats->imported);
    auto service_stats = client->GetServiceStats();
    ASSERT_TRUE(service_stats.ok()) << service_stats.status().ToString();
    EXPECT_EQ(service_stats->num_runs, 1u);
    EXPECT_EQ(service_stats->epoll_wakeups, 20u);
    EXPECT_EQ(service_stats->spec_epoch, 22u);
    SpecDelta delta;
    delta.kind = SpecDelta::Kind::kAddModule;
    delta.module = "z";
    delta.from = {"h"};
    EXPECT_EQ(*client->ApplySpecDelta(delta), 2u);
    EXPECT_EQ(client->last_write_lsn(), 14u);
    EXPECT_TRUE(client->SaveSnapshot("/s.skls").ok());
    EXPECT_TRUE(client->LoadSnapshot("/s.skls").ok());
    auto fetched = client->SnapshotFetch();
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(fetched->lsn, 15u);
    EXPECT_EQ(fetched->bytes, (std::vector<uint8_t>{1, 2, 3, 4}));
    auto batch = client->Subscribe(3, 10);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->ops.size(), 1u);
    EXPECT_EQ(batch->ops[0].run_id, 7u);
    EXPECT_EQ(batch->primary_last_lsn, 20u);
    EXPECT_EQ(*client->GetMetrics(), "m 1\n");
    auto slow = client->SlowQueries();
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    ASSERT_EQ(slow->size(), 1u);
    EXPECT_EQ((*slow)[0].trace_id, 42u);
    EXPECT_EQ((*slow)[0].opcode, 2u);
    EXPECT_EQ((*slow)[0].exec_us, 200u);
    EXPECT_TRUE(client->Shutdown().ok());
    EXPECT_EQ(*client->ReachesPipelined(run, pairs),
              (std::vector<bool>{true, false}));
    EXPECT_EQ(*client->DependsOnPipelined(run, items),
              std::vector<bool>{true});
    EXPECT_EQ(client->last_write_lsn(), 14u);
  }
  const std::vector<std::string> requests = peer.Join();

  // Request id, then each request's fields; reads end {read LSN 5, trace
  // 0x2a}, everything else {trace 0x2a}.
  const std::vector<std::string> expected = {
      "534e00000004c74d12600601012a",  // Ping
      "534e00000009b8f97e580602020703ac02052a",  // Reaches
      "534e0000000bce3e5e3d060303070201020304052a",  // ReachesBatch
      "534e00000008eb2cdde8060404070506052a",  // DependsOn
      "534e000000093a31e4fc06050507010506052a",  // DependsOnBatch
      "534e00000008b9105241060606070102052a",  // ModuleDependsOnData
      "534e00000008c4c89be7060707070201052a",  // DataDependsOnModule
      "534e0000000b87dfcfd1060808063c72756e2f3e2a",  // AddRun
      "534e000000081dd4913b060909030102032a",  // ImportRun
      "534e00000006e115916d060a0a07052a",  // ExportRun
      "534e0000000581542983060b0b082a",  // RemoveRun
      "534e00000005ac6279f2060c0c052a",  // ListRuns
      "534e00000006cee275c4060d0d07052a",  // RunStats
      "534e000000044b894992060e0e2a",  // ServiceStats
      "534e0000000c9f06635506160f0701017a010168002a",  // ApplySpecDelta
      "534e0000000c489e9ed8060f10072f732e736b6c732a",  // SaveSnapshot
      "534e0000000c9a52c5eb061011072f732e736b6c732a",  // LoadSnapshot
      "534e00000004b8c24edb0612122a",  // SnapshotFetch
      "534e000000062165c898061313030a2a",  // Subscribe
      "534e00000004ea1595ef0614142a",  // Metrics
      "534e00000004f2ccce990615152a",  // SlowQueries
      "534e00000004dee835860611162a",  // Shutdown
      "534e0000000885d5a76c060217070102052a",  // ReachesPipelined
      "534e00000008da07a180060218070304052a",  // ReachesPipelined
      "534e000000085464ccad060419070506052a",  // DependsOnPipelined
  };
  ASSERT_EQ(requests.size(), replies.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(requests[i], expected[i]);
  }
}

TEST(ProtocolTest, LiveServerRepliesWithPinnedBytesForEveryOpcode) {
  // The running example, with a data catalog, served by TCM with an op-log:
  // every request opcode once, in sequence on one connection, each
  // request's fields written out by hand. Replies are pinned byte for byte,
  // except where a field is not a function of the requests: ServiceStats'
  // epoll wake-up count (zeroed before the compare) and the Metrics text
  // (only its shape is checked). Replies longer than 64 bytes are pinned by
  // their frame header, whose CRC covers every body byte.
  testing_util::RunningExample ex = testing_util::MakeRunningExample();
  DataGenOptions data_options;
  data_options.seed = 5;
  const DataCatalog catalog = GenerateDataCatalog(ex.run, data_options);
  auto service = ProvenanceService::Create(ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(service->AddRun(ex.run, &catalog).ok());
  const std::string log_path =
      PidQualifiedTempPath("skl_protocol_test_pins", ".skllog");
  const std::string snap_path =
      PidQualifiedTempPath("skl_protocol_test_pins", ".skls");
  std::remove(log_path.c_str());
  OpLog::Options log_options;
  log_options.fsync = false;
  auto oplog = OpLog::Open(log_path, WriteSpecificationXml(ex.spec), "tcm",
                           log_options);
  ASSERT_TRUE(oplog.ok()) << oplog.status().ToString();
  ProvenanceServer::Options options;
  options.oplog = oplog->get();
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int fd = ConnectLoopback((*server)->port());
  ASSERT_GE(fd, 0);

  FrameDecoder decoder;
  std::vector<uint8_t> stream;
  size_t consumed = 0;
  uint64_t request_id = 0;
  // Sends one request built from `payload` and returns the reply's pin.
  auto call = [&](MsgType type, PayloadWriter& payload, Frame* reply) {
    const std::vector<uint8_t> wire =
        Encode(Frame{kProtocolVersion, type, ++request_id,
                     std::move(payload).Finish()});
    EXPECT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    const std::vector<uint8_t> bytes =
        ReadOneFrame(fd, decoder, stream, consumed, reply);
    return bytes.size() <= 64
               ? Hex(bytes)
               : Hex(std::span<const uint8_t>(bytes).first(12)) + "..." +
                     std::to_string(bytes.size());
  };
  auto fields = [&](MsgType type, std::initializer_list<uint64_t> values) {
    PayloadWriter payload;
    for (uint64_t value : values) payload.U64(value);
    Frame reply;
    return call(type, payload, &reply);
  };
  const uint64_t a1 = ex.rv("a1"), d1 = ex.rv("d1"), g1 = ex.rv("g1");
  std::vector<std::string> pins;
  pins.push_back(fields(MsgType::kPing, {1}));
  {
    PayloadWriter payload;
    payload.Str(WriteRunXml(ex.run));
    payload.U64(2);
    Frame reply;
    pins.push_back(call(MsgType::kAddRun, payload, &reply));
  }
  pins.push_back(fields(MsgType::kReaches, {1, a1, d1, 0, 3}));
  pins.push_back(fields(MsgType::kReachesBatch,
                        {1, 3, a1, d1, d1, a1, a1, g1, 0, 4}));
  pins.push_back(fields(MsgType::kDependsOn, {1, 3, 0, 0, 5}));
  pins.push_back(fields(MsgType::kDependsOnBatch,
                        {1, 3, 3, 0, 0, 3, 2, 4, 0, 6}));
  pins.push_back(fields(MsgType::kModuleDependsOnData, {1, g1, 0, 0, 7}));
  pins.push_back(fields(MsgType::kDataDependsOnModule, {1, 0, g1, 0, 8}));
  std::vector<uint8_t> blob;
  {
    PayloadWriter payload;
    for (uint64_t value : {1, 0, 9}) payload.U64(value);
    Frame reply;
    pins.push_back(call(MsgType::kExportRun, payload, &reply));
    PayloadReader reader(reply.payload);
    auto bytes = reader.Bytes();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    blob.assign(bytes->begin(), bytes->end());
  }
  {
    PayloadWriter payload;
    payload.Bytes(blob);
    payload.U64(10);
    Frame reply;
    pins.push_back(call(MsgType::kImportRun, payload, &reply));
  }
  pins.push_back(fields(MsgType::kRemoveRun, {3, 11}));
  pins.push_back(fields(MsgType::kListRuns, {0, 12}));
  pins.push_back(fields(MsgType::kRunStats, {1, 0, 13}));
  {
    PayloadWriter payload;
    payload.U64(14);
    Frame reply;
    call(MsgType::kServiceStats, payload, &reply);
    // Field 20 of 22 is the reactor's epoll wake-up count: zero it.
    PayloadReader reader(reply.payload);
    PayloadWriter masked;
    for (int i = 1; i <= 22; ++i) {
      auto value = reader.U64();
      ASSERT_TRUE(value.ok()) << value.status().ToString();
      masked.U64(i == 20 ? 0 : *value);
    }
    ASSERT_TRUE(reader.ExpectEnd().ok());
    reply.payload = std::move(masked).Finish();
    pins.push_back(Hex(Encode(reply)));
  }
  {
    SpecDelta delta;
    delta.kind = SpecDelta::Kind::kAddModule;
    delta.module = "z";
    delta.from = {"h"};
    PayloadWriter payload;
    payload.Bytes(SerializeSpecDelta(delta));
    payload.U64(15);
    Frame reply;
    pins.push_back(call(MsgType::kApplySpecDelta, payload, &reply));
  }
  pins.push_back(fields(MsgType::kSnapshotFetch, {16}));
  pins.push_back(fields(MsgType::kSubscribe, {1, 2, 17}));
  pins.push_back(fields(MsgType::kSlowQueries, {18}));
  {
    PayloadWriter payload;
    payload.U64(19);
    Frame reply;
    call(MsgType::kMetrics, payload, &reply);
    EXPECT_EQ(reply.type, MsgType::kReply);
    PayloadReader reader(reply.payload);
    auto text = reader.Str();
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_TRUE(reader.ExpectEnd().ok());
    EXPECT_NE(text->find("skl_server_execute_us_count{op=\"Reaches\"} 1"),
              std::string::npos)
        << *text;
    pins.push_back("metrics");
  }
  for (MsgType type : {MsgType::kSaveSnapshot, MsgType::kLoadSnapshot}) {
    PayloadWriter payload;
    payload.Str(snap_path);
    payload.U64(20);
    Frame reply;
    pins.push_back(call(type, payload, &reply));
  }
  pins.push_back(fields(MsgType::kShutdown, {21}));
  ::close(fd);
  (*server)->Wait();
  std::remove(log_path.c_str());
  std::remove(snap_path.c_str());

  const std::vector<std::string> expected = {
      "534e000000037cb2da33064001",  // Ping
      "534e0000000594c3dcfa0640020201",  // AddRun
      "534e00000004289f6e5506400301",  // Reaches
      "534e000000076014b3a706400403010001",  // ReachesBatch
      "534e0000000409c2f94506400500",  // DependsOn
      "534e000000076c11ba6606400603000000",  // DependsOnBatch
      "534e000000044cf3ab5106400701",  // ModuleDependsOnData
      "534e00000004bc6c870806400800",  // DataDependsOnModule
      "534e0000006c74567dda0640...118",  // ExportRun
      "534e000000051ac2edb906400a0302",  // ImportRun
      "534e000000040e48857106400b03",  // RemoveRun
      "534e00000006812f214c06400c020102",  // ListRuns
      "534e0000000a529dcf6506400d10130f0c030900",  // RunStats
      "534e000000197761741106400e0204040101020301010000000003030101000000"
      "0001",  // ServiceStats
      "534e00000005ec71bb2606400f0204",  // ApplySpecDelta
      "534e0000055ade949d490640...1380",  // SnapshotFetch
      "534e0000007eb09acceb0642...136",  // Subscribe
      "534e000000040c417dd306401200",  // SlowQueries
      "metrics",  // Metrics
      "534e00000003116f3ed8064014",  // SaveSnapshot
      "534e0000000366680e4e064015",  // LoadSnapshot
      "534e00000003ff615ff4064016",  // Shutdown
  };
  ASSERT_EQ(pins.size(), expected.size());
  for (size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(pins[i], expected[i]);
  }
}

TEST(ProtocolTest, OutOfRangeIdsAreTheCallersFaultRepliesOverflowIsCorrupt) {
  // A request id over 32 bits is the caller's mistake: kInvalidArgument
  // naming the request, on a connection that stays usable.
  testing_util::RunningExample ex = testing_util::MakeRunningExample();
  auto service = ProvenanceService::Create(ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto id = service->AddRun(ex.run);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto server = ProvenanceServer::Start(std::move(service).value(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint64_t run = id->value();
  const uint64_t big = uint64_t{1} << 32;
  std::vector<uint8_t> wire;
  EncodeFrame(FieldsFrame(MsgType::kReaches, 1, {run, 0, big, 0, 1}), &wire);
  EncodeFrame(FieldsFrame(MsgType::kDependsOn, 2, {run, big, 0, 0, 2}),
              &wire);
  EncodeFrame(FieldsFrame(MsgType::kReachesBatch, 3,
                          {run, 2, 0, 1, big, 0, 0, 3}),
              &wire);
  EncodeFrame(FieldsFrame(MsgType::kReaches, 4,
                          {run, ex.rv("a1"), ex.rv("d1"), 0, 4}),
              &wire);
  const int fd = ConnectLoopback((*server)->port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  FrameDecoder decoder;
  std::vector<uint8_t> stream;
  size_t consumed = 0;
  for (const char* name : {"Reaches", "DependsOn", "ReachesBatch"}) {
    SCOPED_TRACE(name);
    Frame reply;
    ASSERT_FALSE(ReadOneFrame(fd, decoder, stream, consumed, &reply).empty());
    ASSERT_EQ(reply.type, MsgType::kError);
    const Status carried = DecodeErrorPayload(reply.payload);
    EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument)
        << carried.ToString();
    EXPECT_EQ(carried.message().rfind(std::string(name) + ": ", 0), 0u)
        << carried.ToString();
    EXPECT_NE(carried.message().find("32 bits"), std::string::npos)
        << carried.ToString();
  }
  Frame answer;
  ASSERT_FALSE(ReadOneFrame(fd, decoder, stream, consumed, &answer).empty());
  EXPECT_EQ(answer.type, MsgType::kReply);
  EXPECT_EQ(answer.request_id, 4u);
  EXPECT_EQ(answer.payload, std::vector<uint8_t>{1});
  ::close(fd);
  (*server)->Shutdown();

  // A reply field over 32 bits is corruption: kParseError from the client.
  ScriptedPeer peer({Reply({big, 3, 20, 5, 6, 2, 1})});
  auto client = ProvenanceClient::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stats = client->Stats(RunId::FromValue(1));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kParseError)
      << stats.status().ToString();
  EXPECT_NE(stats.status().message().find("32 bits"), std::string::npos)
      << stats.status().ToString();
}

TEST(ProtocolTest, LiveServerDispatchesEveryRequestRow) {
  auto service = ProvenanceService::Create(
      testing_util::MakeRunningExample().spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto server = ProvenanceServer::Start(std::move(service).value(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // One empty-payload frame per request row, pipelined on one connection.
  // An empty payload lacks even the trace id, so every request (kShutdown
  // included) fails its payload check — but inside its dispatch case.
  std::vector<uint8_t> wire;
  std::vector<const OpcodeInfo*> sent;
  for (const OpcodeInfo& row : OpcodeTable()) {
    if (!row.is_request) continue;
    EncodeFrame(Frame{kProtocolVersion, row.type, sent.size() + 1, {}}, &wire);
    sent.push_back(&row);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ::shutdown(fd, SHUT_WR);
  FrameDecoder decoder;
  uint8_t buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    decoder.Feed({buf, static_cast<size_t>(n)});
  }
  ::close(fd);

  for (const OpcodeInfo* row : sent) {
    SCOPED_TRACE(row->name);
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok() && next->has_value());
    ASSERT_EQ((*next)->type, MsgType::kError);
    const Status carried = DecodeErrorPayload((*next)->payload);
    EXPECT_NE(carried.message().find(row->name), std::string::npos)
        << carried.ToString();
    EXPECT_EQ(carried.message().find("not a request"), std::string::npos)
        << carried.ToString();
    EXPECT_EQ(carried.message().find("not dispatchable"), std::string::npos)
        << carried.ToString();
  }
  (*server)->Shutdown();
}

}  // namespace
}  // namespace skl
