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
#include <initializer_list>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/core/provenance_service.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
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
