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

#include <cstdint>
#include <set>
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
    // Only requests mutate or name a run.
    if (!row.is_request) EXPECT_FALSE(row.mutates || row.names_run);
  }
  size_t found = 0;
  for (int op = 0; op < 256; ++op) {
    if (FindOpcode(static_cast<uint8_t>(op)) != nullptr) ++found;
  }
  EXPECT_EQ(found, OpcodeTable().size());
  EXPECT_STREQ(MsgTypeName(static_cast<MsgType>(200)), "Unknown");
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
