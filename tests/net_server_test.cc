// Network query serving layer, end to end over real loopback sockets:
// remote answers must be bit-identical to direct ProvenanceService answers
// for every bundled scheme (single + batch + imported runs), concurrent
// clients must ingest and query without races (TSan leg), and no malformed
// byte stream may crash the server or poison other connections — the
// socket-level counterpart of protocol_test.cc's decoder fuzz.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

using testing_util::GenerateRun;

/// Builds a service with three registered runs — a plain one, one with a
/// data catalog, and an imported one (export → import round trip) — then
/// serves it. Interval runs on the tree spec, everything else on the
/// running example.
std::unique_ptr<ProvenanceServer> StartServer(SpecSchemeKind kind,
                                              unsigned server_threads = 6) {
  Specification spec = testing_util::MakeSpecFor(kind);
  ::skl::Run plain = GenerateRun(spec, 40, 11);
  ::skl::Run with_data = GenerateRun(spec, 60, 12);
  DataGenOptions dopt;
  dopt.seed = 5;
  DataCatalog catalog = GenerateDataCatalog(with_data, dopt);

  auto service = ProvenanceService::Create(std::move(spec), kind);
  SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
  auto id1 = service->AddRun(plain);
  auto id2 = service->AddRun(with_data, &catalog);
  SKL_CHECK_MSG(id1.ok(), id1.status().ToString().c_str());
  SKL_CHECK_MSG(id2.ok(), id2.status().ToString().c_str());
  auto blob = service->ExportRun(*id2);
  SKL_CHECK_MSG(blob.ok(), blob.status().ToString().c_str());
  auto imported = service->ImportRun(*blob);
  SKL_CHECK_MSG(imported.ok(), imported.status().ToString().c_str());

  ProvenanceServer::Options options;
  options.num_threads = server_threads;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  SKL_CHECK_MSG(server.ok(), server.status().ToString().c_str());
  return std::move(server).value();
}

ProvenanceClient NewClient(const ProvenanceServer& server) {
  auto client = ProvenanceClient::Connect("127.0.0.1", server.port());
  SKL_CHECK_MSG(client.ok(), client.status().ToString().c_str());
  return std::move(client).value();
}

/// Every remote answer — registry, stats, single and batch queries — must
/// be bit-identical to the direct in-process answer.
void ExpectClientMirrorsService(const ProvenanceServer& server,
                                ProvenanceClient& client) {
  const ProvenanceService& direct = server.service();
  const std::vector<RunId> ids = direct.ListRuns();
  auto remote_ids = client.ListRuns();
  ASSERT_TRUE(remote_ids.ok()) << remote_ids.status().ToString();
  ASSERT_EQ(remote_ids->size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*remote_ids)[i].value(), ids[i].value());
  }

  for (RunId id : ids) {
    auto direct_stats = direct.Stats(id);
    auto remote_stats = client.Stats(id);
    ASSERT_TRUE(direct_stats.ok() && remote_stats.ok());
    EXPECT_EQ(remote_stats->num_vertices, direct_stats->num_vertices);
    EXPECT_EQ(remote_stats->num_items, direct_stats->num_items);
    EXPECT_EQ(remote_stats->label_bits, direct_stats->label_bits);
    EXPECT_EQ(remote_stats->context_bits, direct_stats->context_bits);
    EXPECT_EQ(remote_stats->origin_bits, direct_stats->origin_bits);
    EXPECT_EQ(remote_stats->num_nonempty_plus,
              direct_stats->num_nonempty_plus);
    EXPECT_EQ(remote_stats->imported, direct_stats->imported);

    const VertexId n = direct_stats->num_vertices;
    std::vector<VertexPair> pairs;
    pairs.reserve(static_cast<size_t>(n) * n);
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId w = 0; w < n; ++w) pairs.push_back({v, w});
    }
    // Batch: one frame, all pairs.
    auto direct_batch = direct.ReachesBatch(id, pairs);
    auto remote_batch = client.ReachesBatch(id, pairs);
    ASSERT_TRUE(direct_batch.ok() && remote_batch.ok());
    ASSERT_EQ(*remote_batch, *direct_batch) << "run " << id.value();
    // Pipelined singles: one frame per pair, one round trip.
    auto piped = client.ReachesPipelined(id, pairs);
    ASSERT_TRUE(piped.ok()) << piped.status().ToString();
    ASSERT_EQ(*piped, *direct_batch) << "run " << id.value();
    // Exhaustive single-call spot equivalence on a diagonal band (the
    // batch above already covered every pair once).
    for (VertexId v = 0; v < n; ++v) {
      const VertexId w = n - 1 - v;
      auto direct_one = direct.Reaches(id, v, w);
      auto remote_one = client.Reaches(id, v, w);
      ASSERT_TRUE(direct_one.ok() && remote_one.ok());
      ASSERT_EQ(*remote_one, *direct_one);
    }

    const DataItemId items =
        static_cast<DataItemId>(direct_stats->num_items);
    if (items > 0) {
      std::vector<ItemPair> item_pairs;
      for (DataItemId x = 0; x < items; ++x) {
        item_pairs.push_back({x, (x * 7 + 3) % items});
      }
      auto direct_dep = direct.DependsOnBatch(id, item_pairs);
      auto remote_dep = client.DependsOnBatch(id, item_pairs);
      ASSERT_TRUE(direct_dep.ok() && remote_dep.ok());
      ASSERT_EQ(*remote_dep, *direct_dep);
      for (DataItemId x = 0; x < std::min<DataItemId>(items, 32); ++x) {
        const VertexId v = x % n;
        auto d1 = direct.ModuleDependsOnData(id, v, x);
        auto r1 = client.ModuleDependsOnData(id, v, x);
        auto d2 = direct.DataDependsOnModule(id, x, v);
        auto r2 = client.DataDependsOnModule(id, x, v);
        ASSERT_TRUE(d1.ok() && r1.ok() && d2.ok() && r2.ok());
        ASSERT_EQ(*r1, *d1);
        ASSERT_EQ(*r2, *d2);
      }
    }
  }
}

// ------------------------------------------------------------ equivalence --

TEST(NetServerTest, RemoteAnswersMatchDirectForEveryScheme) {
  for (SpecSchemeKind kind :
       {SpecSchemeKind::kTcm, SpecSchemeKind::kBfs, SpecSchemeKind::kDfs,
        SpecSchemeKind::kInterval, SpecSchemeKind::kTreeCover,
        SpecSchemeKind::kChain, SpecSchemeKind::kTwoHop}) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    auto server = StartServer(kind);
    ProvenanceClient client = NewClient(*server);
    ASSERT_TRUE(client.Ping().ok());
    ExpectClientMirrorsService(*server, client);
    server->Shutdown();
  }
}

TEST(NetServerTest, RemoteIngestionMatchesDirectIngestion) {
  auto ex = testing_util::MakeRunningExample();
  const std::string run_xml = WriteRunXml(ex.run);
  auto server = StartServer(SpecSchemeKind::kTcm);
  ProvenanceClient client = NewClient(*server);

  auto added = client.AddRunXml(run_xml);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  // The remote ingestion labeled the same run the direct path would; the
  // service now answers for it in-process and over the wire identically.
  const ProvenanceService& direct = server->service();
  ASSERT_TRUE(direct.Contains(*added));
  const VertexId n = ex.run.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    auto remote = client.Reaches(*added, v, n - 1 - v);
    auto local = direct.Reaches(*added, v, n - 1 - v);
    ASSERT_TRUE(remote.ok() && local.ok());
    ASSERT_EQ(*remote, *local);
  }

  // Export over the wire, re-import over the wire: a third identical run.
  auto blob = client.ExportRun(*added);
  ASSERT_TRUE(blob.ok());
  auto reimported = client.ImportRun(*blob);
  ASSERT_TRUE(reimported.ok());
  auto stats = client.Stats(*reimported);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->imported);
  auto a = client.Reaches(*added, 0, n - 1);
  auto b = client.Reaches(*reimported, 0, n - 1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  // RemoveRun makes the handle stale remotely, exactly as in-process.
  ASSERT_TRUE(client.RemoveRun(*reimported).ok());
  auto gone = client.Reaches(*reimported, 0, 0);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------ error model --

TEST(NetServerTest, ServiceErrorCodesSurviveTheWire) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  ProvenanceClient client = NewClient(*server);

  auto unknown_run = client.Reaches(RunId::FromValue(999), 0, 0);
  ASSERT_FALSE(unknown_run.ok());
  EXPECT_EQ(unknown_run.status().code(), StatusCode::kNotFound);

  auto ids = client.ListRuns();
  ASSERT_TRUE(ids.ok());
  auto out_of_range = client.Reaches((*ids)[0], 0, 100000);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  auto bad_xml = client.AddRunXml("<not-a-run>");
  ASSERT_FALSE(bad_xml.ok());
  EXPECT_EQ(bad_xml.status().code(), StatusCode::kParseError);

  auto bad_blob = client.ImportRun({1, 2, 3});
  ASSERT_FALSE(bad_blob.ok());
  EXPECT_EQ(bad_blob.status().code(), StatusCode::kParseError);

  // Errors are per-request: the connection keeps serving afterwards.
  EXPECT_TRUE(client.Ping().ok());
  server->Shutdown();
}

TEST(NetServerTest, PipelinedErrorsDrainAndTheConnectionSurvives) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  ProvenanceClient client = NewClient(*server);
  std::vector<VertexPair> pairs = {{0, 1}, {0, 2}};
  auto bad = client.ReachesPipelined(RunId::FromValue(999), pairs);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  // Both in-flight errors were drained; the next call is clean.
  EXPECT_TRUE(client.Ping().ok());
}

// ----------------------------------------------------- malformed networks --

/// A raw TCP connection for speaking deliberately broken protocol.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SKL_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    SKL_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    SKL_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
  }
  ~RawConn() { ::close(fd_); }

  void Send(std::span<const uint8_t> bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // peer already gone: the test still proceeds
      off += static_cast<size_t>(n);
    }
  }

  void FinishWrites() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until the server closes. Terminates because every malformed
  /// input path ends in a server-side close once our write side is shut.
  std::vector<uint8_t> ReadUntilEof() {
    std::vector<uint8_t> all;
    uint8_t buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return all;
      all.insert(all.end(), buf, buf + n);
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

std::vector<uint8_t> EncodeOne(Frame frame) {
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  return bytes;
}

/// A current-version ping: request payloads end with the trace-id varint,
/// even when there is nothing else to say.
Frame PingFrame(uint64_t request_id, uint64_t trace_id = 0) {
  PayloadWriter payload;
  payload.U64(trace_id);
  return Frame{kProtocolVersion, MsgType::kPing, request_id,
               std::move(payload).Finish()};
}

TEST(NetServerTest, CorruptionAtEveryByteGetsAnErrorNeverACrash) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  Frame request;
  request.type = MsgType::kReaches;
  request.request_id = 1;
  PayloadWriter payload;
  payload.U64(1);
  payload.U64(0);
  payload.U64(1);
  payload.U64(0);  // read-LSN token
  payload.U64(0);  // trace id
  request.payload = std::move(payload).Finish();
  const std::vector<uint8_t> wire = EncodeOne(request);

  for (size_t i = 0; i < wire.size(); ++i) {
    SCOPED_TRACE("corrupted byte " + std::to_string(i));
    std::vector<uint8_t> corrupted = wire;
    corrupted[i] ^= 0xFF;
    RawConn conn(server->port());
    conn.Send(corrupted);
    conn.FinishWrites();
    const std::vector<uint8_t> response = conn.ReadUntilEof();
    // Either the server detected the corruption and answered a descriptive
    // error frame, or the bytes were an incomplete frame (inflated length
    // prefix) and the connection just closed. Any frame that did come back
    // must be a well-formed kError — never a kReply conjured from noise.
    FrameDecoder decoder;
    decoder.Feed(response);
    size_t frames = 0;
    for (;;) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      ++frames;
      EXPECT_EQ((*next)->type, MsgType::kError);
      Status carried = DecodeErrorPayload((*next)->payload);
      EXPECT_FALSE(carried.ok());
      EXPECT_FALSE(carried.message().empty());
    }
    EXPECT_LE(frames, 1u);
  }

  // After the whole fuzz sweep the server still serves fresh connections.
  ProvenanceClient client = NewClient(*server);
  EXPECT_TRUE(client.Ping().ok());
  server->Shutdown();
}

TEST(NetServerTest, TruncationAtEveryPrefixNeverCrashesOrAnswers) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  const std::vector<uint8_t> wire =
      EncodeOne(Frame{kProtocolVersion, MsgType::kListRuns, 1, {}});
  for (size_t len = 0; len < wire.size(); ++len) {
    SCOPED_TRACE("prefix of " + std::to_string(len) + " bytes");
    RawConn conn(server->port());
    conn.Send({wire.data(), len});
    conn.FinishWrites();
    // An incomplete frame gets no response — and must not produce one.
    EXPECT_TRUE(conn.ReadUntilEof().empty());
  }
  ProvenanceClient client = NewClient(*server);
  EXPECT_TRUE(client.Ping().ok());
  server->Shutdown();
}

TEST(NetServerTest, MalformedPayloadKeepsTheConnectionAlive) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  // Frame-level intact (magic, length, CRC all valid) but the payload is
  // not a Reaches request shape: run id only, vertices missing.
  Frame malformed;
  malformed.type = MsgType::kReaches;
  malformed.request_id = 1;
  PayloadWriter payload;
  payload.U64(1);
  malformed.payload = std::move(payload).Finish();

  RawConn conn(server->port());
  conn.Send(EncodeOne(malformed));
  conn.Send(EncodeOne(PingFrame(2)));
  conn.FinishWrites();
  const std::vector<uint8_t> response = conn.ReadUntilEof();

  FrameDecoder decoder;
  decoder.Feed(response);
  auto first = decoder.Next();
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ((*first)->type, MsgType::kError);
  EXPECT_EQ((*first)->request_id, 1u);
  uint64_t trace = ~0ull;
  Status carried = DecodeErrorPayload((*first)->payload, &trace);
  EXPECT_EQ(trace, 0u);  // the malformed request never got to its trace
  EXPECT_EQ(carried.code(), StatusCode::kParseError);
  EXPECT_NE(carried.message().find("Reaches"), std::string::npos)
      << carried.ToString();
  // The same connection answered the follow-up ping: per-request errors do
  // not cost the connection.
  auto second = decoder.Next();
  ASSERT_TRUE(second.ok() && second->has_value());
  EXPECT_EQ((*second)->type, MsgType::kReply);
  EXPECT_EQ((*second)->request_id, 2u);
  server->Shutdown();
}

TEST(NetServerTest, UnknownOpcodeAndWrongVersionGetDescriptiveErrors) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  {
    RawConn conn(server->port());
    conn.Send(EncodeOne(Frame{kProtocolVersion, static_cast<MsgType>(60), 1,
                              {}}));
    conn.Send(EncodeOne(PingFrame(2)));
    conn.FinishWrites();
    FrameDecoder decoder;
    decoder.Feed(conn.ReadUntilEof());
    auto first = decoder.Next();
    ASSERT_TRUE(first.ok() && first->has_value());
    EXPECT_EQ((*first)->type, MsgType::kError);
    auto second = decoder.Next();
    ASSERT_TRUE(second.ok() && second->has_value());
    EXPECT_EQ((*second)->type, MsgType::kReply);
  }
  {
    RawConn conn(server->port());
    conn.Send(EncodeOne(
        Frame{kProtocolVersion + 5, MsgType::kPing, 1, {}}));
    conn.FinishWrites();
    FrameDecoder decoder;
    decoder.Feed(conn.ReadUntilEof());
    auto first = decoder.Next();
    ASSERT_TRUE(first.ok() && first->has_value());
    EXPECT_EQ((*first)->type, MsgType::kError);
    Status carried = DecodeErrorPayload((*first)->payload);
    EXPECT_NE(carried.message().find("version"), std::string::npos);
  }
  server->Shutdown();
}

TEST(NetServerTest, VersionCrossesGetMatchingRepliesOrDescriptiveErrors) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  // A peer one version older or newer is refused, and the error names both
  // versions, so an operator reading one log line knows which side to
  // upgrade. The reply itself is stamped with this server's version.
  for (int version : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    RawConn conn(server->port());
    conn.Send(EncodeOne(Frame{static_cast<uint8_t>(version), MsgType::kPing,
                              1, {}}));
    conn.Send(EncodeOne(PingFrame(2)));
    conn.FinishWrites();
    FrameDecoder decoder;
    decoder.Feed(conn.ReadUntilEof());
    auto first = decoder.Next();
    ASSERT_TRUE(first.ok() && first->has_value());
    EXPECT_EQ((*first)->type, MsgType::kError);
    EXPECT_EQ((*first)->version, kProtocolVersion);
    Status carried = DecodeErrorPayload((*first)->payload);
    EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(carried.message().find("version " + std::to_string(version)),
              std::string::npos)
        << carried.ToString();
    EXPECT_NE(carried.message().find(std::to_string(kProtocolVersion)),
              std::string::npos)
        << carried.ToString();
    // The refusal is per request: the current-version ping is answered.
    auto second = decoder.Next();
    ASSERT_TRUE(second.ok() && second->has_value());
    EXPECT_EQ((*second)->type, MsgType::kReply);
  }
  server->Shutdown();
}

TEST(NetServerTest, ClientRefusesAReplyOfAnotherVersion) {
  // A stand-in server that answers every request with an empty kReply
  // stamped one version older than this client speaks.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  std::thread old_server([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    uint8_t buf[4096];
    FrameDecoder decoder;
    while (true) {
      auto next = decoder.Next();
      if (next.ok() && next->has_value()) {
        const std::vector<uint8_t> reply =
            EncodeOne(Frame{uint8_t{kProtocolVersion - 1}, MsgType::kReply,
                            (*next)->request_id, {}});
        (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        break;
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder.Feed({buf, static_cast<size_t>(n)});
    }
    ::close(fd);
  });

  auto client = ProvenanceClient::Connect("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Status ping = client->Ping();
  old_server.join();
  ::close(listen_fd);
  EXPECT_EQ(ping.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ping.message().find(std::to_string(kProtocolVersion - 1)),
            std::string::npos)
      << ping.ToString();
  EXPECT_NE(ping.message().find(std::to_string(kProtocolVersion)),
            std::string::npos)
      << ping.ToString();
  // The connection is poisoned: later calls repeat the refusal.
  EXPECT_EQ(client->Ping().message(), ping.message());
}

TEST(NetServerTest, ClientReportsTheServersConnectionTerminalError) {
  // A frame over the server's size cap ends the connection; the server's
  // last frame is a kError with request id 0 carrying the reason, and the
  // client must surface that reason rather than a request-id mismatch.
  Specification spec = testing_util::MakeRunningExample().spec;
  auto service = ProvenanceService::Create(std::move(spec),
                                           SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  ProvenanceServer::Options options;
  options.max_frame_bytes = 4096;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ProvenanceClient client = NewClient(**server);
  auto added = client.AddRunXml(std::string(100000, 'x'));
  ASSERT_FALSE(added.ok());
  EXPECT_NE(added.status().message().find("exceeds the maximum of 4096"),
            std::string::npos)
      << added.status().ToString();
  (*server)->Shutdown();
}

// ---------------------------------------------------------- observability --

TEST(NetServerTest, ErrorRepliesEchoTheClientTraceId) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  // A Reaches against a run that does not exist, traced as 77: the
  // error reply must carry the Status AND echo the trace id, so a client
  // log line and a server slow-query line join on one token.
  PayloadWriter payload;
  payload.U64(999);  // no such run
  payload.U64(0);
  payload.U64(0);
  payload.U64(0);   // read-LSN token
  payload.U64(77);  // trace id
  RawConn conn(server->port());
  conn.Send(EncodeOne(Frame{kProtocolVersion, MsgType::kReaches, 1,
                            std::move(payload).Finish()}));
  conn.FinishWrites();
  FrameDecoder decoder;
  decoder.Feed(conn.ReadUntilEof());
  auto first = decoder.Next();
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ((*first)->type, MsgType::kError);
  uint64_t trace = 0;
  Status carried = DecodeErrorPayload((*first)->payload, &trace);
  EXPECT_EQ(carried.code(), StatusCode::kNotFound);
  EXPECT_EQ(trace, 77u);
  server->Shutdown();
}

TEST(NetServerTest, SlowQueryLogRecordsTracedRequestsWithTiming) {
  Specification spec = testing_util::MakeRunningExample().spec;
  ::skl::Run run = GenerateRun(spec, 40, 11);
  auto service = ProvenanceService::Create(std::move(spec),
                                           SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(service->AddRun(run).ok());
  ProvenanceServer::Options options;
  options.slow_query_threshold_us = 1;  // everything is "slow"
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok());

  ProvenanceClient client = NewClient(**server);
  client.set_trace_id(42);
  ASSERT_TRUE(client.Reaches(RunId::FromValue(1), 0, 1).ok());
  ASSERT_TRUE(client.Ping().ok());

  auto entries = client.SlowQueries();
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  bool found = false;
  for (const SlowQueryEntry& e : *entries) {
    if (e.opcode != static_cast<uint8_t>(MsgType::kReaches)) continue;
    found = true;
    EXPECT_EQ(e.trace_id, 42u);
    EXPECT_EQ(e.run_id, 1u);
    EXPECT_GT(e.exec_us + e.queue_us, 0u);
  }
  EXPECT_TRUE(found) << entries->size() << " entries, none for kReaches";

  // The scrape agrees: the per-opcode execute histogram observed exactly
  // the one Reaches request the counter counted.
  auto text = client.GetMetrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("# TYPE skl_server_execute_us histogram"),
            std::string::npos);
  EXPECT_NE(text->find("skl_server_execute_us_count{op=\"Reaches\"} 1"),
            std::string::npos)
      << *text;
  (*server)->Shutdown();
}

TEST(NetServerTest, SlowQueryLogStaysDisabledWithoutAThreshold) {
  auto server = StartServer(SpecSchemeKind::kTcm);  // threshold 0 = off
  ProvenanceClient client = NewClient(*server);
  ASSERT_TRUE(client.Reaches(RunId::FromValue(1), 0, 1).ok());
  auto entries = client.SlowQueries();
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
  server->Shutdown();
}

// ------------------------------------------------------------ concurrency --

TEST(NetServerTest, FourConcurrentClientsIngestAndQueryRaceFree) {
  auto ex = testing_util::MakeRunningExample();
  const std::string run_xml = WriteRunXml(ex.run);
  const VertexId n = ex.run.num_vertices();
  auto server = StartServer(SpecSchemeKind::kTcm, /*server_threads=*/6);

  constexpr int kClients = 4;
  constexpr int kRounds = 8;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = ProvenanceClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<VertexPair> pairs;
      for (VertexId v = 0; v < n; ++v) pairs.push_back({v, n - 1 - v});
      for (int round = 0; round < kRounds; ++round) {
        auto id = client->AddRunXml(run_xml);
        if (!id.ok()) {
          failures.fetch_add(1);
          return;
        }
        auto batch = client->ReachesBatch(*id, pairs);
        auto single = client->Reaches(*id, 0, n - 1);
        auto blob = client->ExportRun(*id);
        if (!batch.ok() || !single.ok() || !blob.ok() ||
            (*batch)[0] != *client->Reaches(*id, 0, n - 1)) {
          failures.fetch_add(1);
          return;
        }
        auto imported = client->ImportRun(*blob);
        if (!imported.ok() || !client->RemoveRun(*imported).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);

  // Every ingestion and removal is visible in the cumulative counters.
  const ServiceStats stats = server->service().service_stats();
  const uint64_t expected_adds =
      3 + static_cast<uint64_t>(kClients) * kRounds * 2;  // 3 at StartServer
  EXPECT_EQ(stats.runs_ingested, expected_adds);
  EXPECT_EQ(stats.runs_removed,
            static_cast<uint64_t>(kClients) * kRounds);
  EXPECT_EQ(stats.num_runs, expected_adds - stats.runs_removed);
  server->Shutdown();
}

// ------------------------------------------- counters, snapshots, lifecycle --

TEST(NetServerTest, ServiceStatsRpcCountsServedQueries) {
  // BFS: a search scheme, so the memo counters below are live.
  auto server = StartServer(SpecSchemeKind::kBfs);
  ProvenanceClient client = NewClient(*server);
  auto before = client.GetServiceStats();
  ASSERT_TRUE(before.ok());
  auto ids = client.ListRuns();
  ASSERT_TRUE(ids.ok());

  ASSERT_TRUE(client.Reaches((*ids)[0], 0, 1).ok());
  ASSERT_TRUE(client.Reaches((*ids)[0], 0, 0).ok());
  std::vector<VertexPair> pairs = {{0, 0}, {1, 2}, {2, 3}};
  ASSERT_TRUE(client.ReachesBatch((*ids)[0], pairs).ok());

  auto after = client.GetServiceStats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->reaches_queries - before->reaches_queries, 2u + 3u);
  EXPECT_EQ(after->batch_calls - before->batch_calls, 1u);
  EXPECT_EQ(after->num_runs, 3u);
  EXPECT_EQ(after->runs_ingested, 3u);
  EXPECT_EQ(after->runs_imported, 1u);
  // The memo counters travel the wire too: a reflexive pair always
  // consults the skeleton, so the point (0, 0) query was a memo lookup and
  // the batch's (0, 0) right after it a hit.
  EXPECT_GT(after->cache_misses + after->cache_hits,
            before->cache_misses + before->cache_hits);
  EXPECT_GT(after->cache_hits, before->cache_hits);
  server->Shutdown();
}

TEST(NetServerTest, SnapshotSaveAndLoadOverTheWire) {
  const std::string path =
      PidQualifiedTempPath("skl_net_server_test_snapshot", ".skls");
  auto server = StartServer(SpecSchemeKind::kTcm);
  ProvenanceClient client = NewClient(*server);
  auto ids_before = client.ListRuns();
  ASSERT_TRUE(ids_before.ok());

  ASSERT_TRUE(client.SaveSnapshot(path).ok());
  // Mutate past the snapshot, then restore it: the registry rolls back.
  auto ex = testing_util::MakeRunningExample();
  auto extra = client.AddRunXml(WriteRunXml(ex.run));
  ASSERT_TRUE(extra.ok());
  ASSERT_EQ(client.ListRuns()->size(), ids_before->size() + 1);

  ASSERT_TRUE(client.LoadSnapshot(path).ok());
  auto ids_after = client.ListRuns();
  ASSERT_TRUE(ids_after.ok());
  ASSERT_EQ(ids_after->size(), ids_before->size());
  for (size_t i = 0; i < ids_before->size(); ++i) {
    EXPECT_EQ((*ids_after)[i].value(), (*ids_before)[i].value());
  }
  // The pinned-down ServiceStats contract (docs/NETWORK.md): the swap
  // installs a fresh registry AND fresh counters — cumulative counters
  // describe the served lifetime of one registry, so they reset to zero on
  // load; only the point-in-time num_runs reflects the restored registry.
  auto reset = client.GetServiceStats();
  ASSERT_TRUE(reset.ok());
  EXPECT_EQ(reset->num_runs, ids_before->size());
  EXPECT_EQ(reset->reaches_queries, 0u);
  EXPECT_EQ(reset->runs_ingested, 0u);
  EXPECT_EQ(reset->runs_removed, 0u);
  EXPECT_EQ(reset->snapshot_saves, 0u);
  EXPECT_EQ(reset->cache_hits, 0u);
  EXPECT_EQ(reset->cache_misses, 0u);
  // Post-swap traffic counts from zero on the restored registry.
  ASSERT_TRUE(client.Reaches((*ids_after)[0], 0, 1).ok());
  auto counted = client.GetServiceStats();
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->reaches_queries, 1u);
  // Loading a nonexistent path is a remote error, not a dead server.
  auto missing = client.LoadSnapshot("/nonexistent/missing.skls");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(client.Ping().ok());

  server->Shutdown();
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(NetServerTest, ShutdownFrameDrainsTheServer) {
  auto server = StartServer(SpecSchemeKind::kTcm);
  const uint16_t port = server->port();
  ProvenanceClient client = NewClient(*server);
  ASSERT_TRUE(client.Ping().ok());
  // The shutdown response itself must arrive (reply before drain).
  ASSERT_TRUE(client.Shutdown().ok());
  server->Wait();
  // The listener is gone: new connections are refused.
  auto refused = ProvenanceClient::Connect("127.0.0.1", port);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  // Idempotent from the owner's side too.
  server->Shutdown();
}

std::unique_ptr<ProvenanceServer> StartServerWithIdleTimeout(
    uint64_t idle_timeout_ms) {
  Specification spec = testing_util::MakeRunningExample().spec;
  auto service = ProvenanceService::Create(std::move(spec),
                                           SpecSchemeKind::kTcm);
  SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
  ProvenanceServer::Options options;
  options.idle_timeout_ms = idle_timeout_ms;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  SKL_CHECK_MSG(server.ok(), server.status().ToString().c_str());
  return std::move(server).value();
}

TEST(NetServerTest, IdleConnectionPastTimeoutIsClosedAndCounted) {
  auto server = StartServerWithIdleTimeout(150);
  RawConn idle(server->port());
  // Never write a byte: the reaper must close the connection from its side
  // (ReadUntilEof returns without us shutting our write half) and the
  // close must be attributed to the timeout, not to an error.
  const auto start = std::chrono::steady_clock::now();
  const std::vector<uint8_t> response = idle.ReadUntilEof();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(response.empty());
  EXPECT_GE(waited, std::chrono::milliseconds(100));
  EXPECT_LT(waited, std::chrono::seconds(10));
  EXPECT_GE(server->reactor_stats().connections_timed_out, 1u);
  // The counter also travels the wire: a fresh (briefly-lived) client sees
  // it in the stats RPC.
  ProvenanceClient client = NewClient(*server);
  auto stats = client.GetServiceStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->connections_timed_out, 1u);
  server->Shutdown();
}

TEST(NetServerTest, SlowButLiveFrameSurvivesTheIdleTimeout) {
  auto server = StartServerWithIdleTimeout(150);
  RawConn conn(server->port());
  const std::vector<uint8_t> wire = EncodeOne(PingFrame(7));
  // Drip the frame one byte every 50 ms: the connection spends far longer
  // than the 150 ms budget half-way through a frame, but each byte is
  // activity — the reaper must never count it as idle.
  for (uint8_t byte : wire) {
    conn.Send({&byte, 1});
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  conn.FinishWrites();
  const std::vector<uint8_t> response = conn.ReadUntilEof();
  FrameDecoder decoder;
  decoder.Feed(response);
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->type, MsgType::kReply);
  EXPECT_EQ((*next)->request_id, 7u);
  EXPECT_EQ(server->reactor_stats().connections_timed_out, 0u);
  server->Shutdown();
}

}  // namespace
}  // namespace skl
