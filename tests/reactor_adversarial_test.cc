// Adversarial socket behavior against the epoll reactor server: clients
// that trickle bytes, never write, die mid-frame, or refuse to read their
// responses. The invariant under attack is always the same — misbehaving
// connections cost bounded memory and zero threads, healthy clients keep
// getting correct answers, and the graceful drain still completes. Plus a
// directed fd-exhaustion test: the accept path must back off and retry on
// EMFILE, not silently die (the listen backlog keeps pending handshakes
// alive until descriptors free up).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/provenance_service.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

/// Server over the running example with one catalog-bearing run, tuned by
/// the test (small write buffers, short drain grace).
struct Harness {
  std::unique_ptr<ProvenanceServer> server;
  RunId run_id = RunId::FromValue(0);
  VertexId num_vertices = 0;
};

Harness StartHarness(ProvenanceServer::Options options) {
  auto example = testing_util::MakeRunningExample();
  RunGenerator generator(&example.spec);
  RunGenOptions gen_options;
  gen_options.target_vertices = 120;
  gen_options.seed = 33;
  auto gen = generator.Generate(gen_options);
  SKL_CHECK_MSG(gen.ok(), gen.status().ToString().c_str());
  DataGenOptions dopt;
  dopt.seed = 9;
  DataCatalog catalog = GenerateDataCatalog(gen->run, dopt);
  auto service =
      ProvenanceService::Create(std::move(example.spec), SpecSchemeKind::kTcm);
  SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
  auto id = service->AddRun(gen->run, &catalog);
  SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
  Harness h;
  h.run_id = *id;
  h.num_vertices = gen->run.num_vertices();
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  SKL_CHECK_MSG(server.ok(), server.status().ToString().c_str());
  h.server = std::move(server).value();
  return h;
}

/// Raw socket client (same idiom as net_server_test): full control over
/// when and how bytes hit the wire.
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
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

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

  /// Abrupt death: RST on close instead of an orderly FIN handshake.
  void KillWithRst() {
    linger hard{};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd_);
    fd_ = -1;
  }

  /// Reads and decodes exactly `count` response frames.
  std::vector<Frame> ReadFrames(size_t count) {
    FrameDecoder decoder;
    std::vector<Frame> frames;
    uint8_t buf[65536];
    while (frames.size() < count) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF before all frames: caller's assertions fail
      decoder.Feed({buf, static_cast<size_t>(n)});
      for (;;) {
        auto next = decoder.Next();
        SKL_CHECK_MSG(next.ok(), next.status().ToString().c_str());
        if (!next->has_value()) break;
        frames.push_back(std::move(**next));
        if (frames.size() == count) break;
      }
    }
    return frames;
  }

  /// Blocks until the server closes; returns everything read meanwhile.
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

std::vector<uint8_t> PingFrame(uint64_t request_id) {
  Frame frame;
  frame.type = MsgType::kPing;
  frame.request_id = request_id;
  PayloadWriter payload;
  payload.U64(0);  // trace id: untraced
  frame.payload = std::move(payload).Finish();
  return EncodeOne(std::move(frame));
}

std::vector<uint8_t> ExportFrame(RunId id, uint64_t request_id) {
  Frame frame;
  frame.type = MsgType::kExportRun;
  frame.request_id = request_id;
  PayloadWriter payload;
  payload.U64(id.value());
  payload.U64(0);  // read token: any LSN is applied on a primary
  payload.U64(0);  // trace id: untraced
  frame.payload = std::move(payload).Finish();
  return EncodeOne(std::move(frame));
}

/// A healthy client must get correct answers no matter what the
/// misbehaving sockets around it are doing.
void ExpectHealthyService(const Harness& h) {
  auto client = ProvenanceClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const ProvenanceService& direct = h.server->service();
  std::vector<VertexPair> pairs;
  for (VertexId v = 0; v < h.num_vertices; v += 3) {
    pairs.push_back({v, static_cast<VertexId>(h.num_vertices - 1 - v)});
  }
  auto expected = direct.ReachesBatch(h.run_id, pairs);
  ASSERT_TRUE(expected.ok());
  auto remote = client->ReachesPipelined(h.run_id, pairs);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(*remote, *expected);
}

bool PollUntil(const std::function<bool()>& cond, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

TEST(ReactorAdversarialTest, SlowLorisIsServedAndHealthyClientsFly) {
  Harness h = StartHarness({});
  RawConn loris(h.server->port());
  const std::vector<uint8_t> bytes = PingFrame(42);
  std::thread trickle([&] {
    for (uint8_t byte : bytes) {
      loris.Send({&byte, 1});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // While the loris trickles its frame one byte at a time, a healthy
  // client runs a full query load unimpeded.
  ExpectHealthyService(h);
  trickle.join();
  // The trickled frame is a valid Ping: it gets its answer like any other.
  std::vector<Frame> replies = loris.ReadFrames(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, MsgType::kReply);
  EXPECT_EQ(replies[0].request_id, 42u);
}

TEST(ReactorAdversarialTest, ConnectAndNeverWriteCostsNothing) {
  Harness h = StartHarness({});
  std::vector<std::unique_ptr<RawConn>> silent;
  for (int i = 0; i < 40; ++i) {
    silent.push_back(std::make_unique<RawConn>(h.server->port()));
  }
  ASSERT_TRUE(PollUntil([&] {
    return h.server->reactor_stats().connections_open >= 40;
  }));
  ExpectHealthyService(h);
  silent.clear();  // orderly FINs: the reactor reaps them all
  EXPECT_TRUE(PollUntil([&] {
    return h.server->reactor_stats().connections_open == 0;
  }));
}

TEST(ReactorAdversarialTest, ClientsKilledMidFrameDoNotPoisonTheServer) {
  Harness h = StartHarness({});
  const std::vector<uint8_t> frame = ExportFrame(h.run_id, 7);
  for (int i = 0; i < 30; ++i) {
    RawConn dying(h.server->port());
    // Half a valid frame, then an RST instead of the rest.
    dying.Send(std::span<const uint8_t>(frame).first(frame.size() / 2));
    dying.KillWithRst();
    if (i % 10 == 0) ExpectHealthyService(h);
  }
  ExpectHealthyService(h);
  // Every dead connection is reaped; only instantaneous clients remain.
  EXPECT_TRUE(PollUntil([&] {
    return h.server->reactor_stats().connections_open == 0;
  }));
}

TEST(ReactorAdversarialTest, NonDrainingReaderTripsBackpressureNotOom) {
  ProvenanceServer::Options options;
  options.max_write_buffer_bytes = 32u << 10;  // trip early
  Harness h = StartHarness(options);
  auto blob = h.server->service().ExportRun(h.run_id);
  ASSERT_TRUE(blob.ok());
  // Enough responses that the reader's refusal to drain must eventually
  // push the connection past kernel socket buffers AND the server's write
  // buffer cap — the backpressure counter is the proof. Requests are tiny,
  // so sending them all up front cannot block us.
  const size_t responses_needed =
      std::max<size_t>(200, (48u << 20) / std::max<size_t>(blob->size(), 1));
  RawConn reader(h.server->port());
  std::vector<uint8_t> burst;
  for (size_t i = 0; i < responses_needed; ++i) {
    const std::vector<uint8_t> frame = ExportFrame(h.run_id, i);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  // The burst goes out on its own thread: once the server throttles reads
  // on the suspended connection, our own blocking send stalls too, and it
  // only finishes once the drain below gets the pipeline moving again.
  std::thread writer([&] { reader.Send(burst); });
  // Read nothing. The server must suspend this connection's dispatch
  // instead of buffering tens of megabytes for it.
  ASSERT_TRUE(PollUntil([&] {
    return h.server->reactor_stats().connections_backpressured >= 1;
  }))
      << "write-buffer cap never tripped";
  // The misbehaver is suspended, not the server: healthy traffic flows.
  ExpectHealthyService(h);
  // Redemption: drain everything. Every response arrives, in order.
  std::vector<Frame> replies = reader.ReadFrames(responses_needed);
  writer.join();
  ASSERT_EQ(replies.size(), responses_needed);
  for (size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].type, MsgType::kReply) << "frame " << i;
    ASSERT_EQ(replies[i].request_id, i) << "frame " << i;
  }
  ExpectHealthyService(h);
}

TEST(ReactorAdversarialTest, ShutdownDrainsThroughMisbehavingPeers) {
  ProvenanceServer::Options options;
  options.max_write_buffer_bytes = 32u << 10;
  options.drain_grace_ms = 300;  // non-draining peers get force-closed
  Harness h = StartHarness(options);
  // A rogues' gallery: silent connections, a half-frame, and a reader
  // with a backpressured pile of responses it refuses to take.
  std::vector<std::unique_ptr<RawConn>> silent;
  for (int i = 0; i < 10; ++i) {
    silent.push_back(std::make_unique<RawConn>(h.server->port()));
  }
  RawConn half_frame(h.server->port());
  const std::vector<uint8_t> frame = ExportFrame(h.run_id, 1);
  half_frame.Send(std::span<const uint8_t>(frame).first(frame.size() / 2));
  RawConn hoarder(h.server->port());
  std::vector<uint8_t> burst;
  for (size_t i = 0; i < 2000; ++i) {
    const std::vector<uint8_t> req = ExportFrame(h.run_id, i);
    burst.insert(burst.end(), req.begin(), req.end());
  }
  hoarder.Send(burst);
  ExpectHealthyService(h);

  auto client = ProvenanceClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client->Shutdown().ok());  // the OK reply arrives first
  h.server->Wait();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The drain must complete despite peers that will never cooperate —
  // bounded by the grace period, not by their goodwill.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  EXPECT_EQ(h.server->reactor_stats().connections_open, 0u);
}

/// Restores the fd limit no matter how the test exits.
struct RlimitGuard {
  RlimitGuard() { ::getrlimit(RLIMIT_NOFILE, &original); }
  ~RlimitGuard() { ::setrlimit(RLIMIT_NOFILE, &original); }
  rlimit original{};
};

TEST(ReactorAdversarialTest, EmfileBacksOffAndRecoversTheAcceptPath) {
  Harness h = StartHarness({});
  // A healthy connection established before the fd famine.
  auto client = ProvenanceClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());

  // Allocate the pending client's socket BEFORE clamping the limit:
  // connect() completes the handshake through the listen backlog without
  // the server spending a descriptor.
  const int pending_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(pending_fd, 0);

  RlimitGuard guard;
  {
    // Clamp the fd limit to exactly the next free descriptor: every
    // allocation from here on — the server's accept4 included — fails
    // with EMFILE.
    const int probe = ::dup(0);
    ASSERT_GE(probe, 0);
    ::close(probe);
    rlimit clamped = guard.original;
    clamped.rlim_cur = static_cast<rlim_t>(probe);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &clamped), 0);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(pending_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // The accept loop must register the famine and keep retrying — not
  // silently fall out of the accept path (the pre-reactor bug).
  ASSERT_TRUE(PollUntil([&] {
    return h.server->reactor_stats().accept_backoffs >= 1;
  }))
      << "accept path never recorded an fd-exhaustion backoff";
  // Established connections are unaffected throughout the famine.
  ASSERT_TRUE(client->Ping().ok());

  // Lift the famine: the backed-off accept retry (bounded at 1s) must now
  // admit the patiently waiting connection and serve it.
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &guard.original), 0);
  const std::vector<uint8_t> ping = PingFrame(99);
  size_t off = 0;
  while (off < ping.size()) {
    const ssize_t n =
        ::send(pending_fd, ping.data() + off, ping.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
  FrameDecoder decoder;
  uint8_t buf[4096];
  std::optional<Frame> reply;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (!reply.has_value() &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(pending_fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "server closed the backlogged connection";
    decoder.Feed({buf, static_cast<size_t>(n)});
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (next->has_value()) reply = std::move(**next);
  }
  ::close(pending_fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kReply);
  EXPECT_EQ(reply->request_id, 99u);
  EXPECT_GE(h.server->reactor_stats().accept_backoffs, 1u);
}

}  // namespace
}  // namespace skl
