// Connection-scale stress for the epoll reactor server (src/net/server.cc):
// a four-digit population of idle connections plus dozens of active
// pipelined clients, served by a handful of threads. Pins the properties
// the reactor exists for — thousands of sockets cost state, not threads;
// answers under full load stay bit-identical to direct service calls; and
// the graceful drain completes with the whole population still connected.
// Runs under TSan and ASan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/provenance_service.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

/// Open file descriptors of this process (both ends of every loopback
/// connection live here, so the count sees client and server sides).
size_t CountOpenFds() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

/// Thread count of this process, from /proc/self/status.
size_t CountThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// Raises the soft fd limit toward the hard one; returns the soft limit.
size_t RaiseFdLimit() {
  rlimit lim{};
  SKL_CHECK(::getrlimit(RLIMIT_NOFILE, &lim) == 0);
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    SKL_CHECK(::getrlimit(RLIMIT_NOFILE, &lim) == 0);
  }
  return static_cast<size_t>(lim.rlim_cur);
}

/// A connected TCP socket that never writes: the idle population.
int ConnectIdle(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SKL_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  SKL_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
  SKL_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

TEST(ReactorStressTest, ThousandIdleConnsPlusActivePipelinedClients) {
  const size_t fd_limit = RaiseFdLimit();
  // Each loopback connection costs two fds in this process; leave slack
  // for the suite's own files, the reactor fds and the active clients.
  const size_t idle_target = std::min<size_t>(1000, (fd_limit - 200) / 2);
  constexpr size_t kActiveClients = 32;

  auto example = testing_util::MakeRunningExample();
  RunGenerator generator(&example.spec);
  RunGenOptions gen_options;
  gen_options.target_vertices = 60;
  gen_options.seed = 21;
  auto gen = generator.Generate(gen_options);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  auto service =
      ProvenanceService::Create(std::move(example.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(gen->run);
  ASSERT_TRUE(id.ok());
  const VertexId n = gen->run.num_vertices();

  ProvenanceServer::Options options;
  options.num_io_threads = 2;
  options.num_threads = 4;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  // The whole point of the reactor: adding a thousand connections must add
  // zero threads. Snapshot the thread count with the server fully up.
  const size_t threads_before = CountThreads();
  const size_t fds_before = CountOpenFds();

  std::vector<int> idle_fds;
  idle_fds.reserve(idle_target);
  for (size_t i = 0; i < idle_target; ++i) {
    idle_fds.push_back(ConnectIdle(port));
  }
  // Let the reactor drain its accept backlog before counting.
  for (int spin = 0;
       spin < 500 &&
       (*server)->reactor_stats().connections_open < idle_target;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE((*server)->reactor_stats().connections_open, idle_target);
  EXPECT_EQ(CountThreads(), threads_before)
      << "idle connections must not cost threads";
  // Each connection: one client fd + one accepted server fd, plus a small
  // allowance for anything the runtime opened meanwhile.
  EXPECT_LE(CountOpenFds(), fds_before + 2 * idle_target + 64);

  // 32 active pipelined clients, answers checked bit-identical against the
  // direct in-process service, with the idle thousand still connected.
  const ProvenanceService& direct = (*server)->service();
  std::vector<VertexPair> pairs;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w = 0; w < n; ++w) pairs.push_back({v, w});
  }
  auto expected = direct.ReachesBatch(*id, pairs);
  ASSERT_TRUE(expected.ok());

  std::vector<std::thread> workers;
  std::vector<std::string> failures(kActiveClients);
  for (size_t c = 0; c < kActiveClients; ++c) {
    workers.emplace_back([&, c] {
      auto client = ProvenanceClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      auto piped = client->ReachesPipelined(*id, pairs);
      if (!piped.ok()) {
        failures[c] = piped.status().ToString();
        return;
      }
      if (*piped != *expected) {
        failures[c] = "pipelined answers diverged from direct service";
        return;
      }
      auto batch = client->ReachesBatch(*id, pairs);
      if (!batch.ok() || *batch != *expected) {
        failures[c] = "batch answers diverged from direct service";
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t c = 0; c < kActiveClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  EXPECT_EQ(CountThreads(), threads_before)
      << "active load is served by the fixed pools, not per-conn threads";

  // Graceful drain with the idle thousand still connected: every one of
  // them must be half-closed and reaped, and the fd ledger must balance.
  auto shutdown_client = ProvenanceClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(shutdown_client.ok());
  ASSERT_TRUE(shutdown_client->Shutdown().ok());
  (*server)->Wait();
  const ServiceStats stats = (*server)->reactor_stats();
  EXPECT_EQ(stats.connections_open, 0u);
  EXPECT_GE(stats.connections_accepted, idle_target + kActiveClients);
  for (int fd : idle_fds) ::close(fd);
  // All server-side fds are gone and our client fds are closed: within a
  // small allowance we are back where we started.
  EXPECT_LE(CountOpenFds(), fds_before + 16);
}

}  // namespace
}  // namespace skl
