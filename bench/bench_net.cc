// bench_net: throughput and latency of the network query serving layer
// (src/net/, docs/NETWORK.md) over loopback. One server process-half, 1/2/4/8
// concurrent client connections, two client strategies:
//
//   roundtrip  one Reaches frame per query, response awaited before the next
//              — the latency-bound interactive pattern (p50/p99 reported)
//   pipelined  64 request frames written back to back, then 64 responses
//              read — the throughput pattern request pipelining enables
//
// The spread between the two is the whole point of supporting pipelining in
// the protocol; the spread between 1 and 8 connections shows how far the
// per-connection handler model scales on this machine's cores.
//
// A third mode exercises the epoll reactor at connection scale: 256/1k/4k
// open connections, almost all idle, 32 active roundtrip clients measured
// for p50/p99/qps while a churn thread connects, pings and disconnects in a
// loop. The idle population and the churn are the point — with the
// thread-per-connection model this sweep would need thousands of threads;
// the reactor serves it from Options::num_io_threads.
//
// A fourth mode times both sides of the server's inline/pool split for
// batches (ProvenanceServer::kMaxInlineBatchPairs): on a server with one
// I/O thread, one client streams ReachesBatch frames of 256 to 16384 pairs
// while a second client times point reads. An inline batch runs on the
// reactor both clients share, so the point reads wait behind it; a pooled
// one pays a thread hop but leaves the reactor free.
//
// Environment knobs (CI uses tiny values, docs/BENCHMARKS.md the defaults):
//   SKL_BENCH_NET_QUERIES    total queries per mode point (default 20000)
//   SKL_BENCH_NET_SIZE       run size in vertices (default 2000)
//   SKL_BENCH_NET_MAX_CONNS  largest connection count (default 8)
//   SKL_BENCH_NET_CONNS      largest connection-scale level (default 4096,
//                            0 skips the connection-scale sweep)
//   SKL_BENCH_NET_ACTIVE     active clients at each level (default 32)
//   SKL_BENCH_NET_IO_THREADS reactor threads for the server (default 2)
//   SKL_BENCH_NET_BATCH_PAIRS pairs streamed per batch size (default 2^22,
//                            0 skips the batch-split mode)
//   SKL_BENCH_JSON           machine-readable results (bench_common.h)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/metrics.h"
#include "src/skl.h"

using namespace skl;         // NOLINT: bench brevity
using namespace skl::bench;  // NOLINT

namespace {

size_t EnvOr(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name)) {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return fallback;
}

struct ModeResult {
  double seconds = 0;
  size_t queries = 0;
};

/// Raises the soft fd limit toward the hard one and returns the resulting
/// soft limit (the connection-scale sweep needs thousands of sockets).
size_t RaiseFdLimit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  return static_cast<size_t>(lim.rlim_cur);
}

/// A raw connected TCP socket that sends nothing: the idle population.
int ConnectIdle(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int main() {
  const size_t total_queries = EnvOr("SKL_BENCH_NET_QUERIES", 20000);
  const uint32_t run_size =
      static_cast<uint32_t>(EnvOr("SKL_BENCH_NET_SIZE", 2000));
  const unsigned max_conns =
      static_cast<unsigned>(EnvOr("SKL_BENCH_NET_MAX_CONNS", 8));

  Specification spec = QblastSpec();
  GeneratedRun gen = MakeRun(spec, run_size, 7);
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm);
  SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
  auto id = service->AddRun(gen.run);
  SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
  const VertexId n = gen.run.num_vertices();

  ProvenanceServer::Options server_options;
  server_options.num_threads = std::max(max_conns, 1u);
  server_options.num_io_threads =
      static_cast<unsigned>(EnvOr("SKL_BENCH_NET_IO_THREADS", 2));
  auto server =
      ProvenanceServer::Start(std::move(service).value(), server_options);
  SKL_CHECK_MSG(server.ok(), server.status().ToString().c_str());
  const uint16_t port = (*server)->port();

  PrintHeader("network serving: Reaches over loopback, run of " +
              std::to_string(n) + " vertices");
  std::printf("%6s  %-10s %10s %12s %10s %10s\n", "conns", "mode", "queries",
              "queries/s", "p50(us)", "p99(us)");

  JsonReporter json("bench_net");

  // Per-connection deterministic query workloads.
  const auto make_pairs = [&](unsigned conn, size_t count) {
    std::vector<VertexPair> pairs;
    pairs.reserve(count);
    Rng rng(1000 + conn);
    for (size_t i = 0; i < count; ++i) {
      pairs.push_back({static_cast<VertexId>(rng.NextBelow(n)),
                       static_cast<VertexId>(rng.NextBelow(n))});
    }
    return pairs;
  };

  const auto run_mode = [&](unsigned conns, bool pipelined) {
    const size_t per_conn = total_queries / conns;
    // The same histogram type the server's metrics endpoint serves
    // (docs/OBSERVABILITY.md): thread-safe to record from every client
    // thread, quantiles within 12.5% of exact. Bench latencies record in
    // nanoseconds; the report converts to microseconds.
    LatencyHistogram lat_hist;
    std::vector<ModeResult> results(conns);
    std::vector<ProvenanceClient> clients;
    clients.reserve(conns);
    for (unsigned c = 0; c < conns; ++c) {
      auto client = ProvenanceClient::Connect("127.0.0.1", port);
      SKL_CHECK_MSG(client.ok(), client.status().ToString().c_str());
      clients.push_back(std::move(client).value());
    }
    std::vector<std::thread> threads;
    Stopwatch wall;
    for (unsigned c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        ProvenanceClient& client = clients[c];
        const std::vector<VertexPair> pairs = make_pairs(c, per_conn);
        ModeResult& result = results[c];
        Stopwatch sw;
        if (pipelined) {
          constexpr size_t kWindow = 64;
          sw.Restart();
          for (size_t off = 0; off < pairs.size(); off += kWindow) {
            const size_t len = std::min(kWindow, pairs.size() - off);
            auto answers = client.ReachesPipelined(
                *id, std::span<const VertexPair>(pairs).subspan(off, len));
            SKL_CHECK_MSG(answers.ok(), answers.status().ToString().c_str());
            result.queries += len;
          }
          result.seconds = sw.ElapsedSeconds();
        } else {
          Stopwatch total;
          for (const auto& [v, w] : pairs) {
            sw.Restart();
            auto answer = client.Reaches(*id, v, w);
            lat_hist.Record(
                static_cast<uint64_t>(sw.ElapsedSeconds() * 1e9));
            SKL_CHECK_MSG(answer.ok(), answer.status().ToString().c_str());
            ++result.queries;
          }
          result.seconds = total.ElapsedSeconds();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_secs = wall.ElapsedSeconds();

    ModeResult merged;
    merged.seconds = wall_secs;
    for (ModeResult& r : results) merged.queries += r.queries;
    const double qps =
        wall_secs > 0 ? static_cast<double>(merged.queries) / wall_secs : 0;
    const double p50 = lat_hist.Quantile(0.50) / 1e3;
    const double p99 = lat_hist.Quantile(0.99) / 1e3;
    const char* mode = pipelined ? "pipelined" : "roundtrip";
    if (pipelined) {
      std::printf("%6u  %-10s %10zu %12.0f %10s %10s\n", conns, mode,
                  merged.queries, qps, "-", "-");
    } else {
      std::printf("%6u  %-10s %10zu %12.0f %10.1f %10.1f\n", conns, mode,
                  merged.queries, qps, p50, p99);
    }
    const std::string prefix =
        "net_" + std::string(mode) + "_" + std::to_string(conns) + "conn_";
    json.Add(prefix + "queries_per_sec", qps, "queries/s");
    if (!pipelined) {
      json.Add(prefix + "p50_latency", p50, "us");
      json.Add(prefix + "p99_latency", p99, "us");
    }
  };

  for (unsigned conns = 1; conns <= max_conns; conns *= 2) {
    run_mode(conns, /*pipelined=*/false);
    run_mode(conns, /*pipelined=*/true);
  }

  // ---- connection-scale sweep: mostly-idle populations + churn ----
  const size_t conn_scale_max = EnvOr("SKL_BENCH_NET_CONNS", 4096);
  const size_t active_conns = std::max<size_t>(EnvOr("SKL_BENCH_NET_ACTIVE", 32), 1);
  const size_t fd_limit = RaiseFdLimit();
  if (conn_scale_max > 0) {
    PrintHeader("connection scale: " + std::to_string(active_conns) +
                " active roundtrip clients inside an idle population, "
                "with connection churn");
    std::printf("%6s  %-10s %10s %12s %10s %10s %10s\n", "conns", "mode",
                "queries", "queries/s", "p50(us)", "p99(us)", "churned");
  }
  const auto run_conn_scale = [&](size_t level) {
    // Idle sockets + active clients + our own files + server-side fds for
    // all of them: be conservative about what fits under the fd limit.
    if (level * 2 + 64 > fd_limit) {
      std::printf("%6zu  %-10s  skipped: fd limit %zu is too low\n", level,
                  "connscale", fd_limit);
      return;
    }
    const size_t idle = level > active_conns ? level - active_conns : 0;
    std::vector<int> idle_fds;
    idle_fds.reserve(idle);
    for (size_t i = 0; i < idle; ++i) {
      const int fd = ConnectIdle(port);
      SKL_CHECK_MSG(fd >= 0, "idle connect failed");
      idle_fds.push_back(fd);
    }
    const size_t per_conn =
        std::max<size_t>(total_queries / active_conns, 1);
    LatencyHistogram lat_hist;  // shared, recorded in ns (see run_mode)
    std::vector<ModeResult> results(active_conns);
    std::vector<ProvenanceClient> clients;
    clients.reserve(active_conns);
    for (size_t c = 0; c < active_conns; ++c) {
      auto client = ProvenanceClient::Connect("127.0.0.1", port);
      SKL_CHECK_MSG(client.ok(), client.status().ToString().c_str());
      clients.push_back(std::move(client).value());
    }
    std::atomic<bool> done{false};
    std::atomic<size_t> churned{0};
    // Connection churn alongside the measurement: connect, ping, close —
    // the accept/teardown path must not disturb the serving population.
    std::thread churner([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto client = ProvenanceClient::Connect("127.0.0.1", port);
        if (!client.ok()) continue;
        if (client->Ping().ok()) {
          churned.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    std::vector<std::thread> threads;
    Stopwatch wall;
    for (size_t c = 0; c < active_conns; ++c) {
      threads.emplace_back([&, c] {
        ProvenanceClient& client = clients[c];
        const std::vector<VertexPair> pairs =
            make_pairs(static_cast<unsigned>(c + 100), per_conn);
        ModeResult& result = results[c];
        Stopwatch sw;
        for (const auto& [v, w] : pairs) {
          sw.Restart();
          auto answer = client.Reaches(*id, v, w);
          lat_hist.Record(static_cast<uint64_t>(sw.ElapsedSeconds() * 1e9));
          SKL_CHECK_MSG(answer.ok(), answer.status().ToString().c_str());
          ++result.queries;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_secs = wall.ElapsedSeconds();
    done.store(true, std::memory_order_relaxed);
    churner.join();
    for (int fd : idle_fds) ::close(fd);

    ModeResult merged;
    for (ModeResult& r : results) merged.queries += r.queries;
    const double qps =
        wall_secs > 0 ? static_cast<double>(merged.queries) / wall_secs : 0;
    const double p50 = lat_hist.Quantile(0.50) / 1e3;
    const double p99 = lat_hist.Quantile(0.99) / 1e3;
    std::printf("%6zu  %-10s %10zu %12.0f %10.1f %10.1f %10zu\n", level,
                "connscale", merged.queries, qps, p50, p99, churned.load());
    const std::string prefix =
        "net_connscale_" + std::to_string(level) + "_";
    json.Add(prefix + "queries_per_sec", qps, "queries/s");
    json.Add(prefix + "p50_latency", p50, "us");
    json.Add(prefix + "p99_latency", p99, "us");
    json.Add(prefix + "churned_conns", static_cast<double>(churned.load()),
             "conns");
  };
  for (size_t level : {size_t{256}, size_t{1024}, size_t{4096}}) {
    if (level <= conn_scale_max) run_conn_scale(level);
  }

  (*server)->Shutdown();

  // ---- batch split: batches beside point reads on one reactor ----
  const size_t batch_total =
      EnvOr("SKL_BENCH_NET_BATCH_PAIRS", size_t{1} << 22);
  if (batch_total == 0) return 0;
  auto batch_service =
      ProvenanceService::Create(QblastSpec(), SpecSchemeKind::kTcm);
  SKL_CHECK_MSG(batch_service.ok(), batch_service.status().ToString().c_str());
  auto batch_run = batch_service->AddRun(gen.run);
  SKL_CHECK_MSG(batch_run.ok(), batch_run.status().ToString().c_str());
  ProvenanceServer::Options batch_options;
  batch_options.num_io_threads = 1;  // both clients share the reactor
  batch_options.num_threads = 2;
  auto batch_server = ProvenanceServer::Start(
      std::move(batch_service).value(), batch_options);
  SKL_CHECK_MSG(batch_server.ok(), batch_server.status().ToString().c_str());
  const uint16_t batch_port = (*batch_server)->port();
  PrintHeader("batch split: ReachesBatch stream beside timed point reads, "
              "one I/O thread");
  std::printf("%6s  %-10s %14s %14s %14s\n", "pairs", "path", "batch pairs/s",
              "point p50(us)", "point p99(us)");
  for (size_t size : {size_t{256}, size_t{1024}, size_t{4096}, size_t{16384}}) {
    auto batcher = ProvenanceClient::Connect("127.0.0.1", batch_port);
    auto reader = ProvenanceClient::Connect("127.0.0.1", batch_port);
    SKL_CHECK_MSG(batcher.ok(), batcher.status().ToString().c_str());
    SKL_CHECK_MSG(reader.ok(), reader.status().ToString().c_str());
    const std::vector<VertexPair> batch =
        make_pairs(static_cast<unsigned>(200 + size), size);
    const std::vector<VertexPair> points = make_pairs(300, 4096);
    LatencyHistogram lat_hist;  // recorded in ns (see run_mode)
    std::atomic<bool> done{false};
    std::thread point_reader([&] {
      Stopwatch sw;
      for (size_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
        const auto& [v, w] = points[i % points.size()];
        sw.Restart();
        auto answer = reader->Reaches(*batch_run, v, w);
        lat_hist.Record(static_cast<uint64_t>(sw.ElapsedSeconds() * 1e9));
        SKL_CHECK_MSG(answer.ok(), answer.status().ToString().c_str());
      }
    });
    size_t answered = 0;
    Stopwatch wall;
    while (answered < batch_total) {
      auto answers = batcher->ReachesBatch(*batch_run, batch);
      SKL_CHECK_MSG(answers.ok(), answers.status().ToString().c_str());
      answered += answers->size();
    }
    const double secs = wall.ElapsedSeconds();
    done.store(true, std::memory_order_relaxed);
    point_reader.join();
    const double pairs_per_sec =
        secs > 0 ? static_cast<double>(answered) / secs : 0;
    const double p50 = lat_hist.Quantile(0.50) / 1e3;
    const double p99 = lat_hist.Quantile(0.99) / 1e3;
    const char* path =
        size <= ProvenanceServer::kMaxInlineBatchPairs ? "inline" : "pool";
    std::printf("%6zu  %-10s %14.0f %14.1f %14.1f\n", size, path,
                pairs_per_sec, p50, p99);
    const std::string prefix = "net_batch_" + std::to_string(size) + "_";
    json.Add(prefix + "pairs_per_sec", pairs_per_sec, "pairs/s");
    json.Add(prefix + "point_p50_latency", p50, "us");
    json.Add(prefix + "point_p99_latency", p99, "us");
  }
  (*batch_server)->Shutdown();
  return 0;
}
