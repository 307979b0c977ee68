// Counter/histogram consistency: the observability layer must agree with
// itself. Under a concurrent mixed workload, every per-opcode histogram
// count in the kMetrics exposition has to equal the matching ServiceStats
// query counter (one answered frame = one observation = one counted
// query), the result-cache counters have to account for exactly the
// cache-eligible answered queries, and the per-shard cache gauges have to
// sum to the global counters. Runs under the TSan leg with everything
// else: the invariants only hold if the relaxed atomics in the histogram
// and the counters are actually race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/core/provenance_service.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

/// The value of one exact series (`name{labels}` spelled in full) in a
/// Prometheus text exposition; fails the test if the series is absent.
uint64_t SeriesValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "no series " << series;
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
}

/// Sums every series whose line starts with `prefix` (e.g. all shards of
/// one per-shard gauge family).
uint64_t SumSeries(const std::string& text, const std::string& prefix) {
  uint64_t total = 0;
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos != 0 && text[pos - 1] != '\n') {
      pos += prefix.size();
      continue;
    }
    const size_t space = text.find(' ', pos);
    EXPECT_NE(space, std::string::npos);
    total += std::strtoull(text.c_str() + space + 1, nullptr, 10);
    pos = space;
  }
  return total;
}

TEST(MetricsConsistencyTest, HistogramsCountersAndCacheAgreeUnderLoad) {
  auto ex = testing_util::MakeRunningExample();
  RunGenerator generator(&ex.spec);
  RunGenOptions gopt;
  gopt.target_vertices = 50;
  gopt.seed = 23;
  auto generated = generator.Generate(gopt);
  ASSERT_TRUE(generated.ok());
  DataGenOptions dopt;
  dopt.seed = 5;
  DataCatalog catalog = GenerateDataCatalog(generated->run, dopt);

  // BFS: a search scheme, so the shard caches (and their gauges) exist.
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kBfs);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(generated->run, &catalog);
  ASSERT_TRUE(id.ok());
  const RunId run = *id;
  const VertexId n = generated->run.num_vertices();
  auto run_stats = service->Stats(run);
  ASSERT_TRUE(run_stats.ok());
  const DataItemId items = static_cast<DataItemId>(run_stats->num_items);
  ASSERT_GT(items, 0u);

  ProvenanceServer::Options options;
  options.num_threads = 4;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok());

  // Mixed concurrent workload: single reads (cache-eligible), batch reads
  // (cache-eligible per pair, one frame), and stats polls (neither).
  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  std::atomic<uint64_t> reaches_frames{0};
  std::atomic<uint64_t> batch_frames{0};
  std::atomic<uint64_t> depends_frames{0};
  std::atomic<uint64_t> cache_lookups{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client =
          ProvenanceClient::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<VertexPair> pairs = {{0, 1}, {1, 2}, {2, 3}};
      for (int round = 0; round < kRounds; ++round) {
        const VertexId v = static_cast<VertexId>((c * 31 + round) % n);
        const VertexId w = static_cast<VertexId>((v * 7 + 1) % n);
        if (!client->Reaches(run, v, w).ok()) failures.fetch_add(1);
        reaches_frames.fetch_add(1);
        cache_lookups.fetch_add(1);
        if (!client->ReachesBatch(run, pairs).ok()) failures.fetch_add(1);
        batch_frames.fetch_add(1);
        cache_lookups.fetch_add(pairs.size());
        const DataItemId x = static_cast<DataItemId>(round % items);
        if (!client->DependsOn(run, x, (x + 1) % items).ok()) {
          failures.fetch_add(1);
        }
        depends_frames.fetch_add(1);
        cache_lookups.fetch_add(1);
        if (round % 10 == 0 && !client->GetServiceStats().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0u);

  auto probe = ProvenanceClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  auto stats = probe->GetServiceStats();
  ASSERT_TRUE(stats.ok());
  auto text = probe->GetMetrics();
  ASSERT_TRUE(text.ok());

  // One answered frame = one histogram observation, per opcode — and the
  // queue-wait and execute histograms saw the same frames.
  EXPECT_EQ(SeriesValue(*text, "skl_server_execute_us_count{op=\"Reaches\"}"),
            reaches_frames.load());
  EXPECT_EQ(
      SeriesValue(*text, "skl_server_queue_wait_us_count{op=\"Reaches\"}"),
      reaches_frames.load());
  EXPECT_EQ(
      SeriesValue(*text, "skl_server_execute_us_count{op=\"ReachesBatch\"}"),
      batch_frames.load());
  EXPECT_EQ(
      SeriesValue(*text, "skl_server_execute_us_count{op=\"DependsOn\"}"),
      depends_frames.load());

  // The ServiceStats counters count per answered pair (a batch of 3 pairs
  // is 3 queries), matching what the clients issued.
  EXPECT_EQ(stats->reaches_queries,
            reaches_frames.load() + batch_frames.load() * 3);
  EXPECT_EQ(stats->depends_on_queries, depends_frames.load());
  EXPECT_EQ(stats->batch_calls, batch_frames.load());

  // Every cache-eligible answered query was exactly one cache lookup:
  // hits and misses partition them, nothing double-counted, nothing lost.
  EXPECT_EQ(stats->cache_hits + stats->cache_misses, cache_lookups.load());
  EXPECT_GT(stats->cache_hits, 0u);  // repeated batch pairs must hit

  // The per-shard gauges decompose the same totals.
  EXPECT_EQ(SumSeries(*text, "skl_cache_shard_hits{"), stats->cache_hits);
  EXPECT_EQ(SumSeries(*text, "skl_cache_shard_misses{"),
            stats->cache_misses);

  (*server)->Shutdown();
}

}  // namespace
}  // namespace skl
