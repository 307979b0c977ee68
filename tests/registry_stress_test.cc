// Concurrency stress for the sharded run registry, written to run under the
// CI ThreadSanitizer leg. Each round runs twice: on TCM (indexed: the
// tallies and locks alone) and on BFS (a search scheme, so every reader also
// probes and fills the epoch's spec-pair memo). 4 writer threads
// (AddRun / ImportRun / RemoveRun churn) and 4 reader threads (single +
// batch queries verified against precomputed answers) hammer one service,
// first with every id colliding on a single shard, then striped over many
// — while a swapper thread replaces the whole service with a
// LoadSnapshot-restored one mid-flight, using exactly the shared_mutex
// swap discipline of ProvenanceServer's kLoadSnapshot handler. Readers
// must keep observing bit-identical answers for the stable runs across
// the swap (the snapshot contains them with the same ids and labels), and
// no interleaving may produce a wrong memo answer, a lost run, or a TSan
// report. The registry's own reader/writer lock is driven directly too:
// every writer kind against readers on one shard, and a moved read handle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/core/run_registry.h"
#include "src/workload/query_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kReaderRounds = 60;
constexpr int kWriterRounds = 40;

using testing_util::GenerateRun;

/// One full stress round at the given shard count and scheme. num_shards = 1
/// forces every run — stable and churned — onto one shard (maximal lock
/// collision); larger counts exercise genuine striping.
void StressWithShards(size_t num_shards, SpecSchemeKind kind) {
  SCOPED_TRACE("num_shards=" + std::to_string(num_shards) +
               " scheme=" + SpecSchemeKindName(kind));
  Specification spec = testing_util::MakeRunningExample().spec;

  ProvenanceService::Options options;
  options.num_shards = num_shards;
  auto created = ProvenanceService::Create(std::move(spec), kind, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ProvenanceService service = std::move(created).value();

  // Stable runs: ingested before any thread starts, never removed, and
  // part of the snapshot — their answers are the invariant readers check
  // on both sides of the swap.
  constexpr size_t kStableRuns = 4;
  std::vector<::skl::Run> stable;
  std::vector<RunId> stable_ids;
  std::vector<std::vector<VertexPair>> queries;
  std::vector<std::vector<bool>> expected;
  for (size_t i = 0; i < kStableRuns; ++i) {
    stable.push_back(GenerateRun(service.spec(), 60 + 15 * i, 41 + i));
    auto id = service.AddRun(stable.back());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    stable_ids.push_back(*id);
    queries.push_back(
        GenerateQueries(stable.back().num_vertices(), 400, 500 + i));
    auto answers = service.ReachesBatch(*id, queries.back());
    ASSERT_TRUE(answers.ok());
    expected.push_back(*answers);
  }

  // Churn material for the writers, plus an import blob.
  ::skl::Run churn_run = GenerateRun(service.spec(), 50, 99);
  auto blob_source = service.AddRun(churn_run);
  ASSERT_TRUE(blob_source.ok());
  auto blob = service.ExportRun(*blob_source);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(service.RemoveRun(*blob_source).ok());

  const std::string snapshot_path =
      PidQualifiedTempPath("skl_registry_stress_" + std::to_string(num_shards) +
                               "_" + SpecSchemeKindName(kind),
                           ".skls");
  ASSERT_TRUE(service.SaveSnapshot(snapshot_path).ok());

  // The server's swap discipline: every service call under a shared lock,
  // the LoadSnapshot swap under the unique lock (src/net/server.cc,
  // kLoadSnapshot). `service` itself is internally synchronized; this
  // outer lock only protects the move-assignment.
  std::shared_mutex swap_mu;
  std::atomic<size_t> failures{0};
  std::atomic<int> swaps_done{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kReaderRounds; ++round) {
        const size_t i = (static_cast<size_t>(t) + round) % kStableRuns;
        std::shared_lock lock(swap_mu);
        if (t % 2 == 0) {
          auto answers = service.ReachesBatch(stable_ids[i], queries[i]);
          if (!answers.ok() || *answers != expected[i]) {
            failures.fetch_add(1);
            return;
          }
        } else {
          for (size_t q = 0; q < queries[i].size(); q += 7) {
            auto r = service.Reaches(stable_ids[i], queries[i][q].first,
                                     queries[i][q].second);
            if (!r.ok() || *r != expected[i][q]) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kWriterRounds; ++round) {
        std::shared_lock lock(swap_mu);
        Result<RunId> id = (t % 2 == 0) ? service.AddRun(churn_run)
                                        : service.ImportRun(*blob);
        if (!id.ok()) {
          failures.fetch_add(1);
          return;
        }
        // Query the freshly added run once (a reflexive pair: a memo probe),
        // then retire it. The swap may have replaced the registry between
        // our Add and Remove: NotFound is then the *correct* outcome for
        // both calls, not a failure.
        auto self = service.Reaches(*id, 0, 0);
        if (self.ok() && !*self) {
          failures.fetch_add(1);  // reflexive reachability broken
          return;
        }
        Status removed = service.RemoveRun(*id);
        if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  // The swapper: two mid-flight service replacements from the snapshot.
  threads.emplace_back([&] {
    for (int s = 0; s < 2; ++s) {
      auto loaded = ProvenanceService::LoadSnapshot(snapshot_path, options);
      if (!loaded.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::unique_lock lock(swap_mu);
      service = std::move(loaded).value();
      swaps_done.fetch_add(1);
    }
  });
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(swaps_done.load(), 2);
  // Post-swap sanity: the stable runs answer exactly as before, cold
  // memo and all, and the restored stats counters started afresh
  // relative to the pre-swap traffic (only post-swap ops are visible).
  for (size_t i = 0; i < kStableRuns; ++i) {
    auto answers = service.ReachesBatch(stable_ids[i], queries[i]);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(*answers, expected[i]);
  }
  const ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.snapshot_saves, 0u)
      << "counters must reset across LoadSnapshot";
  // The restored service keeps the scheme's memo placement: BFS probed its
  // memo for the sanity batches above, TCM has none to probe.
  if (kind == SpecSchemeKind::kBfs) {
    EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
  } else {
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
  }

  std::error_code ec;
  std::filesystem::remove(snapshot_path, ec);
}

TEST(RegistryStressTest, CollidingShardsSurviveChurnAndSwap) {
  StressWithShards(1, SpecSchemeKind::kTcm);
  StressWithShards(1, SpecSchemeKind::kBfs);
}

TEST(RegistryStressTest, StripedShardsSurviveChurnAndSwap) {
  StressWithShards(16, SpecSchemeKind::kTcm);
  StressWithShards(16, SpecSchemeKind::kBfs);
}

/// A record whose stats carry `marker`, so a reader can tell it apart.
RunRecord MarkedRecord(VertexId marker) {
  RunRecord record;
  record.stats.num_vertices = marker;
  return record;
}

TEST(RegistryStressTest, OneShardWritersNeverTearReaders) {
  // Every writer kind on the one shard readers use: Publish + Remove churn
  // and batched Restore + Remove, while readers resolve the stable runs and
  // tally each read. Readers must always see the stable records, and the
  // tallies must sum to exactly the reads made.
  RunRegistry registry({.num_shards = 1});
  constexpr VertexId kStable = 4;
  for (VertexId i = 0; i < kStable; ++i) registry.Publish(MarkedRecord(i));
  constexpr int kRegistryReaders = 6;
  constexpr int kReads = 3000;
  std::atomic<bool> readers_done{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kRegistryReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kReads; ++r) {
        const VertexId i = static_cast<VertexId>(t + r) % kStable;
        RunRegistry::ReadHandle handle = registry.AcquireRead(i + 1);
        if (!handle || handle.record().stats.num_vertices != i) {
          failures.fetch_add(1);
        }
        if (handle) handle.Count(Tally::kReaches);
      }
    });
  }
  threads.emplace_back([&] {
    while (!readers_done.load()) {
      const uint64_t id = registry.Publish(MarkedRecord(7));
      if (!registry.Remove(id)) failures.fetch_add(1);
    }
  });
  threads.emplace_back([&] {
    for (uint64_t base = 1'000'000; !readers_done.load(); base += 3) {
      std::vector<uint64_t> ids = {base, base + 1, base + 2};
      std::vector<RunRecord> records(3, MarkedRecord(9));
      registry.Restore(ids, records);
      for (uint64_t id : ids) {
        if (!registry.Remove(id)) failures.fetch_add(1);
      }
    }
  });
  for (int t = 0; t < kRegistryReaders; ++t) threads[t].join();
  readers_done.store(true);
  for (size_t t = kRegistryReaders; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(registry.size(), kStable);
  EXPECT_EQ(registry.TotalTally(Tally::kReaches),
            uint64_t{kRegistryReaders} * kReads);
}

TEST(RegistryStressTest, MovedReadHandleReleasesItsShardOnce) {
  // A handle moved out of AcquireRead holds the shard until the last move
  // target is destroyed, and releases it exactly once: a later Remove on
  // the shard waits for it, then finishes. A count released twice or never
  // leaves the Remove stuck for good, so the join is bounded and a miss
  // aborts the process (the stuck thread cannot be joined).
  RunRegistry registry({.num_shards = 1});
  const uint64_t held_id = registry.Publish(MarkedRecord(1));
  const uint64_t removed_id = registry.Publish(MarkedRecord(2));
  std::optional<RunRegistry::ReadHandle> held;
  {
    RunRegistry::ReadHandle handle = registry.AcquireRead(held_id);
    ASSERT_TRUE(handle);
    held.emplace(std::move(handle));
  }  // the moved-from handle releases nothing
  ASSERT_TRUE(*held);
  EXPECT_EQ(held->record().stats.num_vertices, 1u);

  std::promise<bool> removed;
  std::future<bool> done = removed.get_future();
  std::thread remover(
      [&] { removed.set_value(registry.Remove(removed_id)); });
  EXPECT_EQ(done.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "a writer entered a shard a reader still held";
  held.reset();
  if (done.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
    std::fprintf(stderr,
                 "Remove never finished: the read pin was not released "
                 "exactly once\n");
    std::abort();
  }
  remover.join();
  EXPECT_TRUE(done.get());
  EXPECT_FALSE(registry.Contains(removed_id));
  EXPECT_TRUE(registry.Contains(held_id));
}

}  // namespace
}  // namespace skl
