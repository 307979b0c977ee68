// Concurrency stress for the sharded run registry and its per-shard result
// cache, written to run under the CI ThreadSanitizer leg. Each round runs
// twice: on TCM (indexed, no cache: the tallies and locks alone) and on BFS
// (a search scheme, so the seqlock shard caches are live). 4 writer threads
// (AddRun / ImportRun / RemoveRun churn) and 4 reader threads (single +
// batch queries verified against precomputed answers) hammer one service,
// first with every id colliding on a single shard, then striped over many
// — while a swapper thread replaces the whole service with a
// LoadSnapshot-restored one mid-flight, using exactly the shared_mutex
// swap discipline of ProvenanceServer's kLoadSnapshot handler. Readers
// must keep observing bit-identical answers for the stable runs across
// the swap (the snapshot contains them with the same ids and labels), and
// no interleaving may produce a torn cache answer, a lost run, or a TSan
// report.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/workload/query_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kReaderRounds = 60;
constexpr int kWriterRounds = 40;

::skl::Run GenerateRun(const Specification& spec, uint32_t target,
                       uint64_t seed) {
  RunGenerator generator(&spec);
  RunGenOptions opt;
  opt.target_vertices = target;
  opt.seed = seed;
  auto gen = generator.Generate(opt);
  SKL_CHECK_MSG(gen.ok(), gen.status().ToString().c_str());
  return std::move(gen->run);
}

/// One full stress round at the given shard count and scheme. num_shards = 1
/// forces every run — stable and churned — onto one shard (maximal lock and
/// cache collision); larger counts exercise genuine striping.
void StressWithShards(size_t num_shards, SpecSchemeKind kind) {
  SCOPED_TRACE("num_shards=" + std::to_string(num_shards) +
               " scheme=" + SpecSchemeKindName(kind));
  Specification spec = testing_util::MakeRunningExample().spec;

  ProvenanceService::Options options;
  options.num_shards = num_shards;
  options.cache_slots = 128;  // small: constant eviction + seqlock traffic
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
        // Query the freshly added run once (warming its shard's cache),
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
  // caches and all, and the restored stats counters started afresh
  // relative to the pre-swap traffic (only post-swap ops are visible).
  for (size_t i = 0; i < kStableRuns; ++i) {
    auto answers = service.ReachesBatch(stable_ids[i], queries[i]);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(*answers, expected[i]);
  }
  const ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.snapshot_saves, 0u)
      << "counters must reset across LoadSnapshot";
  // The restored service keeps the scheme's cache placement: BFS probed its
  // shard caches for the sanity batches above, TCM has none to probe.
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

}  // namespace
}  // namespace skl
