// The spec-pair memo (src/speclabel/memo.h) and the service built on it.
//
// Unit level: on small random DAGs (n <= 16, so the hashed slots collide)
// a memo over BFS/DFS must answer every ordered pair exactly as the raw
// search does, with four threads probing and filling one table at once
// (the TSan leg runs this).
//
// Service level: a service under each of the seven schemes and a TCM twin
// replay one seeded, randomized op sequence — AddRun / RemoveRun /
// ImportRun interleaved with Reaches / DependsOn / ModuleDependsOnData /
// DataDependsOnModule / ReachesBatch, including stale-handle and
// out-of-range probes — in lockstep. Exact reachability does not depend on
// the scheme, so every answer (value AND status code) must be identical.
// Queries are replayed so the memo answers from its table, and run
// removals and imports land mid-sequence. A failure prints the scheme,
// seed, op index and the recent op trace so the sequence replays from the
// seed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/provenance_service.h"
#include "src/speclabel/memo.h"
#include "src/workload/data_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

// ---------------------------------------------------------- memo unit tests --

Digraph RandomDag(VertexId n, Rng& rng) {
  DigraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.NextBelow(4) == 0) builder.AddEdge(u, v);
    }
  }
  return std::move(builder).Build();
}

TEST(MemoizedSchemeTest, AgreesWithRawSearchOnEveryPairFromFourThreads) {
  constexpr int kThreads = 4;
  constexpr int kPasses = 3;
  Rng rng(testing_util::TestSeed("MemoizedSchemeTest", 17));
  for (SpecSchemeKind kind : {SpecSchemeKind::kBfs, SpecSchemeKind::kDfs}) {
    for (VertexId n = 1; n <= 16; ++n) {
      SCOPED_TRACE(std::string(SpecSchemeKindName(kind)) +
                   " n=" + std::to_string(n));
      const Digraph g = RandomDag(n, rng);
      std::unique_ptr<SpecLabelingScheme> raw = CreateSpecScheme(kind);
      ASSERT_TRUE(raw->Build(g).ok());
      MemoTally tally;
      MemoizedScheme memo(CreateSpecScheme(kind), &tally);
      ASSERT_TRUE(memo.Build(g).ok());
      ASSERT_EQ(memo.name(), raw->name());
      ASSERT_TRUE(memo.SearchesGraph());

      std::atomic<uint64_t> mismatches{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int pass = 0; pass < kPasses; ++pass) {
            for (VertexId i = 0; i < n * n; ++i) {
              // Each thread walks the pairs from a different offset, so
              // threads fill and evict the same slots concurrently.
              const VertexId p =
                  (i + static_cast<VertexId>(t) * 7) % (n * n);
              const VertexId u = p / n;
              const VertexId v = p % n;
              if (memo.Reaches(u, v) != raw->Reaches(u, v)) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        });
      }
      for (std::thread& th : threads) th.join();
      EXPECT_EQ(mismatches.load(), 0u);
      // One lookup per call, and the repeated passes must have hit.
      EXPECT_EQ(tally.hits() + tally.misses(),
                uint64_t{kThreads} * kPasses * n * n);
      EXPECT_GT(tally.hits(), 0u);
    }
  }
}

TEST(MemoizedSchemeTest, SlotsFollowTheSpecSizeUpToTheCap) {
  MemoTally tally;
  const auto slots_for = [&](VertexId n) {
    MemoizedScheme memo(CreateSpecScheme(SpecSchemeKind::kBfs), &tally);
    SKL_CHECK(memo.Build(std::move(DigraphBuilder(n)).Build()).ok());
    return memo.num_slots();
  };
  EXPECT_EQ(slots_for(0), 1u);
  EXPECT_EQ(slots_for(3), 16u);     // bit_ceil(9)
  EXPECT_EQ(slots_for(16), 256u);   // exactly n^2
  EXPECT_EQ(slots_for(800), 65536u);  // capped: 512 KB
}

// ------------------------------------------------- differential conformance --

/// One side of the differential: a service and the export blobs its
/// ImportRun op replays. A blob names the scheme it was labeled under, so
/// each side imports its own scheme's export of the same pool run.
struct Side {
  std::unique_ptr<ProvenanceService> service;
  std::vector<std::vector<uint8_t>> blobs;
};

/// Replays one randomized op sequence against a service under `kind` and
/// its TCM twin, asserting identical behavior throughout.
class DifferentialTester {
 public:
  DifferentialTester(SpecSchemeKind kind, uint64_t seed, size_t num_shards)
      : kind_(kind), seed_(seed), rng_(seed) {
    const Specification spec = testing_util::MakeSpecFor(kind);
    for (uint64_t i = 0; i < 6; ++i) {
      pool_.push_back(testing_util::GenerateRun(
          spec, 30 + 10 * static_cast<uint32_t>(i), seed * 131 + i));
      DataGenOptions dopt;
      dopt.seed = seed * 17 + i;
      catalogs_.push_back(GenerateDataCatalog(pool_.back(), dopt));
    }
    const auto make_side = [&](SpecSchemeKind side_kind, size_t shards) {
      const auto create = [&](size_t n) {
        auto created = ProvenanceService::Create(Specification(spec),
                                                 side_kind, {.num_shards = n});
        SKL_CHECK_MSG(created.ok(), created.status().ToString().c_str());
        return std::make_unique<ProvenanceService>(std::move(created).value());
      };
      Side side{create(shards), {}};
      const std::unique_ptr<ProvenanceService> scratch = create(1);
      for (size_t i = 0; i < pool_.size(); ++i) {
        auto id = scratch->AddRun(pool_[i], &catalogs_[i]);
        SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
        side.blobs.push_back(*scratch->ExportRun(*id));
      }
      return side;
    };
    tested_ = make_side(kind, num_shards);
    twin_ = make_side(SpecSchemeKind::kTcm, 1);
  }

  void Run(size_t num_ops) {
    for (op_index_ = 0; op_index_ < num_ops; ++op_index_) {
      Step();
      if (::testing::Test::HasFailure()) return;
    }
    const ServiceStats stats = tested_.service->service_stats();
    const ServiceStats twin = twin_.service->service_stats();
    if (tested_.service->scheme().SearchesGraph()) {
      // A search scheme serves through the memo: the replay must have
      // exercised it, or the equivalence above proved nothing about it.
      EXPECT_GT(stats.cache_hits, 0u) << Context("final hit-count check");
      EXPECT_GT(stats.cache_misses, 0u) << Context("final miss-count check");
    } else {
      EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u)
          << Context("indexed scheme probed a memo");
    }
    EXPECT_EQ(twin.cache_hits + twin.cache_misses, 0u);
    // Every op-visible counter agrees; the memo fields are the twins' one
    // allowed difference.
    const auto counters = [](const ServiceStats& s) {
      return std::tuple{s.num_runs,           s.reaches_queries,
                        s.depends_on_queries, s.module_data_queries,
                        s.data_module_queries, s.batch_calls,
                        s.runs_ingested,      s.runs_imported,
                        s.runs_removed};
    };
    EXPECT_EQ(counters(stats), counters(twin)) << Context("final counters");
    EXPECT_EQ(twin.runs_ingested, issued_) << Context("a registration failed");
  }

 private:
  /// Everything a human needs to replay a failure: seed, scheme, op index
  /// and the trailing window of executed ops.
  std::string Context(const std::string& op) const {
    std::string out = "scheme=" + std::string(SpecSchemeKindName(kind_)) +
                      " seed=" + std::to_string(seed_) +
                      " op#" + std::to_string(op_index_) + ": " + op +
                      "\nrecent ops (oldest first):";
    for (const std::string& t : trace_) out += "\n  " + t;
    return out;
  }

  /// Runs `op` on both sides and requires the same outcome: the same
  /// status code, and equal values on success.
  template <typename Op>
  void Same(const std::string& what, const Op& op) {
    trace_.push_back("op#" + std::to_string(op_index_) + " " + what);
    if (trace_.size() > 40) trace_.pop_front();
    const auto a = op(tested_);
    const auto b = op(twin_);
    ASSERT_EQ(a.status().code(), b.status().code())
        << Context(what) << "\ntested: " << a.status().ToString()
        << "\ntwin:   " << b.status().ToString();
    if (a.ok()) ASSERT_EQ(*a, *b) << Context(what);
  }

  /// Live ids, in registration order (the same on both sides).
  std::vector<RunId> Live() const { return twin_.service->ListRuns(); }

  /// Picks a run id to query: mostly live, sometimes stale or never-issued.
  RunId PickId() {
    const uint64_t r = rng_.NextBelow(100);
    const std::vector<RunId> live = Live();
    if (r < 70 && !live.empty()) return live[rng_.NextBelow(live.size())];
    // Ids are allocated from 1 and never reused: [1, issued_] holds every
    // id handed out so far, possibly removed by now.
    if (r < 85 && issued_ > 0) {
      return RunId::FromValue(1 + rng_.NextBelow(issued_));
    }
    return RunId::FromValue(1000000 + rng_.NextBelow(5));  // never issued
  }

  RunStats StatsOf(RunId id) const {
    auto stats = twin_.service->Stats(id);
    if (stats.ok()) return *stats;
    RunStats absent;
    absent.num_vertices = 8;
    absent.num_items = 4;
    return absent;
  }

  static std::string Args(RunId id, uint64_t a, uint64_t b) {
    return "(" + std::to_string(id.value()) + ", " + std::to_string(a) +
           ", " + std::to_string(b) + ")";
  }

  void Step() {
    const uint64_t r = rng_.NextBelow(1000);
    if (r < 80) {  // AddRun
      const size_t i = rng_.NextBelow(pool_.size());
      const DataCatalog* catalog = (i % 2 == 1) ? &catalogs_[i] : nullptr;
      ++issued_;
      Same("AddRun(pool[" + std::to_string(i) + "])", [&](Side& s) {
        return s.service->AddRun(pool_[i], catalog);
      });
    } else if (r < 130) {  // RemoveRun: mostly a live run
      const std::vector<RunId> live = Live();
      const RunId id = !live.empty() && rng_.NextBelow(10) < 9
                           ? live[rng_.NextBelow(live.size())]
                           : RunId::FromValue(1000000 + rng_.NextBelow(5));
      Same("RemoveRun(" + std::to_string(id.value()) + ")",
           [&](Side& s) -> Result<bool> {
             SKL_RETURN_NOT_OK(s.service->RemoveRun(id));
             return true;
           });
    } else if (r < 170) {  // ImportRun
      const size_t i = rng_.NextBelow(pool_.size());
      ++issued_;
      Same("ImportRun(blob[" + std::to_string(i) + "])",
           [&](Side& s) { return s.service->ImportRun(s.blobs[i]); });
    } else if (r < 800) {  // Reaches — where the memo earns its keep
      RunId id;
      VertexId v, w;
      if (!recent_.empty() && rng_.NextBelow(2) == 0) {
        // Replay a recent query verbatim (its run may be gone by now).
        std::tie(id, v, w) = recent_[rng_.NextBelow(recent_.size())];
      } else {
        id = PickId();
        const VertexId n = StatsOf(id).num_vertices;
        v = static_cast<VertexId>(rng_.NextBelow(n + 2));  // may be o-o-r
        w = static_cast<VertexId>(rng_.NextBelow(n + 2));
      }
      Same("Reaches" + Args(id, v, w),
           [&](Side& s) { return s.service->Reaches(id, v, w); });
      recent_.push_back({id, v, w});
      if (recent_.size() > 64) recent_.pop_front();
    } else if (r < 880) {  // DependsOn
      const RunId id = PickId();
      const size_t items = StatsOf(id).num_items;
      const DataItemId x = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      const DataItemId y = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      Same("DependsOn" + Args(id, x, y),
           [&](Side& s) { return s.service->DependsOn(id, x, y); });
    } else if (r < 940) {  // the two mixed module/data directions
      const RunId id = PickId();
      const RunStats stats = StatsOf(id);
      const VertexId v =
          static_cast<VertexId>(rng_.NextBelow(stats.num_vertices + 2));
      const DataItemId x =
          static_cast<DataItemId>(rng_.NextBelow(stats.num_items + 2));
      if (r % 2 == 0) {
        Same("ModuleDependsOnData" + Args(id, v, x), [&](Side& s) {
          return s.service->ModuleDependsOnData(id, v, x);
        });
      } else {
        Same("DataDependsOnModule" + Args(id, x, v), [&](Side& s) {
          return s.service->DataDependsOnModule(id, x, v);
        });
      }
    } else if (r < 980) {  // ReachesBatch over a mixed window
      const RunId id = PickId();
      const VertexId n = StatsOf(id).num_vertices;
      std::vector<VertexPair> pairs;
      for (int i = 0; i < 8; ++i) {
        pairs.push_back({static_cast<VertexId>(rng_.NextBelow(n)),
                         static_cast<VertexId>(rng_.NextBelow(n))});
      }
      Same("ReachesBatch(" + std::to_string(id.value()) + ", 8 pairs)",
           [&](Side& s) { return s.service->ReachesBatch(id, pairs); });
    } else {  // registry views must agree too
      const RunId id = PickId();
      Same("registry views", [&](Side& s) {
        return Result<std::pair<std::vector<RunId>, bool>>(
            std::pair{s.service->ListRuns(), s.service->Contains(id)});
      });
    }
  }

  const SpecSchemeKind kind_;
  const uint64_t seed_;
  Rng rng_;
  std::vector<::skl::Run> pool_;
  std::vector<DataCatalog> catalogs_;
  Side tested_;
  Side twin_;
  uint64_t issued_ = 0;  ///< registrations so far = the highest issued id
  std::deque<std::tuple<RunId, VertexId, VertexId>> recent_;
  std::deque<std::string> trace_;
  size_t op_index_ = 0;
};

TEST(SpecMemoDifferentialTest, EverySchemeAnswersLikeTheTcmTwin) {
  const SpecSchemeKind kinds[] = {
      SpecSchemeKind::kTcm,      SpecSchemeKind::kBfs,
      SpecSchemeKind::kDfs,      SpecSchemeKind::kInterval,
      SpecSchemeKind::kTreeCover, SpecSchemeKind::kChain,
      SpecSchemeKind::kTwoHop};
  // Shard counts rotate so the replay covers the fully contended
  // single-shard layout and genuinely striped ones.
  const size_t shard_choices[] = {1, 2, 8};
  const uint64_t base_seed =
      testing_util::TestSeed("SpecMemoDifferentialTest", 0xC0FFEE);
  const uint64_t iters = 1600 * testing_util::TestIterScale();
  size_t i = 0;
  for (SpecSchemeKind kind : kinds) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    DifferentialTester tester(kind, /*seed=*/base_seed + i,
                              shard_choices[i % 3]);
    // 7 schemes x 1600 ops: more than 10k ops in total.
    tester.Run(iters);
    if (::testing::Test::HasFailure()) return;
    ++i;
  }
}

}  // namespace
}  // namespace skl
