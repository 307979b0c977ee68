// Differential conformance suite for the sharded registry's reachability
// result cache: a cache-enabled service and a cache-disabled twin replay
// one seeded, randomized op sequence — AddRun / RemoveRun / ImportRun
// interleaved with Reaches / DependsOn / ModuleDependsOnData /
// DataDependsOnModule / ReachesBatch, including stale-handle and
// out-of-range probes — in lockstep, and every single answer (value AND
// status code) must be bit-identical between the two. Repeated queries are
// deliberately replayed so the cached side actually answers from the cache
// (asserted via the hit counter at the end; only the search schemes BFS
// and DFS keep a cache, so for the indexed ones the end check asserts that
// no probe happened at all), and removals/imports bump
// shard generations mid-sequence, so stale entries get every chance to
// leak. Runs across all 7 schemes, rotating shard counts, >= 10k ops in
// total; a failure prints the scheme, seed, op index and the recent op
// trace so the exact sequence replays from the seed.
//
// Plus direct unit tests of QueryCache itself: key/kind separation,
// generation invalidation, overwrite-on-collision, and the seqlock's
// refusal to answer from a mid-publish slot is covered indirectly by the
// TSan stress test (tests/registry_stress_test.cc).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/provenance_service.h"
#include "src/core/query_cache.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

// --------------------------------------------------- QueryCache unit tests --

TEST(QueryCacheTest, LookupMissesOnEmptyAndHitsAfterInsert) {
  QueryCache cache(64);
  bool answer = false;
  EXPECT_FALSE(cache.Lookup(1, 7, 1, 2, QueryKind::kReaches, &answer));
  cache.Insert(1, 7, 1, 2, QueryKind::kReaches, true);
  ASSERT_TRUE(cache.Lookup(1, 7, 1, 2, QueryKind::kReaches, &answer));
  EXPECT_TRUE(answer);
  cache.Insert(1, 7, 1, 3, QueryKind::kReaches, false);
  ASSERT_TRUE(cache.Lookup(1, 7, 1, 3, QueryKind::kReaches, &answer));
  EXPECT_FALSE(answer);
}

TEST(QueryCacheTest, KindIsPartOfTheKey) {
  QueryCache cache(64);
  cache.Insert(1, 7, 4, 5, QueryKind::kReaches, true);
  bool answer = false;
  // The same (run, src, dst) under a different kind must not hit.
  EXPECT_FALSE(cache.Lookup(1, 7, 4, 5, QueryKind::kDependsOn, &answer));
  EXPECT_FALSE(cache.Lookup(1, 7, 4, 5, QueryKind::kModuleData, &answer));
  EXPECT_TRUE(cache.Lookup(1, 7, 4, 5, QueryKind::kReaches, &answer));
}

TEST(QueryCacheTest, GenerationBumpInvalidatesInOneStep) {
  QueryCache cache(64);
  cache.Insert(3, 9, 0, 1, QueryKind::kReaches, true);
  bool answer = false;
  ASSERT_TRUE(cache.Lookup(3, 9, 0, 1, QueryKind::kReaches, &answer));
  // A newer generation never sees older stamps...
  EXPECT_FALSE(cache.Lookup(4, 9, 0, 1, QueryKind::kReaches, &answer));
  // ...and an older stamp can equally never satisfy a rolled-back probe.
  EXPECT_FALSE(cache.Lookup(2, 9, 0, 1, QueryKind::kReaches, &answer));
  cache.Insert(4, 9, 0, 1, QueryKind::kReaches, false);
  ASSERT_TRUE(cache.Lookup(4, 9, 0, 1, QueryKind::kReaches, &answer));
  EXPECT_FALSE(answer);
}

TEST(QueryCacheTest, CollidingKeysOverwriteRatherThanLie) {
  // A 1-slot cache makes every insert collide: the latest write wins and
  // the evicted key misses — it must never return the other key's answer.
  QueryCache cache(1);
  ASSERT_EQ(cache.num_slots(), 1u);
  cache.Insert(1, 1, 0, 0, QueryKind::kReaches, true);
  cache.Insert(1, 2, 5, 6, QueryKind::kReaches, false);
  bool answer = true;
  EXPECT_FALSE(cache.Lookup(1, 1, 0, 0, QueryKind::kReaches, &answer));
  ASSERT_TRUE(cache.Lookup(1, 2, 5, 6, QueryKind::kReaches, &answer));
  EXPECT_FALSE(answer);
}

// ------------------------------------------------- differential conformance --

/// A tree-shaped specification for the interval scheme (which rejects spec
/// graphs with undirected cycles); same shape as net_server_test.cc uses.
Specification MakeTreeSpec() {
  SpecificationBuilder builder;
  VertexId a = builder.AddModule("a");
  VertexId b = builder.AddModule("b");
  VertexId c = builder.AddModule("c");
  VertexId d = builder.AddModule("d");
  builder.AddEdge(a, b).AddEdge(b, c).AddEdge(c, d);
  builder.DeclareLoop({b, c});
  auto spec = std::move(builder).Build();
  SKL_CHECK_MSG(spec.ok(), spec.status().ToString().c_str());
  return std::move(spec).value();
}

Specification MakeSpecFor(SpecSchemeKind kind) {
  return kind == SpecSchemeKind::kInterval
             ? MakeTreeSpec()
             : testing_util::MakeRunningExample().spec;
}

/// Replays one randomized op sequence against a cache-enabled service and
/// its cache-disabled twin, asserting bit-identical behavior throughout.
class DifferentialTester {
 public:
  DifferentialTester(SpecSchemeKind kind, uint64_t seed, size_t num_shards)
      : kind_(kind), seed_(seed), rng_(seed) {
    ProvenanceService::Options cached_options;
    cached_options.num_shards = num_shards;
    // Deliberately small: evictions and slot collisions must be part of
    // what the differential replay proves harmless.
    cached_options.cache_slots = 256;
    auto cached = ProvenanceService::Create(MakeSpecFor(kind), kind,
                                            cached_options);
    SKL_CHECK_MSG(cached.ok(), cached.status().ToString().c_str());
    cached_ = std::make_unique<ProvenanceService>(std::move(cached).value());

    ProvenanceService::Options plain_options;
    plain_options.num_shards = 1;
    plain_options.cache_slots = 0;  // the reference: every answer computed
    auto plain =
        ProvenanceService::Create(MakeSpecFor(kind), kind, plain_options);
    SKL_CHECK_MSG(plain.ok(), plain.status().ToString().c_str());
    plain_ = std::make_unique<ProvenanceService>(std::move(plain).value());

    // A pool of runs (with catalogs on the odd ones) both services ingest
    // from, plus export blobs for the ImportRun op.
    RunGenerator generator(&cached_->spec());
    for (uint64_t i = 0; i < 6; ++i) {
      RunGenOptions opt;
      opt.target_vertices = 30 + 10 * static_cast<uint32_t>(i);
      opt.seed = seed * 131 + i;
      auto gen = generator.Generate(opt);
      SKL_CHECK_MSG(gen.ok(), gen.status().ToString().c_str());
      pool_.push_back(std::move(gen->run));
      DataGenOptions dopt;
      dopt.seed = seed * 17 + i;
      catalogs_.push_back(GenerateDataCatalog(pool_.back(), dopt));
    }
    auto scratch =
        ProvenanceService::Create(MakeSpecFor(kind), kind, plain_options);
    SKL_CHECK_MSG(scratch.ok(), scratch.status().ToString().c_str());
    for (size_t i = 0; i < pool_.size(); ++i) {
      auto id = scratch->AddRun(pool_[i], &catalogs_[i]);
      SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
      auto blob = scratch->ExportRun(*id);
      SKL_CHECK_MSG(blob.ok(), blob.status().ToString().c_str());
      blobs_.push_back(std::move(blob).value());
    }
  }

  void Run(size_t num_ops) {
    for (op_index_ = 0; op_index_ < num_ops; ++op_index_) {
      Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    const ServiceStats stats = cached_->service_stats();
    if (cached_->scheme().SearchesGraph()) {
      // A search scheme keeps the cache: the replay must have exercised
      // it, or the equivalence above proved nothing about it.
      EXPECT_GT(stats.cache_hits, 0u) << Context("final hit-count check");
      EXPECT_GT(stats.cache_misses, 0u) << Context("final miss-count check");
    } else {
      // An indexed scheme keeps none despite cache_slots > 0: not one
      // probe, and the answers above were still identical to the twin's.
      EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u)
          << Context("indexed scheme probed a cache");
    }
    // And the op-visible counters must agree between the twins (the cache
    // fields are the twins' one allowed difference).
    const ServiceStats plain_stats = plain_->service_stats();
    EXPECT_EQ(stats.num_runs, plain_stats.num_runs) << Context("num_runs");
    EXPECT_EQ(stats.reaches_queries, plain_stats.reaches_queries)
        << Context("reaches_queries");
    EXPECT_EQ(stats.depends_on_queries, plain_stats.depends_on_queries)
        << Context("depends_on_queries");
    EXPECT_EQ(stats.runs_ingested, plain_stats.runs_ingested)
        << Context("runs_ingested");
    EXPECT_EQ(stats.runs_removed, plain_stats.runs_removed)
        << Context("runs_removed");
    EXPECT_EQ(stats.runs_imported, plain_stats.runs_imported)
        << Context("runs_imported");
    EXPECT_EQ(plain_stats.cache_hits, 0u) << Context("plain twin hit cache");
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

  void Record(const std::string& op) {
    trace_.push_back("op#" + std::to_string(op_index_) + " " + op);
    if (trace_.size() > 40) trace_.pop_front();
  }

  void ExpectSameBool(const Result<bool>& c, const Result<bool>& p,
                      const std::string& op) {
    ASSERT_EQ(c.ok(), p.ok()) << Context(op) << "\ncached: "
                              << (c.ok() ? "ok" : c.status().ToString())
                              << "\nplain:  "
                              << (p.ok() ? "ok" : p.status().ToString());
    if (c.ok()) {
      ASSERT_EQ(*c, *p) << Context(op);
    } else {
      ASSERT_EQ(c.status().code(), p.status().code()) << Context(op);
    }
  }

  /// Picks a run id to query: mostly live, sometimes stale or never-issued.
  uint64_t PickId() {
    const uint64_t r = rng_.NextBelow(100);
    if (r < 70 && !live_.empty()) {
      return live_[rng_.NextBelow(live_.size())];
    }
    if (r < 85 && !all_.empty()) {
      return all_[rng_.NextBelow(all_.size())];  // possibly removed by now
    }
    return 1000000 + rng_.NextBelow(5);  // never issued
  }

  VertexId VerticesOf(uint64_t id) {
    auto stats = plain_->Stats(RunId::FromValue(id));
    return stats.ok() ? stats->num_vertices : 8;
  }

  void Step() {
    const uint64_t r = rng_.NextBelow(1000);
    if (r < 80) {  // AddRun
      const size_t i = rng_.NextBelow(pool_.size());
      const DataCatalog* catalog = (i % 2 == 1) ? &catalogs_[i] : nullptr;
      Record("AddRun(pool[" + std::to_string(i) + "]" +
             (catalog ? ", catalog" : "") + ")");
      auto c = cached_->AddRun(pool_[i], catalog);
      auto p = plain_->AddRun(pool_[i], catalog);
      ASSERT_EQ(c.ok(), p.ok()) << Context("AddRun");
      ASSERT_TRUE(c.ok()) << Context("AddRun") << c.status().ToString();
      ASSERT_EQ(c->value(), p->value())
          << Context("AddRun: twins diverged on allocated id");
      live_.push_back(c->value());
      all_.push_back(c->value());
      return;
    }
    if (r < 130) {  // RemoveRun
      uint64_t id;
      if (!live_.empty() && rng_.NextBelow(10) < 9) {
        const size_t i = rng_.NextBelow(live_.size());
        id = live_[i];
        live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        id = 1000000 + rng_.NextBelow(5);
      }
      Record("RemoveRun(" + std::to_string(id) + ")");
      const Status c = cached_->RemoveRun(RunId::FromValue(id));
      const Status p = plain_->RemoveRun(RunId::FromValue(id));
      ASSERT_EQ(c.code(), p.code()) << Context("RemoveRun");
      return;
    }
    if (r < 170) {  // ImportRun
      const size_t i = rng_.NextBelow(blobs_.size());
      Record("ImportRun(blob[" + std::to_string(i) + "])");
      auto c = cached_->ImportRun(blobs_[i]);
      auto p = plain_->ImportRun(blobs_[i]);
      ASSERT_EQ(c.ok(), p.ok()) << Context("ImportRun");
      ASSERT_TRUE(c.ok()) << Context("ImportRun") << c.status().ToString();
      ASSERT_EQ(c->value(), p->value()) << Context("ImportRun id");
      live_.push_back(c->value());
      all_.push_back(c->value());
      return;
    }
    if (r < 800) {  // Reaches — the cache's bread and butter
      uint64_t id;
      VertexId v, w;
      if (!recent_.empty() && rng_.NextBelow(2) == 0) {
        // Replay a recent query verbatim: this is what turns the cached
        // side's lookups into hits.
        const auto& [rid, rv, rw] = recent_[rng_.NextBelow(recent_.size())];
        id = rid;
        v = rv;
        w = rw;
      } else {
        id = PickId();
        const VertexId n = VerticesOf(id);
        v = static_cast<VertexId>(rng_.NextBelow(n + 2));  // may be o-o-r
        w = static_cast<VertexId>(rng_.NextBelow(n + 2));
      }
      Record("Reaches(" + std::to_string(id) + ", " + std::to_string(v) +
             ", " + std::to_string(w) + ")");
      ExpectSameBool(cached_->Reaches(RunId::FromValue(id), v, w),
                     plain_->Reaches(RunId::FromValue(id), v, w), "Reaches");
      recent_.push_back({id, v, w});
      if (recent_.size() > 64) recent_.pop_front();
      return;
    }
    if (r < 880) {  // DependsOn
      const uint64_t id = PickId();
      auto stats = plain_->Stats(RunId::FromValue(id));
      const size_t items = stats.ok() ? stats->num_items : 4;
      const DataItemId x = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      const DataItemId y = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      Record("DependsOn(" + std::to_string(id) + ", " + std::to_string(x) +
             ", " + std::to_string(y) + ")");
      ExpectSameBool(cached_->DependsOn(RunId::FromValue(id), x, y),
                     plain_->DependsOn(RunId::FromValue(id), x, y),
                     "DependsOn");
      return;
    }
    if (r < 940) {  // the two mixed module/data directions
      const uint64_t id = PickId();
      auto stats = plain_->Stats(RunId::FromValue(id));
      const size_t items = stats.ok() ? stats->num_items : 4;
      const VertexId n = VerticesOf(id);
      const VertexId v = static_cast<VertexId>(rng_.NextBelow(n + 2));
      const DataItemId x = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      if (r % 2 == 0) {
        Record("ModuleDependsOnData(" + std::to_string(id) + ", " +
               std::to_string(v) + ", " + std::to_string(x) + ")");
        ExpectSameBool(
            cached_->ModuleDependsOnData(RunId::FromValue(id), v, x),
            plain_->ModuleDependsOnData(RunId::FromValue(id), v, x),
            "ModuleDependsOnData");
      } else {
        Record("DataDependsOnModule(" + std::to_string(id) + ", " +
               std::to_string(x) + ", " + std::to_string(v) + ")");
        ExpectSameBool(
            cached_->DataDependsOnModule(RunId::FromValue(id), x, v),
            plain_->DataDependsOnModule(RunId::FromValue(id), x, v),
            "DataDependsOnModule");
      }
      return;
    }
    if (r < 980) {  // ReachesBatch over a mixed window
      const uint64_t id = PickId();
      const VertexId n = VerticesOf(id);
      std::vector<VertexPair> pairs;
      for (int i = 0; i < 8; ++i) {
        pairs.push_back({static_cast<VertexId>(rng_.NextBelow(n)),
                         static_cast<VertexId>(rng_.NextBelow(n))});
      }
      Record("ReachesBatch(" + std::to_string(id) + ", 8 pairs)");
      auto c = cached_->ReachesBatch(RunId::FromValue(id), pairs);
      auto p = plain_->ReachesBatch(RunId::FromValue(id), pairs);
      ASSERT_EQ(c.ok(), p.ok()) << Context("ReachesBatch");
      if (c.ok()) {
        ASSERT_EQ(*c, *p) << Context("ReachesBatch");
      } else {
        ASSERT_EQ(c.status().code(), p.status().code())
            << Context("ReachesBatch");
      }
      return;
    }
    // Registry views must agree too.
    Record("registry view compare");
    ASSERT_EQ(cached_->num_runs(), plain_->num_runs()) << Context("num_runs");
    const std::vector<RunId> c_ids = cached_->ListRuns();
    const std::vector<RunId> p_ids = plain_->ListRuns();
    ASSERT_EQ(c_ids.size(), p_ids.size()) << Context("ListRuns size");
    for (size_t i = 0; i < c_ids.size(); ++i) {
      ASSERT_EQ(c_ids[i].value(), p_ids[i].value())
          << Context("ListRuns[" + std::to_string(i) + "]");
    }
    const uint64_t id = PickId();
    ASSERT_EQ(cached_->Contains(RunId::FromValue(id)),
              plain_->Contains(RunId::FromValue(id)))
        << Context("Contains(" + std::to_string(id) + ")");
  }

  const SpecSchemeKind kind_;
  const uint64_t seed_;
  Rng rng_;
  std::unique_ptr<ProvenanceService> cached_;
  std::unique_ptr<ProvenanceService> plain_;
  std::vector<::skl::Run> pool_;
  std::vector<DataCatalog> catalogs_;
  std::vector<std::vector<uint8_t>> blobs_;
  std::vector<uint64_t> live_;  ///< currently registered ids
  std::vector<uint64_t> all_;   ///< every id ever issued (stale probes)
  std::deque<std::tuple<uint64_t, VertexId, VertexId>> recent_;
  std::deque<std::string> trace_;
  size_t op_index_ = 0;
};

TEST(QueryCacheDifferentialTest, CacheOnBitIdenticalToCacheOffAllSchemes) {
  const SpecSchemeKind kinds[] = {
      SpecSchemeKind::kTcm,      SpecSchemeKind::kBfs,
      SpecSchemeKind::kDfs,      SpecSchemeKind::kInterval,
      SpecSchemeKind::kTreeCover, SpecSchemeKind::kChain,
      SpecSchemeKind::kTwoHop};
  // Shard counts rotate so the differential replay covers the fully
  // contended single-shard layout and genuinely striped ones.
  const size_t shard_choices[] = {1, 2, 8};
  const uint64_t base_seed =
      testing_util::TestSeed("QueryCacheDifferentialTest", 0xC0FFEE);
  const uint64_t iters = 1600 * testing_util::TestIterScale();
  size_t i = 0;
  for (SpecSchemeKind kind : kinds) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    DifferentialTester tester(kind, /*seed=*/base_seed + i,
                              shard_choices[i % 3]);
    // 7 schemes x 1600 ops > the 10k-op floor the suite promises.
    tester.Run(iters);
    if (::testing::Test::HasFatalFailure()) return;
    ++i;
  }
}

}  // namespace
}  // namespace skl
