// Differential conformance suite for the dynamic spec-update subsystem
// (docs/UPDATES.md): an incrementally-relabeling service and a twin that
// rebuilds its scheme from scratch on every delta
// (Options::full_rebuild_on_delta) replay one seeded, randomized op
// sequence — ApplySpecDelta (valid appends, valid removals, and a steady
// diet of structurally invalid edits) interleaved with AddRun / RemoveRun /
// ImportRun and every query kind, including at_epoch pins on the run's own
// epoch, the default 0, and deliberately wrong epochs — in lockstep, and
// every answer (value AND status code), every allocated id, every RunStats
// field and the spec epoch itself must be bit-identical between the two.
// Runs across all 7 schemes; a failure prints the scheme, seed, op index
// and the recent op trace so the exact sequence replays from the seed
// (SKL_TEST_SEED overrides; SKL_TEST_ITER_SCALE multiplies for the CI
// long-fuzz leg).
//
// Plus: a byte-exhaustive encoding fuzz over all four delta kinds (every
// strict prefix must fail, trailing garbage must fail, the full blob must
// round-trip), a replica fed *only* op-log entries — including kSpecDelta —
// that must converge to the primary's epoch state (both via ApplyLogOp and
// via RecoverPrimary from the log file), and a readers-during-delta phase
// that TSan watches for epoch-publication races.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/replication/oplog.h"
#include "src/replication/replicator.h"
#include "src/workflow/spec_delta.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

using testing_util::MakeSpecFor;

/// The name of the head spec's unique sink (the only vertex with no
/// out-edges) — the anchor of the always-valid "append a module after the
/// sink" delta, which works on every spec shape including the interval
/// scheme's tree (a chain stays a chain).
std::string SinkModuleName(const Specification& spec) {
  const Digraph& g = spec.graph();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.OutNeighbors(v).empty()) return spec.ModuleName(v);
  }
  SKL_CHECK_MSG(false, "specification has no sink");
  return "";
}

/// Replays one randomized op sequence against an incrementally-relabeling
/// service and its rebuild-from-scratch twin, asserting bit-identical
/// behavior throughout.
class SpecUpdateDifferentialTester {
 public:
  SpecUpdateDifferentialTester(SpecSchemeKind kind, uint64_t seed,
                               size_t num_shards)
      : kind_(kind), seed_(seed), rng_(seed) {
    ProvenanceService::Options incr_options;
    incr_options.num_shards = num_shards;
    auto incr =
        ProvenanceService::Create(MakeSpecFor(kind), kind, incr_options);
    SKL_CHECK_MSG(incr.ok(), incr.status().ToString().c_str());
    incr_ = std::make_unique<ProvenanceService>(std::move(incr).value());

    ProvenanceService::Options full_options;
    full_options.num_shards = 1;
    full_options.full_rebuild_on_delta = true;  // the reference
    auto full =
        ProvenanceService::Create(MakeSpecFor(kind), kind, full_options);
    SKL_CHECK_MSG(full.ok(), full.status().ToString().c_str());
    full_ = std::make_unique<ProvenanceService>(std::move(full).value());

    RebuildPool();
  }

  void Run(size_t num_ops) {
    for (op_index_ = 0; op_index_ < num_ops; ++op_index_) {
      Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    FinalSweep();
    if (::testing::Test::HasFatalFailure()) return;
    // The replay must actually have moved the epoch and rejected edits, or
    // the equivalence above proved nothing about the update subsystem.
    EXPECT_GT(applied_deltas_, 0u) << Context("no delta ever applied");
    EXPECT_GT(rejected_deltas_, 0u) << Context("no delta ever rejected");
    EXPECT_GT(incr_->spec_epoch(), 1u) << Context("epoch never advanced");
  }

 private:
  /// Everything a human needs to replay a failure: seed, scheme, op index
  /// and the trailing window of executed ops.
  std::string Context(const std::string& op) const {
    std::string out = "scheme=" + std::string(SpecSchemeKindName(kind_)) +
                      " seed=" + std::to_string(seed_) + " op#" +
                      std::to_string(op_index_) + ": " + op +
                      "\nrecent ops (oldest first):";
    for (const std::string& t : trace_) out += "\n  " + t;
    return out;
  }

  void Record(const std::string& op) {
    trace_.push_back("op#" + std::to_string(op_index_) + " " + op);
    if (trace_.size() > 40) trace_.pop_front();
  }

  /// Regenerates the ingestion pool from the *current* head spec (run
  /// shapes must conform to the epoch they will be ingested under). Export
  /// blobs come from a scratch service sharing the head spec so ImportRun
  /// stays exercised at every epoch.
  void RebuildPool() {
    pool_.clear();
    catalogs_.clear();
    blobs_.clear();
    Specification head = incr_->spec();
    RunGenerator generator(&incr_->spec());
    for (uint64_t i = 0; i < 4; ++i) {
      RunGenOptions opt;
      opt.target_vertices = 24 + 8 * static_cast<uint32_t>(i);
      opt.seed = seed_ * 131 + pool_generation_ * 977 + i;
      auto gen = generator.Generate(opt);
      SKL_CHECK_MSG(gen.ok(), gen.status().ToString().c_str());
      pool_.push_back(std::move(gen->run));
      DataGenOptions dopt;
      dopt.seed = seed_ * 17 + pool_generation_ * 31 + i;
      catalogs_.push_back(GenerateDataCatalog(pool_.back(), dopt));
    }
    auto scratch = ProvenanceService::Create(std::move(head), kind_);
    SKL_CHECK_MSG(scratch.ok(), scratch.status().ToString().c_str());
    for (size_t i = 0; i < pool_.size(); ++i) {
      auto id = scratch->AddRun(pool_[i], &catalogs_[i]);
      SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
      auto blob = scratch->ExportRun(*id);
      SKL_CHECK_MSG(blob.ok(), blob.status().ToString().c_str());
      blobs_.push_back(std::move(blob).value());
    }
    ++pool_generation_;
  }

  /// A random delta proposal: a mix of guaranteed-valid edits (append a
  /// fresh module after the current sink; graft a parallel source->x->sink
  /// branch, which stays removable later) and likely-invalid ones (remove
  /// a sink or interior module, edits naming unknown modules, duplicate
  /// edges).
  SpecDelta ProposeDelta() {
    const uint64_t r = rng_.NextBelow(100);
    SpecDelta delta;
    if (r < 25 || appended_.empty()) {
      // Always valid: the old sink gains one out-edge to a fresh module.
      delta.kind = SpecDelta::Kind::kAddModule;
      delta.module = "dyn" + std::to_string(next_module_++);
      delta.from = {SinkModuleName(incr_->spec())};
      return delta;
    }
    if (r < 40) {
      // Parallel branch source -> x -> sink: valid on series-parallel
      // shapes, rejected by the interval scheme's tree requirement —
      // either way both twins must agree.
      const Digraph& g = incr_->spec().graph();
      std::string source;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (g.InNeighbors(v).empty()) {
          source = incr_->spec().ModuleName(v);
          break;
        }
      }
      delta.kind = SpecDelta::Kind::kAddModule;
      delta.module = "par" + std::to_string(next_module_++);
      delta.from = {source};
      delta.to = {SinkModuleName(incr_->spec())};
      return delta;
    }
    if (r < 60) {
      // Removing a parallel branch succeeds when no head-epoch run is
      // live; removing a sink-appended or interior module is a structural
      // rejection — all three paths are wanted.
      delta.kind = SpecDelta::Kind::kRemoveModule;
      delta.module = appended_[rng_.NextBelow(appended_.size())];
      return delta;
    }
    if (r < 75) {
      // Unknown-name probes: must be descriptive NotFound on both twins.
      delta.kind = rng_.NextBelow(2) == 0 ? SpecDelta::Kind::kRemoveModule
                                          : SpecDelta::Kind::kAddEdge;
      if (delta.kind == SpecDelta::Kind::kRemoveModule) {
        delta.module = "ghost" + std::to_string(rng_.NextBelow(4));
      } else {
        delta.edge_from = "ghost" + std::to_string(rng_.NextBelow(4));
        delta.edge_to = SinkModuleName(incr_->spec());
      }
      return delta;
    }
    if (r < 88) {
      // Duplicate edge (sink chain edge already exists) — rejected.
      delta.kind = SpecDelta::Kind::kAddEdge;
      delta.edge_from = appended_.empty()
                            ? SinkModuleName(incr_->spec())
                            : appended_.back();
      delta.edge_to = delta.edge_from;  // self-edge: always invalid
      return delta;
    }
    // Remove a structural edge of the base spec: usually breaks the flow
    // network or touches a declared fork/loop — a rejection either way on
    // both twins; occasionally legal, which is fine too.
    delta.kind = SpecDelta::Kind::kRemoveEdge;
    const Digraph& g = incr_->spec().graph();
    const VertexId v = static_cast<VertexId>(rng_.NextBelow(
        g.num_vertices()));
    delta.edge_from = incr_->spec().ModuleName(v);
    const auto& out = g.OutNeighbors(v);
    delta.edge_to = out.empty()
                        ? delta.edge_from
                        : incr_->spec().ModuleName(
                              out[rng_.NextBelow(out.size())]);
    return delta;
  }

  void ExpectSameBool(const Result<bool>& a, const Result<bool>& b,
                      const std::string& op) {
    ASSERT_EQ(a.ok(), b.ok())
        << Context(op) << "\nincremental: "
        << (a.ok() ? "ok" : a.status().ToString()) << "\nfull-rebuild: "
        << (b.ok() ? "ok" : b.status().ToString());
    if (a.ok()) {
      ASSERT_EQ(*a, *b) << Context(op);
    } else {
      ASSERT_EQ(a.status().code(), b.status().code()) << Context(op);
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

  /// Picks the at_epoch pin for a query: usually the default 0, sometimes
  /// the run's own epoch (must answer), sometimes a wrong or future epoch
  /// (must be kEpochMismatch on a live run — on both twins either way).
  uint64_t PickAtEpoch(uint64_t id) {
    const uint64_t r = rng_.NextBelow(100);
    if (r < 60) return 0;
    if (r < 80) {
      auto stats = full_->Stats(RunId::FromValue(id));
      if (stats.ok()) return stats->epoch;
    }
    return 1 + rng_.NextBelow(incr_->spec_epoch() + 2);
  }

  VertexId VerticesOf(uint64_t id) {
    auto stats = full_->Stats(RunId::FromValue(id));
    return stats.ok() ? stats->num_vertices : 8;
  }

  void Step() {
    const uint64_t r = rng_.NextBelow(1000);
    if (r < 50) {  // ApplySpecDelta — the subsystem under test
      const SpecDelta delta = ProposeDelta();
      Record("ApplySpecDelta(" + std::string(SpecDeltaKindName(delta.kind)) +
             " " + (delta.module.empty()
                        ? delta.edge_from + "->" + delta.edge_to
                        : delta.module) +
             ")");
      auto a = incr_->ApplySpecDelta(delta);
      auto b = full_->ApplySpecDelta(delta);
      ASSERT_EQ(a.ok(), b.ok())
          << Context("ApplySpecDelta") << "\nincremental: "
          << (a.ok() ? "ok" : a.status().ToString()) << "\nfull-rebuild: "
          << (b.ok() ? "ok" : b.status().ToString());
      if (a.ok()) {
        ASSERT_EQ(*a, *b) << Context("ApplySpecDelta: epoch diverged");
        ASSERT_EQ(incr_->spec_epoch(), full_->spec_epoch())
            << Context("spec_epoch after delta");
        ++applied_deltas_;
        // Track the appended-module stack so later removals can be
        // proposed; a successful RemoveModule pops its name wherever it is.
        if (delta.kind == SpecDelta::Kind::kAddModule) {
          appended_.push_back(delta.module);
        } else if (delta.kind == SpecDelta::Kind::kRemoveModule) {
          for (size_t i = 0; i < appended_.size(); ++i) {
            if (appended_[i] == delta.module) {
              appended_.erase(appended_.begin() + static_cast<ptrdiff_t>(i));
              break;
            }
          }
        }
        RebuildPool();  // future ingests must conform to the new head
      } else {
        ASSERT_EQ(a.status().code(), b.status().code())
            << Context("ApplySpecDelta rejection code") << "\nincremental: "
            << a.status().ToString() << "\nfull-rebuild: "
            << b.status().ToString();
        ASSERT_FALSE(a.status().message().empty())
            << Context("rejection must be descriptive");
        ++rejected_deltas_;
      }
      return;
    }
    if (r < 130) {  // AddRun at the current epoch
      const size_t i = rng_.NextBelow(pool_.size());
      const DataCatalog* catalog = (i % 2 == 1) ? &catalogs_[i] : nullptr;
      Record("AddRun(pool[" + std::to_string(i) + "]" +
             (catalog ? ", catalog" : "") + ")");
      auto a = incr_->AddRun(pool_[i], catalog);
      auto b = full_->AddRun(pool_[i], catalog);
      ASSERT_EQ(a.ok(), b.ok()) << Context("AddRun");
      ASSERT_TRUE(a.ok()) << Context("AddRun") << a.status().ToString();
      ASSERT_EQ(a->value(), b->value())
          << Context("AddRun: twins diverged on allocated id");
      live_.push_back(a->value());
      all_.push_back(a->value());
      return;
    }
    if (r < 180) {  // RemoveRun
      uint64_t id;
      if (!live_.empty() && rng_.NextBelow(10) < 9) {
        const size_t i = rng_.NextBelow(live_.size());
        id = live_[i];
        live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        id = 1000000 + rng_.NextBelow(5);
      }
      Record("RemoveRun(" + std::to_string(id) + ")");
      const Status a = incr_->RemoveRun(RunId::FromValue(id));
      const Status b = full_->RemoveRun(RunId::FromValue(id));
      ASSERT_EQ(a.code(), b.code()) << Context("RemoveRun");
      return;
    }
    if (r < 230) {  // ImportRun (blob regenerated per epoch)
      const size_t i = rng_.NextBelow(blobs_.size());
      Record("ImportRun(blob[" + std::to_string(i) + "])");
      auto a = incr_->ImportRun(blobs_[i]);
      auto b = full_->ImportRun(blobs_[i]);
      ASSERT_EQ(a.ok(), b.ok()) << Context("ImportRun");
      ASSERT_TRUE(a.ok()) << Context("ImportRun") << a.status().ToString();
      ASSERT_EQ(a->value(), b->value()) << Context("ImportRun id");
      live_.push_back(a->value());
      all_.push_back(a->value());
      return;
    }
    if (r < 700) {  // Reaches, with epoch pins
      const uint64_t id = PickId();
      const uint64_t at = PickAtEpoch(id);
      const VertexId n = VerticesOf(id);
      const VertexId v = static_cast<VertexId>(rng_.NextBelow(n + 2));
      const VertexId w = static_cast<VertexId>(rng_.NextBelow(n + 2));
      Record("Reaches(" + std::to_string(id) + ", " + std::to_string(v) +
             ", " + std::to_string(w) + ", at=" + std::to_string(at) + ")");
      ExpectSameBool(incr_->Reaches(RunId::FromValue(id), v, w, at),
                     full_->Reaches(RunId::FromValue(id), v, w, at),
                     "Reaches");
      return;
    }
    if (r < 800) {  // DependsOn, with epoch pins
      const uint64_t id = PickId();
      const uint64_t at = PickAtEpoch(id);
      auto stats = full_->Stats(RunId::FromValue(id));
      const size_t items = stats.ok() ? stats->num_items : 4;
      const DataItemId x = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      const DataItemId y = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      Record("DependsOn(" + std::to_string(id) + ", " + std::to_string(x) +
             ", " + std::to_string(y) + ", at=" + std::to_string(at) + ")");
      ExpectSameBool(incr_->DependsOn(RunId::FromValue(id), x, y, at),
                     full_->DependsOn(RunId::FromValue(id), x, y, at),
                     "DependsOn");
      return;
    }
    if (r < 880) {  // the two mixed module/data directions, with pins
      const uint64_t id = PickId();
      const uint64_t at = PickAtEpoch(id);
      auto stats = full_->Stats(RunId::FromValue(id));
      const size_t items = stats.ok() ? stats->num_items : 4;
      const VertexId n = VerticesOf(id);
      const VertexId v = static_cast<VertexId>(rng_.NextBelow(n + 2));
      const DataItemId x = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      if (r % 2 == 0) {
        Record("ModuleDependsOnData(" + std::to_string(id) + ", " +
               std::to_string(v) + ", " + std::to_string(x) +
               ", at=" + std::to_string(at) + ")");
        ExpectSameBool(
            incr_->ModuleDependsOnData(RunId::FromValue(id), v, x, at),
            full_->ModuleDependsOnData(RunId::FromValue(id), v, x, at),
            "ModuleDependsOnData");
      } else {
        Record("DataDependsOnModule(" + std::to_string(id) + ", " +
               std::to_string(x) + ", " + std::to_string(v) +
               ", at=" + std::to_string(at) + ")");
        ExpectSameBool(
            incr_->DataDependsOnModule(RunId::FromValue(id), x, v, at),
            full_->DataDependsOnModule(RunId::FromValue(id), x, v, at),
            "DataDependsOnModule");
      }
      return;
    }
    if (r < 950) {  // ReachesBatch over a mixed window, with pins
      const uint64_t id = PickId();
      const uint64_t at = PickAtEpoch(id);
      const VertexId n = VerticesOf(id);
      std::vector<VertexPair> pairs;
      for (int i = 0; i < 8; ++i) {
        pairs.push_back({static_cast<VertexId>(rng_.NextBelow(n)),
                         static_cast<VertexId>(rng_.NextBelow(n))});
      }
      Record("ReachesBatch(" + std::to_string(id) +
             ", 8 pairs, at=" + std::to_string(at) + ")");
      auto a = incr_->ReachesBatch(RunId::FromValue(id), pairs, at);
      auto b = full_->ReachesBatch(RunId::FromValue(id), pairs, at);
      ASSERT_EQ(a.ok(), b.ok()) << Context("ReachesBatch");
      if (a.ok()) {
        ASSERT_EQ(*a, *b) << Context("ReachesBatch");
      } else {
        ASSERT_EQ(a.status().code(), b.status().code())
            << Context("ReachesBatch");
      }
      return;
    }
    // RunStats must agree field for field (epoch, label geometry, counts):
    // the incremental relabel may not perturb a single stored bit-width.
    const uint64_t id = PickId();
    Record("Stats(" + std::to_string(id) + ")");
    auto a = incr_->Stats(RunId::FromValue(id));
    auto b = full_->Stats(RunId::FromValue(id));
    ASSERT_EQ(a.ok(), b.ok()) << Context("Stats");
    if (!a.ok()) {
      ASSERT_EQ(a.status().code(), b.status().code()) << Context("Stats");
      return;
    }
    ASSERT_EQ(a->epoch, b->epoch) << Context("Stats.epoch");
    ASSERT_EQ(a->num_vertices, b->num_vertices) << Context("Stats.vertices");
    ASSERT_EQ(a->num_items, b->num_items) << Context("Stats.items");
    ASSERT_EQ(a->label_bits, b->label_bits) << Context("Stats.label_bits");
    ASSERT_EQ(a->context_bits, b->context_bits)
        << Context("Stats.context_bits");
    ASSERT_EQ(a->origin_bits, b->origin_bits) << Context("Stats.origin_bits");
    ASSERT_EQ(a->imported, b->imported) << Context("Stats.imported");
  }

  /// Every live run, every query kind, pinned to its own epoch and to the
  /// default — the closing bit-identity audit after the randomized phase.
  void FinalSweep() {
    Record("final sweep");
    ASSERT_EQ(incr_->spec_epoch(), full_->spec_epoch())
        << Context("final spec_epoch");
    ASSERT_EQ(incr_->num_runs(), full_->num_runs()) << Context("num_runs");
    const ServiceStats sa = incr_->service_stats();
    const ServiceStats sb = full_->service_stats();
    EXPECT_EQ(sa.spec_epoch, sb.spec_epoch) << Context("stats spec_epoch");
    EXPECT_EQ(sa.num_runs, sb.num_runs) << Context("stats num_runs");
    EXPECT_EQ(sa.runs_ingested, sb.runs_ingested)
        << Context("stats runs_ingested");
    EXPECT_EQ(sa.runs_removed, sb.runs_removed)
        << Context("stats runs_removed");
    EXPECT_EQ(sa.runs_imported, sb.runs_imported)
        << Context("stats runs_imported");
    for (uint64_t id : live_) {
      auto stats = full_->Stats(RunId::FromValue(id));
      ASSERT_TRUE(stats.ok()) << Context("final Stats(" + std::to_string(id) +
                                         ")");
      const VertexId n = stats->num_vertices;
      for (uint64_t at : {uint64_t{0}, stats->epoch}) {
        for (VertexId v = 0; v < n && v < 6; ++v) {
          for (VertexId w = 0; w < n && w < 6; ++w) {
            ExpectSameBool(incr_->Reaches(RunId::FromValue(id), v, w, at),
                           full_->Reaches(RunId::FromValue(id), v, w, at),
                           "final Reaches(" + std::to_string(id) + ")");
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
      // A wrong pin must be an epoch mismatch on both, never an answer.
      const uint64_t wrong = stats->epoch + incr_->spec_epoch() + 1;
      auto a = incr_->Reaches(RunId::FromValue(id), 0, 0, wrong);
      auto b = full_->Reaches(RunId::FromValue(id), 0, 0, wrong);
      ASSERT_FALSE(a.ok()) << Context("wrong pin answered");
      ASSERT_EQ(a.status().code(), StatusCode::kEpochMismatch)
          << Context("wrong pin code");
      ASSERT_EQ(b.status().code(), StatusCode::kEpochMismatch)
          << Context("wrong pin code (full twin)");
    }
  }

  const SpecSchemeKind kind_;
  const uint64_t seed_;
  Rng rng_;
  std::unique_ptr<ProvenanceService> incr_;
  std::unique_ptr<ProvenanceService> full_;
  std::vector<::skl::Run> pool_;
  std::vector<DataCatalog> catalogs_;
  std::vector<std::vector<uint8_t>> blobs_;
  uint64_t pool_generation_ = 0;
  uint64_t next_module_ = 0;
  std::vector<std::string> appended_;  ///< dyn modules currently in the spec
  std::vector<uint64_t> live_;         ///< currently registered ids
  std::vector<uint64_t> all_;          ///< every id ever issued
  uint64_t applied_deltas_ = 0;
  uint64_t rejected_deltas_ = 0;
  std::deque<std::string> trace_;
  size_t op_index_ = 0;
};

TEST(SpecUpdateDifferentialTest, IncrementalBitIdenticalToRebuildAllSchemes) {
  const SpecSchemeKind kinds[] = {
      SpecSchemeKind::kTcm,       SpecSchemeKind::kBfs,
      SpecSchemeKind::kDfs,       SpecSchemeKind::kInterval,
      SpecSchemeKind::kTreeCover, SpecSchemeKind::kChain,
      SpecSchemeKind::kTwoHop};
  const size_t shard_choices[] = {1, 2, 8};
  const uint64_t base_seed =
      testing_util::TestSeed("SpecUpdateDifferentialTest", 0xEB0C);
  const uint64_t iters = 1500 * testing_util::TestIterScale();
  size_t i = 0;
  for (SpecSchemeKind kind : kinds) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    SpecUpdateDifferentialTester tester(kind, base_seed + i,
                                        shard_choices[i % 3]);
    tester.Run(iters);
    if (::testing::Test::HasFatalFailure()) return;
    ++i;
  }
}

// ------------------------------------------------- delta encoding fuzz --

/// Every strict prefix of a well-formed delta blob must fail to decode,
/// the full blob must round-trip exactly, and one trailing byte must be a
/// shape mismatch — byte-exhaustive in the oplog_test style, over all four
/// kinds including empty and multi-element neighbor lists.
TEST(SpecDeltaEncodingTest, ByteExhaustiveTruncationFuzz) {
  std::vector<SpecDelta> cases;
  {
    SpecDelta d;
    d.kind = SpecDelta::Kind::kAddModule;
    d.module = "audit";
    d.from = {"a", "b"};
    d.to = {"h"};
    cases.push_back(d);
  }
  {
    SpecDelta d;
    d.kind = SpecDelta::Kind::kAddModule;
    d.module = "tail";
    d.from = {"h"};  // to[] empty: the appended-after-sink shape
    cases.push_back(d);
  }
  {
    SpecDelta d;
    d.kind = SpecDelta::Kind::kRemoveModule;
    d.module = "audit";
    cases.push_back(d);
  }
  {
    SpecDelta d;
    d.kind = SpecDelta::Kind::kAddEdge;
    d.edge_from = "a";
    d.edge_to = "d";
    cases.push_back(d);
  }
  {
    SpecDelta d;
    d.kind = SpecDelta::Kind::kRemoveEdge;
    d.edge_from = "a";
    d.edge_to = "d";
    cases.push_back(d);
  }
  for (const SpecDelta& original : cases) {
    SCOPED_TRACE(SpecDeltaKindName(original.kind) + std::string(" ") +
                 (original.module.empty() ? original.edge_from
                                          : original.module));
    const std::vector<uint8_t> good = SerializeSpecDelta(original);
    auto decoded = DeserializeSpecDelta(good);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, original.kind);
    EXPECT_EQ(decoded->module, original.module);
    EXPECT_EQ(decoded->from, original.from);
    EXPECT_EQ(decoded->to, original.to);
    EXPECT_EQ(decoded->edge_from, original.edge_from);
    EXPECT_EQ(decoded->edge_to, original.edge_to);
    // Every strict prefix is a truncation, never a partial decode.
    for (size_t len = 0; len < good.size(); ++len) {
      auto r = DeserializeSpecDelta(
          std::vector<uint8_t>(good.begin(),
                               good.begin() + static_cast<ptrdiff_t>(len)));
      EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
      if (r.ok()) break;
      EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    }
    // Trailing garbage is a shape mismatch.
    std::vector<uint8_t> padded = good;
    padded.push_back(0x00);
    auto r = DeserializeSpecDelta(padded);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    // An unknown kind byte must be rejected up front.
    std::vector<uint8_t> bad_kind = good;
    bad_kind[0] = 0x7F;
    EXPECT_FALSE(DeserializeSpecDelta(bad_kind).ok());
  }
}

// --------------------------------------------- replica epoch convergence --

/// A replica fed nothing but op-log entries — including kSpecDelta — must
/// converge to the primary's exact epoch state; so must a primary rebuilt
/// from the log file alone (RecoverPrimary). Acceptance criterion of
/// ISSUE 10.
TEST(SpecUpdateReplicationTest, ReplicaConvergesFromOplogDeltasAlone) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "skl_spec_update_oplog.log")
          .string();
  std::filesystem::remove(path);
  const Specification base = testing_util::MakeRunningExample().spec;
  const std::string spec_xml = WriteSpecificationXml(base);
  const char* scheme_name = SpecSchemeKindName(SpecSchemeKind::kTcm);

  std::vector<LogOp> shipped;
  uint64_t primary_epoch = 0;
  std::vector<uint64_t> primary_runs;
  {
    auto oplog = OpLog::Open(path, spec_xml, scheme_name, {});
    ASSERT_TRUE(oplog.ok()) << oplog.status().ToString();
    auto primary = ProvenanceService::Create(base, SpecSchemeKind::kTcm);
    ASSERT_TRUE(primary.ok());
    primary->AttachOpLog(oplog->get());

    // Interleave epochs and runs: run under epoch 1, delta to 2, run under
    // 2, delta to 3, remove the first run.
    RunGenerator generator(&primary->spec());
    RunGenOptions opt;
    opt.target_vertices = 30;
    opt.seed = 7;
    auto run1 = generator.Generate(opt);
    ASSERT_TRUE(run1.ok());
    auto id1 = primary->AddRun(run1->run);
    ASSERT_TRUE(id1.ok()) << id1.status().ToString();

    SpecDelta d1;
    d1.kind = SpecDelta::Kind::kAddModule;
    d1.module = "audit";
    d1.from = {"h"};
    auto e2 = primary->ApplySpecDelta(d1);
    ASSERT_TRUE(e2.ok()) << e2.status().ToString();
    EXPECT_EQ(*e2, 2u);

    RunGenerator gen2(&primary->spec());
    RunGenOptions opt2;
    opt2.target_vertices = 30;
    opt2.seed = 8;
    auto run2 = gen2.Generate(opt2);
    ASSERT_TRUE(run2.ok());
    auto id2 = primary->AddRun(run2->run);
    ASSERT_TRUE(id2.ok()) << id2.status().ToString();
    auto s2 = primary->Stats(*id2);
    ASSERT_TRUE(s2.ok());
    EXPECT_EQ(s2->epoch, 2u);

    SpecDelta d2;
    d2.kind = SpecDelta::Kind::kAddModule;
    d2.module = "archive";
    d2.from = {"audit"};
    auto e3 = primary->ApplySpecDelta(d2);
    ASSERT_TRUE(e3.ok()) << e3.status().ToString();
    EXPECT_EQ(*e3, 3u);

    ASSERT_TRUE(primary->RemoveRun(*id1).ok());

    auto read = (*oplog)->ReadFrom(0, 1000);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    shipped = std::move(read).value();
    ASSERT_EQ(shipped.size(), 5u);  // add, delta, add, delta, remove
    primary_epoch = primary->spec_epoch();
    for (RunId id : primary->ListRuns()) primary_runs.push_back(id.value());
    // Primary + log close here; RecoverPrimary below reopens the file.
  }

  // Replica path: a fresh service that sees only the shipped ops.
  auto replica = ProvenanceService::Create(base, SpecSchemeKind::kTcm);
  ASSERT_TRUE(replica.ok());
  for (const LogOp& op : shipped) {
    Status applied = ApplyLogOp(*replica, op);
    ASSERT_TRUE(applied.ok())
        << "lsn " << op.lsn << ": " << applied.ToString();
  }
  EXPECT_EQ(replica->spec_epoch(), primary_epoch);
  std::vector<uint64_t> replica_runs;
  for (RunId id : replica->ListRuns()) replica_runs.push_back(id.value());
  EXPECT_EQ(replica_runs, primary_runs);
  for (uint64_t id : replica_runs) {
    auto stats = replica->Stats(RunId::FromValue(id));
    ASSERT_TRUE(stats.ok());
    // The surviving run was ingested under epoch 2 and must stay pinned
    // there through replication.
    EXPECT_EQ(stats->epoch, 2u);
    EXPECT_TRUE(
        replica->Reaches(RunId::FromValue(id), 0, 0, stats->epoch).ok());
    auto mism = replica->Reaches(RunId::FromValue(id), 0, 0,
                                 primary_epoch + 7);
    ASSERT_FALSE(mism.ok());
    EXPECT_EQ(mism.status().code(), StatusCode::kEpochMismatch);
  }

  // Crash-recovery path: the log file alone rebuilds the same state.
  auto recovered = RecoverPrimary(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->service.spec_epoch(), primary_epoch);
  std::vector<uint64_t> recovered_runs;
  for (RunId id : recovered->service.ListRuns()) {
    recovered_runs.push_back(id.value());
  }
  EXPECT_EQ(recovered_runs, primary_runs);
  std::filesystem::remove(path);
}

// ------------------------------------------------ readers during deltas --

/// Reader threads hammer queries on runs frozen to epoch 1 while the main
/// thread applies a stream of deltas: TSan must see no race on the epoch
/// head publication, and every reader answer must stay correct (the runs'
/// epoch-1 labels never change).
TEST(SpecUpdateConcurrencyTest, ReadersSeeFrozenAnswersDuringDeltas) {
  auto service = ProvenanceService::Create(
      testing_util::MakeRunningExample().spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  RunGenerator generator(&service->spec());
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 3; ++i) {
    RunGenOptions opt;
    opt.target_vertices = 40;
    opt.seed = 100 + i;
    auto gen = generator.Generate(opt);
    ASSERT_TRUE(gen.ok());
    auto id = service->AddRun(gen->run);
    ASSERT_TRUE(id.ok());
    ids.push_back(id->value());
  }
  // Ground truth computed before any delta exists.
  struct Probe {
    uint64_t id;
    VertexId v, w;
    bool answer;
  };
  std::vector<Probe> probes;
  Rng rng(42);
  for (int i = 0; i < 64; ++i) {
    const uint64_t id = ids[rng.NextBelow(ids.size())];
    auto stats = service->Stats(RunId::FromValue(id));
    ASSERT_TRUE(stats.ok());
    const VertexId v =
        static_cast<VertexId>(rng.NextBelow(stats->num_vertices));
    const VertexId w =
        static_cast<VertexId>(rng.NextBelow(stats->num_vertices));
    auto answer = service->Reaches(RunId::FromValue(id), v, w);
    ASSERT_TRUE(answer.ok());
    probes.push_back({id, v, w, *answer});
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&service, &probes, &stop, &wrong] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const Probe& p : probes) {
          auto got = service->Reaches(RunId::FromValue(p.id), p.v, p.w);
          if (!got.ok() || *got != p.answer) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    SpecDelta delta;
    delta.kind = SpecDelta::Kind::kAddModule;
    delta.module = "dyn" + std::to_string(i);
    delta.from = {i == 0 ? std::string("h") : "dyn" + std::to_string(i - 1)};
    auto epoch = service->ApplySpecDelta(delta);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(*epoch, static_cast<uint64_t>(i) + 2);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0u)
      << "a reader saw an epoch-1 answer change under concurrent deltas";
  EXPECT_EQ(service->spec_epoch(), 9u);
}

}  // namespace
}  // namespace skl
