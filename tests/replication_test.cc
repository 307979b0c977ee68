// Differential conformance suite for the replication subsystem
// (src/replication/, docs/REPLICATION.md): a primary (op-log attached) +
// 2 read replicas behind a FleetClient replay one seeded, randomized op
// sequence in lockstep with a single-node in-process twin — AddRun /
// ImportRun / RemoveRun interleaved with every query kind, ListRuns and
// per-run stats — and every answer (value AND status code) and every
// allocated RunId must be bit-identical between the fleet and the twin,
// no matter which endpoint a read landed on or how far a replica was
// lagging (read-your-writes LSN tokens make lag observable, never wrong).
// Runs across all 7 schemes, >= 10k ops total. Each scheme ends with a
// catch-up barrier + full-state sweep across primary, both replicas and
// the twin, then a crash-recovery scenario: the primary is destroyed, a
// new one is rebuilt from the op-log alone (RecoverPrimary), must answer
// identically, and must allocate the same next RunId — while the orphaned
// replicas keep serving reads.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/replication/fleet_client.h"
#include "src/replication/oplog.h"
#include "src/replication/replicator.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

using testing_util::MakeSpecFor;

/// One primary + 2 replicas + fleet client + local twin, replaying one
/// seeded op sequence and asserting fleet/twin bit-identity throughout.
class FleetDifferentialTester {
 public:
  FleetDifferentialTester(SpecSchemeKind kind, uint64_t seed)
      : kind_(kind), seed_(seed), rng_(seed) {
    const std::string scheme_name = SpecSchemeKindName(kind);
    oplog_path_ = PidQualifiedTempPath(
        std::string("replication_") + scheme_name, ".skllog");
    std::filesystem::remove(oplog_path_);
    spec_xml_ = WriteSpecificationXml(MakeSpecFor(kind));
    OpLog::Options log_options;
    log_options.fsync = false;  // process-crash durability is enough here
    auto oplog = OpLog::Open(oplog_path_, spec_xml_, scheme_name,
                             log_options);
    SKL_CHECK_MSG(oplog.ok(), oplog.status().ToString().c_str());
    oplog_ = std::move(oplog).value();

    auto service = ProvenanceService::Create(MakeSpecFor(kind), kind);
    SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
    ProvenanceServer::Options server_options;
    server_options.num_threads = 4;
    server_options.oplog = oplog_.get();
    auto primary = ProvenanceServer::Start(std::move(service).value(),
                                           server_options);
    SKL_CHECK_MSG(primary.ok(), primary.status().ToString().c_str());
    primary_ = std::move(primary).value();

    ReadReplica::Options replica_options;
    replica_options.poll_interval_ms = 1;
    for (int i = 0; i < 2; ++i) {
      auto replica = ReadReplica::Start("127.0.0.1", primary_->port(),
                                        replica_options);
      SKL_CHECK_MSG(replica.ok(), replica.status().ToString().c_str());
      replicas_.push_back(std::move(replica).value());
    }

    auto fleet = FleetClient::Connect(
        "127.0.0.1:" + std::to_string(primary_->port()),
        {"127.0.0.1:" + std::to_string(replicas_[0]->port()),
         "127.0.0.1:" + std::to_string(replicas_[1]->port())});
    SKL_CHECK_MSG(fleet.ok(), fleet.status().ToString().c_str());
    fleet_ = std::make_unique<FleetClient>(std::move(fleet).value());

    auto twin = ProvenanceService::Create(MakeSpecFor(kind), kind);
    SKL_CHECK_MSG(twin.ok(), twin.status().ToString().c_str());
    twin_ = std::make_unique<ProvenanceService>(std::move(twin).value());

    // Run pool + export blobs (blobs carry catalogs — the wire AddRun path
    // has none, so imports are where catalog state gets replicated).
    RunGenerator generator(&twin_->spec());
    std::vector<DataCatalog> catalogs;
    for (uint64_t i = 0; i < 5; ++i) {
      RunGenOptions opt;
      opt.target_vertices = 25 + 10 * static_cast<uint32_t>(i);
      opt.seed = seed * 131 + i;
      auto gen = generator.Generate(opt);
      SKL_CHECK_MSG(gen.ok(), gen.status().ToString().c_str());
      pool_.push_back(std::move(gen->run));
      DataGenOptions dopt;
      dopt.seed = seed * 17 + i;
      catalogs.push_back(GenerateDataCatalog(pool_.back(), dopt));
    }
    auto scratch = ProvenanceService::Create(MakeSpecFor(kind), kind);
    SKL_CHECK_MSG(scratch.ok(), scratch.status().ToString().c_str());
    for (size_t i = 0; i < pool_.size(); ++i) {
      auto id = scratch->AddRun(pool_[i], &catalogs[i]);
      SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
      auto blob = scratch->ExportRun(*id);
      SKL_CHECK_MSG(blob.ok(), blob.status().ToString().c_str());
      blobs_.push_back(std::move(blob).value());
    }
  }

  ~FleetDifferentialTester() {
    for (auto& replica : replicas_) replica->Stop();
    if (primary_ != nullptr) primary_->Shutdown();
    std::filesystem::remove(oplog_path_);
  }

  void Run(size_t num_ops) {
    for (op_index_ = 0; op_index_ < num_ops; ++op_index_) {
      Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    CatchUpAndSweep();
    if (::testing::Test::HasFatalFailure()) return;
    CrashPrimaryAndRecover();
  }

 private:
  std::string Context(const std::string& op) const {
    return "scheme=" + std::string(SpecSchemeKindName(kind_)) +
           " seed=" + std::to_string(seed_) +
           " op#" + std::to_string(op_index_) + ": " + op;
  }

  uint64_t PickId() {
    const uint64_t r = rng_.NextBelow(100);
    if (r < 70 && !live_.empty()) {
      return live_[rng_.NextBelow(live_.size())];
    }
    if (r < 85 && !all_.empty()) {
      return all_[rng_.NextBelow(all_.size())];
    }
    return 1000000 + rng_.NextBelow(5);
  }

  VertexId VerticesOf(uint64_t id) {
    auto stats = twin_->Stats(RunId::FromValue(id));
    return stats.ok() ? stats->num_vertices : 8;
  }

  void ExpectSameBool(const Result<bool>& f, const Result<bool>& t,
                      const std::string& op) {
    ASSERT_EQ(f.ok(), t.ok())
        << Context(op) << "\nfleet: "
        << (f.ok() ? "ok" : f.status().ToString()) << "\ntwin:  "
        << (t.ok() ? "ok" : t.status().ToString());
    if (f.ok()) {
      ASSERT_EQ(*f, *t) << Context(op);
    } else {
      ASSERT_EQ(f.status().code(), t.status().code()) << Context(op);
    }
  }

  void ExpectSameStats(const Result<RunStats>& f, const Result<RunStats>& t,
                       const std::string& op) {
    ASSERT_EQ(f.ok(), t.ok()) << Context(op);
    if (!f.ok()) {
      ASSERT_EQ(f.status().code(), t.status().code()) << Context(op);
      return;
    }
    ASSERT_EQ(f->num_vertices, t->num_vertices) << Context(op);
    ASSERT_EQ(f->num_items, t->num_items) << Context(op);
    ASSERT_EQ(f->label_bits, t->label_bits) << Context(op);
    ASSERT_EQ(f->context_bits, t->context_bits) << Context(op);
    ASSERT_EQ(f->origin_bits, t->origin_bits) << Context(op);
    ASSERT_EQ(f->num_nonempty_plus, t->num_nonempty_plus) << Context(op);
    ASSERT_EQ(f->imported, t->imported) << Context(op);
  }

  void ExpectSameIdList(const std::vector<RunId>& f,
                        const std::vector<RunId>& t,
                        const std::string& op) {
    ASSERT_EQ(f.size(), t.size()) << Context(op);
    for (size_t i = 0; i < f.size(); ++i) {
      ASSERT_EQ(f[i].value(), t[i].value())
          << Context(op + "[" + std::to_string(i) + "]");
    }
  }

  void Step() {
    const uint64_t r = rng_.NextBelow(1000);
    if (r < 100) {  // AddRun over the wire vs in-process
      const size_t i = rng_.NextBelow(pool_.size());
      auto f = fleet_->AddRun(pool_[i]);
      auto t = twin_->AddRun(pool_[i]);
      ASSERT_EQ(f.ok(), t.ok()) << Context("AddRun");
      ASSERT_TRUE(f.ok()) << Context("AddRun") << f.status().ToString();
      ASSERT_EQ(f->value(), t->value())
          << Context("AddRun: fleet and twin diverged on allocated id");
      live_.push_back(f->value());
      all_.push_back(f->value());
      return;
    }
    if (r < 160) {  // ImportRun (the catalog-carrying ingestion path)
      const size_t i = rng_.NextBelow(blobs_.size());
      auto f = fleet_->ImportRun(blobs_[i]);
      auto t = twin_->ImportRun(blobs_[i]);
      ASSERT_EQ(f.ok(), t.ok()) << Context("ImportRun");
      ASSERT_TRUE(f.ok()) << Context("ImportRun") << f.status().ToString();
      ASSERT_EQ(f->value(), t->value()) << Context("ImportRun id");
      live_.push_back(f->value());
      all_.push_back(f->value());
      return;
    }
    if (r < 220) {  // RemoveRun (live, stale or never-issued)
      uint64_t id;
      if (!live_.empty() && rng_.NextBelow(10) < 9) {
        const size_t i = rng_.NextBelow(live_.size());
        id = live_[i];
        live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        id = 1000000 + rng_.NextBelow(5);
      }
      const Status f = fleet_->RemoveRun(RunId::FromValue(id));
      const Status t = twin_->RemoveRun(RunId::FromValue(id));
      ASSERT_EQ(f.code(), t.code())
          << Context("RemoveRun(" + std::to_string(id) + ")");
      return;
    }
    if (r < 700) {  // Reaches
      const uint64_t id = PickId();
      const VertexId n = VerticesOf(id);
      const VertexId v = static_cast<VertexId>(rng_.NextBelow(n + 2));
      const VertexId w = static_cast<VertexId>(rng_.NextBelow(n + 2));
      ExpectSameBool(fleet_->Reaches(RunId::FromValue(id), v, w),
                     twin_->Reaches(RunId::FromValue(id), v, w),
                     "Reaches(" + std::to_string(id) + ", " +
                         std::to_string(v) + ", " + std::to_string(w) + ")");
      return;
    }
    if (r < 790) {  // DependsOn
      const uint64_t id = PickId();
      auto stats = twin_->Stats(RunId::FromValue(id));
      const size_t items = stats.ok() ? stats->num_items : 4;
      const DataItemId x = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      const DataItemId y = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      ExpectSameBool(fleet_->DependsOn(RunId::FromValue(id), x, y),
                     twin_->DependsOn(RunId::FromValue(id), x, y),
                     "DependsOn(" + std::to_string(id) + ")");
      return;
    }
    if (r < 860) {  // mixed module/data directions
      const uint64_t id = PickId();
      auto stats = twin_->Stats(RunId::FromValue(id));
      const size_t items = stats.ok() ? stats->num_items : 4;
      const VertexId n = VerticesOf(id);
      const VertexId v = static_cast<VertexId>(rng_.NextBelow(n + 2));
      const DataItemId x = static_cast<DataItemId>(rng_.NextBelow(items + 2));
      if (r % 2 == 0) {
        ExpectSameBool(
            fleet_->ModuleDependsOnData(RunId::FromValue(id), v, x),
            twin_->ModuleDependsOnData(RunId::FromValue(id), v, x),
            "ModuleDependsOnData(" + std::to_string(id) + ")");
      } else {
        ExpectSameBool(
            fleet_->DataDependsOnModule(RunId::FromValue(id), x, v),
            twin_->DataDependsOnModule(RunId::FromValue(id), x, v),
            "DataDependsOnModule(" + std::to_string(id) + ")");
      }
      return;
    }
    if (r < 940) {  // ReachesBatch
      const uint64_t id = PickId();
      const VertexId n = VerticesOf(id);
      std::vector<VertexPair> pairs;
      for (int i = 0; i < 8; ++i) {
        pairs.push_back({static_cast<VertexId>(rng_.NextBelow(n)),
                         static_cast<VertexId>(rng_.NextBelow(n))});
      }
      auto f = fleet_->ReachesBatch(RunId::FromValue(id), pairs);
      auto t = twin_->ReachesBatch(RunId::FromValue(id), pairs);
      ASSERT_EQ(f.ok(), t.ok()) << Context("ReachesBatch");
      if (f.ok()) {
        ASSERT_EQ(*f, *t) << Context("ReachesBatch");
      } else {
        ASSERT_EQ(f.status().code(), t.status().code())
            << Context("ReachesBatch");
      }
      return;
    }
    if (r < 975) {  // registry view
      auto f = fleet_->ListRuns();
      ASSERT_TRUE(f.ok()) << Context("ListRuns") << f.status().ToString();
      ExpectSameIdList(*f, twin_->ListRuns(), "ListRuns");
      return;
    }
    // Per-run stats agreement.
    const uint64_t id = PickId();
    ExpectSameStats(fleet_->Stats(RunId::FromValue(id)),
                    twin_->Stats(RunId::FromValue(id)),
                    "Stats(" + std::to_string(id) + ")");
  }

  /// Barrier: both replicas reach the primary's LSN, then the full state
  /// must read identically from every endpoint.
  void CatchUpAndSweep() {
    const uint64_t head = oplog_->last_lsn();
    for (size_t r = 0; r < replicas_.size(); ++r) {
      Status caught = replicas_[r]->WaitForLsn(head, /*timeout_ms=*/10000);
      ASSERT_TRUE(caught.ok())
          << Context("replica " + std::to_string(r) +
                     " catch-up: " + caught.ToString());
    }
    const std::vector<RunId> expect = twin_->ListRuns();
    for (size_t r = 0; r < replicas_.size(); ++r) {
      auto client = ProvenanceClient::Connect("127.0.0.1",
                                              replicas_[r]->port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      client->SetReadLsn(head);
      auto ids = client->ListRuns();
      ASSERT_TRUE(ids.ok())
          << Context("replica sweep ListRuns") << ids.status().ToString();
      ExpectSameIdList(*ids, expect,
                       "replica " + std::to_string(r) + " sweep");
      // Spot-check stats and answers for every live run on this replica.
      for (const RunId id : expect) {
        ExpectSameStats(client->Stats(id), twin_->Stats(id),
                        "replica sweep Stats(" +
                            std::to_string(id.value()) + ")");
        const VertexId n = VerticesOf(id.value());
        ExpectSameBool(client->Reaches(id, 0, n > 1 ? n - 1 : 0),
                       twin_->Reaches(id, 0, n > 1 ? n - 1 : 0),
                       "replica sweep Reaches");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // Replica lag is visible in its service stats, and never negative.
    auto client =
        ProvenanceClient::Connect("127.0.0.1", replicas_[0]->port());
    ASSERT_TRUE(client.ok());
    auto stats = client->GetServiceStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->replication_lsn, head) << Context("replica lsn");
    EXPECT_GE(stats->replication_target_lsn, stats->replication_lsn)
        << Context("replica target lsn");
  }

  /// Kill the primary, rebuild it from the op-log alone, and require
  /// bit-identical state — while the orphaned replicas keep serving.
  void CrashPrimaryAndRecover() {
    const std::vector<RunId> expect = twin_->ListRuns();
    primary_->Shutdown();
    primary_.reset();
    oplog_.reset();  // close the append handle before recovery reopens it

    OpLog::Options log_options;
    log_options.fsync = false;
    auto recovered = RecoverPrimary(oplog_path_, {}, log_options);
    ASSERT_TRUE(recovered.ok())
        << Context("RecoverPrimary") << recovered.status().ToString();

    ExpectSameIdList(recovered->service.ListRuns(), expect,
                     "recovered ListRuns");
    for (const RunId id : expect) {
      ExpectSameStats(recovered->service.Stats(id), twin_->Stats(id),
                      "recovered Stats(" + std::to_string(id.value()) + ")");
      const VertexId n = VerticesOf(id.value());
      for (VertexId v = 0; v < n && v < 6; ++v) {
        ExpectSameBool(recovered->service.Reaches(id, v, n - 1),
                       twin_->Reaches(id, v, n - 1), "recovered Reaches");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }

    // The orphaned replicas still answer reads (at LSN 0 tokens — no
    // freshness demanded of a fleet with no primary).
    for (size_t r = 0; r < replicas_.size(); ++r) {
      auto client = ProvenanceClient::Connect("127.0.0.1",
                                              replicas_[r]->port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      auto ids = client->ListRuns();
      ASSERT_TRUE(ids.ok())
          << Context("orphaned replica ListRuns") << ids.status().ToString();
      ExpectSameIdList(*ids, expect, "orphaned replica ListRuns");
    }

    // The recovered primary continues the id sequence exactly where the
    // crashed one left off.
    auto f = recovered->service.AddRun(pool_[0]);
    auto t = twin_->AddRun(pool_[0]);
    ASSERT_TRUE(f.ok()) << Context("post-recovery AddRun")
                        << f.status().ToString();
    ASSERT_TRUE(t.ok());
    ASSERT_EQ(f->value(), t->value())
        << Context("post-recovery AddRun: id sequence diverged");
  }

  const SpecSchemeKind kind_;
  const uint64_t seed_;
  Rng rng_;
  std::string oplog_path_;
  std::string spec_xml_;
  std::unique_ptr<OpLog> oplog_;
  std::unique_ptr<ProvenanceServer> primary_;
  std::vector<std::unique_ptr<ReadReplica>> replicas_;
  std::unique_ptr<FleetClient> fleet_;
  std::unique_ptr<ProvenanceService> twin_;
  std::vector<::skl::Run> pool_;
  std::vector<std::vector<uint8_t>> blobs_;
  std::vector<uint64_t> live_;
  std::vector<uint64_t> all_;
  size_t op_index_ = 0;
};

TEST(ReplicationDifferentialTest, FleetBitIdenticalToSingleNodeAllSchemes) {
  const SpecSchemeKind kinds[] = {
      SpecSchemeKind::kTcm,       SpecSchemeKind::kBfs,
      SpecSchemeKind::kDfs,       SpecSchemeKind::kInterval,
      SpecSchemeKind::kTreeCover, SpecSchemeKind::kChain,
      SpecSchemeKind::kTwoHop};
  const uint64_t base_seed =
      testing_util::TestSeed("ReplicationDifferentialTest", 0xD1CE);
  const uint64_t iters = 1500 * testing_util::TestIterScale();
  size_t i = 0;
  for (SpecSchemeKind kind : kinds) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    FleetDifferentialTester tester(kind, /*seed=*/base_seed + i);
    // 7 schemes x 1500 ops > the 10k-op floor the suite promises.
    tester.Run(iters);
    if (::testing::Test::HasFatalFailure()) return;
    ++i;
  }
}

// ------------------------------------------------------- directed checks --

TEST(ReplicationTest, ReadAheadOfReplicaBouncesWithRetryAt) {
  auto service = ProvenanceService::Create(
      testing_util::MakeRunningExample().spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  ProvenanceServer::Options options;
  options.read_only = true;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok());
  (*server)->SetReplicationLsns(/*applied_lsn=*/3, /*target_lsn=*/10);

  auto client = ProvenanceClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  // Token at/below the applied LSN: served (NotFound — empty registry —
  // is the service's real answer, not a bounce).
  client->SetReadLsn(3);
  auto served = client->Reaches(RunId::FromValue(1), 0, 1);
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kNotFound);
  // Token ahead: bounced with kRetryAt, naming the applied LSN; the
  // connection stays usable.
  client->SetReadLsn(7);
  auto bounced = client->Reaches(RunId::FromValue(1), 0, 1);
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kRetryAt);
  EXPECT_NE(bounced.status().message().find("3"), std::string::npos)
      << bounced.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  // Writes are refused outright on a read-only replica.
  auto removed = client->RemoveRun(RunId::FromValue(1));
  EXPECT_EQ(removed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(removed.message().find("read-only"), std::string::npos);
  (*server)->Shutdown();
}

TEST(ReplicationTest, SubscribeWithoutAnOpLogIsRefusedDescriptively) {
  auto service = ProvenanceService::Create(
      testing_util::MakeRunningExample().spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto server = ProvenanceServer::Start(std::move(service).value(), {});
  ASSERT_TRUE(server.ok());
  auto client = ProvenanceClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto batch = client->Subscribe(0, 10);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch.status().message().find("no replication log"),
            std::string::npos)
      << batch.status().ToString();
  auto snap = client->SnapshotFetch();
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument);
  (*server)->Shutdown();
}

TEST(ReplicationTest, DamagedLogEntryIsATypedErrorNotAHang) {
  // The primary serves kSubscribe from its op-log file, so an entry
  // damaged at rest must reach a subscriber as a ParseError naming its
  // LSN, and a replica tailing across it must record that error and stay
  // below the entry.
  const testing_util::RunningExample ex = testing_util::MakeRunningExample();
  const std::string spec_xml = WriteSpecificationXml(ex.spec);
  OpLog::Options log_options;
  log_options.fsync = false;
  ReadReplica::Options replica_options;
  replica_options.poll_interval_ms = 1;
  replica_options.client.backoff_base_ms = 1;
  replica_options.client.backoff_max_ms = 5;

  // Primary A has an empty log, so the replica bootstraps at LSN 0; then
  // A goes away and the replica keeps redialing its port.
  const std::string path_a =
      PidQualifiedTempPath("replication_damaged_a", ".skllog");
  std::filesystem::remove(path_a);
  auto log_a = OpLog::Open(path_a, spec_xml, "tcm", log_options);
  ASSERT_TRUE(log_a.ok()) << log_a.status().ToString();
  auto service_a = ProvenanceService::Create(ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service_a.ok());
  ProvenanceServer::Options options_a;
  options_a.oplog = log_a->get();
  auto primary_a =
      ProvenanceServer::Start(std::move(service_a).value(), options_a);
  ASSERT_TRUE(primary_a.ok()) << primary_a.status().ToString();
  const uint16_t port = (*primary_a)->port();
  auto replica = ReadReplica::Start("127.0.0.1", port, replica_options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_EQ((*replica)->applied_lsn(), 0u);
  (*primary_a)->Shutdown();

  // Primary B, on the same port, logged three AddRuns; the last byte of
  // entry 2 (inside its run blob) is flipped on disk after the append.
  const std::string path_b =
      PidQualifiedTempPath("replication_damaged_b", ".skllog");
  std::filesystem::remove(path_b);
  auto log_b = OpLog::Open(path_b, spec_xml, "tcm", log_options);
  ASSERT_TRUE(log_b.ok()) << log_b.status().ToString();
  auto service_b = ProvenanceService::Create(ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service_b.ok());
  service_b->AttachOpLog(log_b->get());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service_b->AddRun(ex.run).ok());
  auto replay = OpLog::ReplayFile(path_b);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->entry_offsets.size(), 3u);
  testing_util::FlipByteAt(path_b, replay->entry_offsets[2] - 1, 0x40);
  ProvenanceServer::Options options_b;
  options_b.port = port;
  options_b.oplog = log_b->get();
  auto primary_b =
      ProvenanceServer::Start(std::move(service_b).value(), options_b);
  ASSERT_TRUE(primary_b.ok()) << primary_b.status().ToString();

  auto client = ProvenanceClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  auto damaged = client->Subscribe(0, 10);
  ASSERT_FALSE(damaged.ok()) << "a damaged entry was shipped";
  EXPECT_EQ(damaged.status().code(), StatusCode::kParseError);
  EXPECT_NE(damaged.status().message().find("LSN 2"), std::string::npos)
      << damaged.status().ToString();
  auto before = client->Subscribe(0, 1);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->ops.size(), 1u);

  Status tail = Status::OK();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (tail.code() != StatusCode::kParseError &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tail = (*replica)->tail_error();
  }
  EXPECT_EQ(tail.code(), StatusCode::kParseError) << tail.ToString();
  EXPECT_NE(tail.message().find("LSN 2"), std::string::npos)
      << tail.ToString();
  EXPECT_LT((*replica)->applied_lsn(), 2u);
  // The replica keeps serving reads at the LSN it holds.
  auto reader = ProvenanceClient::Connect("127.0.0.1", (*replica)->port());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->Ping().ok());

  (*replica)->Stop();
  (*primary_b)->Shutdown();
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST(ReplicationTest, ReplicaResumesAfterPrimaryRestart) {
  // The transport error a replica records while its primary is down is
  // cleared by the first good batch from the restarted primary, so
  // WaitForLsn then waits for new LSNs instead of returning it.
  const testing_util::RunningExample ex = testing_util::MakeRunningExample();
  const std::string path =
      PidQualifiedTempPath("replication_restart", ".skllog");
  std::filesystem::remove(path);
  OpLog::Options log_options;
  log_options.fsync = false;
  ReadReplica::Options replica_options;
  replica_options.poll_interval_ms = 1;
  replica_options.client.backoff_base_ms = 1;
  replica_options.client.backoff_max_ms = 5;
  const auto poll_until = [](const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return done();
  };

  auto log = OpLog::Open(path, WriteSpecificationXml(ex.spec), "tcm",
                         log_options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  auto service = ProvenanceService::Create(ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  service->AttachOpLog(log->get());
  ASSERT_TRUE(service->AddRun(ex.run).ok());
  ProvenanceServer::Options options;
  options.oplog = log->get();
  auto primary = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  options.port = (*primary)->port();
  auto replica = ReadReplica::Start("127.0.0.1", options.port,
                                    replica_options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE((*replica)->WaitForLsn(1, 10000).ok());

  (*primary)->Shutdown();
  primary->reset();
  log->reset();
  ASSERT_TRUE(poll_until([&] { return !(*replica)->tail_error().ok(); }))
      << "the replica never noticed its primary was gone";

  auto recovered = RecoverPrimary(path, {}, log_options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  options.oplog = recovered->oplog.get();
  auto restarted =
      ProvenanceServer::Start(std::move(recovered->service), options);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_TRUE(poll_until([&] { return (*replica)->tail_error().ok(); }))
      << (*replica)->tail_error().ToString();

  auto writer = ProvenanceClient::Connect("127.0.0.1", options.port);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AddRun(ex.run).ok());
  const uint64_t lsn = recovered->oplog->last_lsn();
  ASSERT_EQ(lsn, 2u);
  Status caught_up = (*replica)->WaitForLsn(lsn, 10000);
  EXPECT_TRUE(caught_up.ok()) << caught_up.ToString();

  (*replica)->Stop();
  (*restarted)->Shutdown();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace skl
