// Tests for the service-level API: multi-run registry isolation, the three
// ingestion paths (raw run, engine plan, live session), the parallel bulk
// ingestion paths (input-order publishing, fail-fast semantics, concurrent
// ingest-while-querying), export→import→query equivalence, and a threaded
// smoke test comparing concurrent answers against single-threaded ones.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/core/skeleton_labeler.h"
#include "src/workload/data_generator.h"
#include "src/workload/query_generator.h"
#include "src/workload/run_generator.h"
#include "src/workload/spec_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

Specification MakeSpec() {
  return testing_util::MakeRunningExample().spec;
}

using testing_util::GenerateRun;

/// Reference answers via the low-level facade the service wraps.
std::vector<std::vector<bool>> ReferenceMatrix(const Specification& spec,
                                               const Run& run) {
  SkeletonLabeler labeler(&spec, SpecSchemeKind::kTcm);
  SKL_CHECK(labeler.Init().ok());
  auto labeling = labeler.LabelRun(run);
  SKL_CHECK_MSG(labeling.ok(), labeling.status().ToString().c_str());
  std::vector<std::vector<bool>> m(run.num_vertices());
  for (VertexId u = 0; u < run.num_vertices(); ++u) {
    m[u].resize(run.num_vertices());
    for (VertexId v = 0; v < run.num_vertices(); ++v) {
      m[u][v] = labeling->Reaches(u, v);
    }
  }
  return m;
}

TEST(ProvenanceServiceTest, FigureThreeAnswers) {
  auto ex = testing_util::MakeRunningExample();
  auto service = ProvenanceService::Create(std::move(ex.spec),
                                           SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto id = service->AddRun(ex.run);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // The paper's introduction queries.
  EXPECT_FALSE(*service->Reaches(*id, ex.rv("b1"), ex.rv("c3")));
  EXPECT_TRUE(*service->Reaches(*id, ex.rv("c1"), ex.rv("b2")));
  EXPECT_TRUE(*service->Reaches(*id, ex.rv("b1"), ex.rv("c1")));
  EXPECT_FALSE(*service->Reaches(*id, ex.rv("c1"), ex.rv("d1")));
  EXPECT_TRUE(*service->Reaches(*id, ex.rv("f1"), ex.rv("f2")));
  EXPECT_FALSE(*service->Reaches(*id, ex.rv("f2"), ex.rv("f3")));

  // Batch variant answers pairwise-identically.
  std::vector<VertexPair> pairs = {{ex.rv("b1"), ex.rv("c3")},
                                   {ex.rv("c1"), ex.rv("b2")},
                                   {ex.rv("f1"), ex.rv("f2")}};
  auto batch = service->ReachesBatch(*id, pairs);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_FALSE((*batch)[0]);
  EXPECT_TRUE((*batch)[1]);
  EXPECT_TRUE((*batch)[2]);
}

TEST(ProvenanceServiceTest, MultiRunRegistryIsolation) {
  Specification spec = MakeSpec();
  std::vector<::skl::Run> runs;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    runs.push_back(GenerateRun(spec, 40 + 20 * seed, seed));
  }
  std::vector<std::vector<std::vector<bool>>> expected;
  for (const ::skl::Run& r : runs) expected.push_back(ReferenceMatrix(spec, r));

  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  std::vector<RunId> ids;
  for (const ::skl::Run& r : runs) {
    auto id = service->AddRun(r);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_EQ(service->num_runs(), runs.size());
  EXPECT_EQ(service->ListRuns().size(), runs.size());

  // Every run answers exactly its own reference matrix — sizes differ, so a
  // registry mix-up would be caught immediately.
  for (size_t i = 0; i < runs.size(); ++i) {
    auto stats = service->Stats(ids[i]);
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->num_vertices, runs[i].num_vertices());
    for (VertexId u = 0; u < runs[i].num_vertices(); ++u) {
      for (VertexId v = 0; v < runs[i].num_vertices(); ++v) {
        ASSERT_EQ(*service->Reaches(ids[i], u, v), expected[i][u][v])
            << "run " << i << " " << u << "->" << v;
      }
    }
  }

  // Removing one run does not disturb the others; its handle goes stale.
  ASSERT_TRUE(service->RemoveRun(ids[1]).ok());
  EXPECT_EQ(service->num_runs(), runs.size() - 1);
  EXPECT_FALSE(service->Contains(ids[1]));
  EXPECT_FALSE(service->Reaches(ids[1], 0, 0).ok());
  EXPECT_FALSE(service->RemoveRun(ids[1]).ok());  // double remove
  EXPECT_TRUE(*service->Reaches(ids[0], 0, 0));  // reflexive, still there
  auto id_again = service->AddRun(runs[1]);
  ASSERT_TRUE(id_again.ok());
  EXPECT_NE(*id_again, ids[1]) << "RunIds must never be reused";
}

TEST(ProvenanceServiceTest, RemoveRunStaleHandlesReturnNotFound) {
  // RunId's header promises: handles are never reused, and a stale handle
  // (after RemoveRun) or a RunId::FromValue of an unknown value fails with
  // NotFound — assert the code, not just !ok().
  auto service = ProvenanceService::Create(MakeSpec(), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto ex = testing_util::MakeRunningExample();
  auto id = service->AddRun(ex.run);
  ASSERT_TRUE(id.ok());
  const uint64_t raw = id->value();

  ASSERT_TRUE(service->RemoveRun(*id).ok());
  EXPECT_EQ(service->RemoveRun(*id).code(), StatusCode::kNotFound);
  EXPECT_EQ(service->Reaches(*id, 0, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service->Stats(*id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service->ExportRun(*id).status().code(), StatusCode::kNotFound);

  // Reconstructing the stale handle from its numeric value changes nothing:
  // the id is gone for good, and later runs never reclaim it.
  RunId stale = RunId::FromValue(raw);
  EXPECT_EQ(service->RemoveRun(stale).code(), StatusCode::kNotFound);
  EXPECT_EQ(service->Reaches(stale, 0, 0).status().code(),
            StatusCode::kNotFound);
  auto fresh = service->AddRun(ex.run);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->value(), raw);
  EXPECT_EQ(service->Reaches(stale, 0, 0).status().code(),
            StatusCode::kNotFound);

  // The default (invalid) handle and a never-issued value behave the same.
  EXPECT_EQ(service->RemoveRun(RunId()).code(), StatusCode::kNotFound);
  EXPECT_EQ(service->RemoveRun(RunId::FromValue(12345)).code(),
            StatusCode::kNotFound);
}

TEST(ProvenanceServiceTest, AddRunWithPlanMatchesAddRun) {
  auto ex = testing_util::MakeRunningExample();
  auto recovered = ConstructPlan(ex.spec, ex.run);
  ASSERT_TRUE(recovered.ok());
  auto service = ProvenanceService::Create(std::move(ex.spec),
                                           SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto a = service->AddRun(ex.run);
  auto b = service->AddRunWithPlan(ex.run, recovered->plan,
                                   recovered->origin);
  ASSERT_TRUE(a.ok() && b.ok());
  for (VertexId u = 0; u < ex.run.num_vertices(); ++u) {
    for (VertexId v = 0; v < ex.run.num_vertices(); ++v) {
      EXPECT_EQ(*service->Reaches(*a, u, v), *service->Reaches(*b, u, v));
    }
  }

  std::vector<VertexId> short_origin(ex.run.num_vertices() - 1);
  EXPECT_FALSE(
      service->AddRunWithPlan(ex.run, recovered->plan, short_origin).ok());
}

TEST(ProvenanceServiceTest, SessionSealsIntoRegistry) {
  // ingest -> [ prepare -> { evaluate } -> select ]* -> publish, as in the
  // live_monitor example; loop=1, fork=2 in declaration order.
  SpecificationBuilder b;
  VertexId ingest = b.AddModule("ingest");
  VertexId prepare = b.AddModule("prepare");
  VertexId evaluate = b.AddModule("evaluate");
  VertexId select = b.AddModule("select");
  VertexId publish = b.AddModule("publish");
  b.AddEdge(ingest, prepare).AddEdge(prepare, evaluate)
      .AddEdge(evaluate, select).AddEdge(select, publish);
  b.DeclareLoop({prepare, evaluate, select});
  b.DeclareFork({prepare, evaluate, select});
  auto spec = std::move(b).Build();
  ASSERT_TRUE(spec.ok());
  auto service = ProvenanceService::Create(std::move(spec).value(),
                                           SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());

  RunSession session = service->OpenSession();
  auto iv = session.ExecuteModule("ingest");
  ASSERT_TRUE(iv.ok());
  ASSERT_TRUE(session.BeginExecution(1).ok());
  std::vector<VertexId> evals;
  for (int it = 0; it < 2; ++it) {
    ASSERT_TRUE(session.BeginCopy().ok());
    ASSERT_TRUE(session.ExecuteModule("prepare").ok());
    ASSERT_TRUE(session.BeginExecution(2).ok());
    for (int f = 0; f < 2; ++f) {
      ASSERT_TRUE(session.BeginCopy().ok());
      auto e = session.ExecuteModule("evaluate");
      ASSERT_TRUE(e.ok());
      evals.push_back(*e);
      ASSERT_TRUE(session.EndCopy().ok());
    }
    ASSERT_TRUE(session.EndExecution().ok());
    ASSERT_TRUE(session.ExecuteModule("select").ok());
    ASSERT_TRUE(session.EndCopy().ok());
  }
  // Mid-run answers (O(depth) plan walk).
  EXPECT_TRUE(session.Reaches(evals[0], evals[2]));   // across iterations
  EXPECT_FALSE(session.Reaches(evals[2], evals[3]));  // parallel copies
  ASSERT_TRUE(session.EndExecution().ok());
  auto pv = session.ExecuteModule("publish");
  ASSERT_TRUE(pv.ok());

  auto id = std::move(session).Seal();
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(service->Contains(*id));
  // Sealed answers agree with the mid-run ones, now in O(1).
  EXPECT_TRUE(*service->Reaches(*id, evals[0], evals[2]));
  EXPECT_FALSE(*service->Reaches(*id, evals[2], evals[3]));
  EXPECT_TRUE(*service->Reaches(*id, *iv, *pv));
}

TEST(ProvenanceServiceTest, ExportImportQueryEquivalence) {
  Specification spec = MakeSpec();
  ::skl::Run run = GenerateRun(spec, 120, 9);
  DataGenOptions dopt;
  dopt.seed = 5;
  DataCatalog catalog = GenerateDataCatalog(run, dopt);

  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto original = service->AddRun(run, &catalog);
  ASSERT_TRUE(original.ok());

  auto blob = service->ExportRun(*original);
  ASSERT_TRUE(blob.ok());
  auto imported = service->ImportRun(*blob);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_NE(*imported, *original);

  auto stats = service->Stats(*imported);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->imported);
  EXPECT_EQ(stats->num_vertices, run.num_vertices());
  EXPECT_EQ(stats->num_items, catalog.size());

  for (VertexId u = 0; u < run.num_vertices(); ++u) {
    for (VertexId v = 0; v < run.num_vertices(); ++v) {
      ASSERT_EQ(*service->Reaches(*imported, u, v),
                *service->Reaches(*original, u, v))
          << u << "->" << v;
    }
  }
  const DataItemId items = static_cast<DataItemId>(catalog.size());
  for (DataItemId x = 0; x < items; x += 7) {
    for (DataItemId y = 0; y < items; y += 11) {
      ASSERT_EQ(*service->DependsOn(*imported, x, y),
                *service->DependsOn(*original, x, y));
    }
  }
  for (VertexId v = 0; v < run.num_vertices(); v += 13) {
    for (DataItemId x = 0; x < items; x += 17) {
      ASSERT_EQ(*service->ModuleDependsOnData(*imported, v, x),
                *service->ModuleDependsOnData(*original, v, x));
      ASSERT_EQ(*service->DataDependsOnModule(*imported, x, v),
                *service->DataDependsOnModule(*original, x, v));
    }
  }
}

TEST(ProvenanceServiceTest, ErrorPaths) {
  auto ex = testing_util::MakeRunningExample();
  auto service = ProvenanceService::Create(std::move(ex.spec),
                                           SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(ex.run);
  ASSERT_TRUE(id.ok());

  // Unknown handle, invalid handle, stale handle value.
  EXPECT_FALSE(service->Reaches(RunId(), 0, 0).ok());
  EXPECT_FALSE(service->Reaches(RunId::FromValue(999), 0, 0).ok());
  EXPECT_FALSE(service->ExportRun(RunId::FromValue(999)).ok());
  EXPECT_FALSE(service->Stats(RunId::FromValue(999)).ok());

  // Vertex range checks, single and batch.
  EXPECT_FALSE(service->Reaches(*id, 0, ex.run.num_vertices()).ok());
  std::vector<VertexPair> bad = {{0, 0}, {ex.run.num_vertices(), 0}};
  EXPECT_FALSE(service->ReachesBatch(*id, bad).ok());

  // Item queries on a run without a catalog.
  EXPECT_FALSE(service->DependsOn(*id, 0, 0).ok());

  // Catalog naming a vertex the run does not have.
  DataCatalog bad_catalog;
  bad_catalog.AddItem(ex.run.num_vertices() + 3);
  EXPECT_FALSE(service->AddRun(ex.run, &bad_catalog).ok());

  // Corrupt blobs are rejected.
  EXPECT_FALSE(service->ImportRun({0x01, 0x02, 0x03}).ok());
  auto blob = service->ExportRun(*id);
  ASSERT_TRUE(blob.ok());
  std::vector<uint8_t> truncated(blob->begin(),
                                 blob->begin() + blob->size() / 2);
  EXPECT_FALSE(service->ImportRun(truncated).ok());
}

TEST(ProvenanceServiceTest, ImportRejectsForeignSpecBlob) {
  // A blob whose labels reference spec vertices beyond this service's
  // specification must be refused, not accepted and queried out of range.
  SpecGenOptions opt;
  opt.num_vertices = 60;
  opt.num_edges = 120;
  opt.num_subgraphs = 5;
  opt.depth = 3;
  opt.seed = 77;
  auto big_spec = GenerateSpecification(opt);
  ASSERT_TRUE(big_spec.ok());
  ::skl::Run big_run = GenerateRun(*big_spec, 150, 3);
  auto big_service = ProvenanceService::Create(std::move(big_spec).value(),
                                               SpecSchemeKind::kTcm);
  ASSERT_TRUE(big_service.ok());
  auto big_id = big_service->AddRun(big_run);
  ASSERT_TRUE(big_id.ok());
  auto blob = big_service->ExportRun(*big_id);
  ASSERT_TRUE(blob.ok());

  auto small_service = ProvenanceService::Create(MakeSpec(),
                                                 SpecSchemeKind::kTcm);
  ASSERT_TRUE(small_service.ok());
  EXPECT_FALSE(small_service->ImportRun(*blob).ok());
}

/// A structurally valid run whose module name is unknown to the running
/// example spec, so plan recovery (and hence bulk ingestion) fails on it.
::skl::Run MakeForeignRun() {
  RunBuilder b;
  VertexId v = b.AddVertex("no-such-module");
  VertexId w = b.AddVertex("no-such-module-either");
  b.AddEdge(v, w);
  auto run = std::move(b).Build();
  SKL_CHECK(run.ok());
  return std::move(run).value();
}

TEST(ProvenanceServiceTest, AddRunsParallelPublishesInInputOrder) {
  Specification spec = MakeSpec();
  std::vector<::skl::Run> runs;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // Distinct sizes so a slot mix-up is caught by Stats alone.
    runs.push_back(GenerateRun(spec, 30 + 25 * seed, seed));
  }
  std::vector<std::vector<std::vector<bool>>> expected;
  for (const ::skl::Run& r : runs) expected.push_back(ReferenceMatrix(spec, r));

  ProvenanceService::Options options;
  options.num_threads = 4;
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm,
                                options);
  ASSERT_TRUE(service.ok());
  std::vector<Result<RunId>> ids = service->AddRunsParallel(runs);
  ASSERT_EQ(ids.size(), runs.size());
  ASSERT_EQ(service->num_runs(), runs.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(ids[i].ok()) << i << ": " << ids[i].status().ToString();
    if (i > 0) {
      EXPECT_LT(ids[i - 1]->value(), ids[i]->value())
          << "ids must ascend in input order";
    }
    auto stats = service->Stats(*ids[i]);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->num_vertices, runs[i].num_vertices());
    for (VertexId u = 0; u < runs[i].num_vertices(); u += 3) {
      for (VertexId v = 0; v < runs[i].num_vertices(); v += 5) {
        ASSERT_EQ(*service->Reaches(*ids[i], u, v), expected[i][u][v])
            << "run " << i << " " << u << "->" << v;
      }
    }
  }
}

TEST(ProvenanceServiceTest, AddRunsWithPlansParallelMatchesSerialPath) {
  Specification spec = MakeSpec();
  RunGenerator generator(&spec);
  RunGenOptions opt;
  opt.target_vertices = 70;
  opt.seed = 31;
  auto generated = generator.GenerateMany(opt, 5, /*num_threads=*/2);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  ASSERT_EQ(generated->size(), 5u);

  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm,
                                {.num_threads = 3});
  ASSERT_TRUE(service.ok());
  std::vector<PlannedRun> planned;
  for (const GeneratedRun& g : *generated) {
    planned.push_back({&g.run, &g.plan, g.origin});
  }
  std::vector<Result<RunId>> bulk = service->AddRunsWithPlansParallel(planned);
  ASSERT_EQ(bulk.size(), planned.size());
  for (size_t i = 0; i < planned.size(); ++i) {
    ASSERT_TRUE(bulk[i].ok()) << bulk[i].status().ToString();
    auto serial = service->AddRunWithPlan((*generated)[i].run,
                                          (*generated)[i].plan,
                                          (*generated)[i].origin);
    ASSERT_TRUE(serial.ok());
    const VertexId n = (*generated)[i].run.num_vertices();
    for (VertexId u = 0; u < n; u += 3) {
      for (VertexId v = 0; v < n; v += 5) {
        ASSERT_EQ(*service->Reaches(*bulk[i], u, v),
                  *service->Reaches(*serial, u, v));
      }
    }
  }

  // Null run/plan pointers are per-entry errors, not crashes.
  std::vector<PlannedRun> bad(1);
  auto bad_results = service->AddRunsWithPlansParallel(bad);
  ASSERT_EQ(bad_results.size(), 1u);
  EXPECT_EQ(bad_results[0].status().code(), StatusCode::kInvalidArgument);
}

TEST(ProvenanceServiceTest, AddRunsParallelPartialFailureWithoutFailFast) {
  Specification spec = MakeSpec();
  std::vector<::skl::Run> runs;
  runs.push_back(GenerateRun(spec, 40, 1));
  runs.push_back(MakeForeignRun());  // fails plan recovery
  runs.push_back(GenerateRun(spec, 60, 2));

  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm,
                                {.num_threads = 2, .fail_fast = false});
  ASSERT_TRUE(service.ok());
  std::vector<Result<RunId>> ids = service->AddRunsParallel(runs);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(ids[0].ok());
  EXPECT_FALSE(ids[1].ok());
  EXPECT_NE(ids[1].status().code(), StatusCode::kCancelled)
      << "without fail_fast the bad run keeps its own error";
  EXPECT_TRUE(ids[2].ok());
  EXPECT_EQ(service->num_runs(), 2u);
  EXPECT_TRUE(*service->Reaches(*ids[0], 0, 0));
  EXPECT_TRUE(*service->Reaches(*ids[2], 0, 0));
}

TEST(ProvenanceServiceTest, AddRunsParallelFailFastIsAllOrNothing) {
  Specification spec = MakeSpec();
  std::vector<::skl::Run> runs;
  runs.push_back(GenerateRun(spec, 40, 1));
  runs.push_back(MakeForeignRun());
  runs.push_back(GenerateRun(spec, 60, 2));

  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm,
                                {.num_threads = 2, .fail_fast = true});
  ASSERT_TRUE(service.ok());
  std::vector<Result<RunId>> ids = service->AddRunsParallel(runs);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(service->num_runs(), 0u) << "fail_fast publishes nothing";
  for (const Result<RunId>& r : ids) EXPECT_FALSE(r.ok());
  EXPECT_FALSE(ids[1].ok());
  // The failing entry keeps its own error; every other entry is Cancelled.
  EXPECT_NE(ids[1].status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ids[0].status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ids[2].status().code(), StatusCode::kCancelled);

  // The service is not poisoned: the same good runs ingest cleanly next try.
  std::vector<::skl::Run> good;
  good.push_back(std::move(runs[0]));
  good.push_back(std::move(runs[2]));
  std::vector<Result<RunId>> retry = service->AddRunsParallel(good);
  ASSERT_EQ(retry.size(), 2u);
  EXPECT_TRUE(retry[0].ok() && retry[1].ok());
  EXPECT_EQ(service->num_runs(), 2u);
}

TEST(ProvenanceServiceTest, AddRunsParallelCatalogMismatchAndEmptyBatch) {
  Specification spec = MakeSpec();
  std::vector<::skl::Run> runs;
  runs.push_back(GenerateRun(spec, 40, 1));
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());

  const DataCatalog* catalogs[2] = {nullptr, nullptr};
  std::vector<Result<RunId>> mismatched =
      service->AddRunsParallel(runs, catalogs);
  ASSERT_EQ(mismatched.size(), 1u);
  EXPECT_EQ(mismatched[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service->num_runs(), 0u);

  EXPECT_TRUE(service->AddRunsParallel({}).empty());
}

TEST(ProvenanceServiceTest, ServiceStatsResetAcrossLoadSnapshot) {
  // The pinned-down semantics (docs/NETWORK.md): ServiceStats counters
  // describe the served lifetime of one registry and are NOT part of a
  // snapshot — a LoadSnapshot-restored service starts every cumulative
  // counter at zero, while the point-in-time num_runs reflects the
  // restored registry. BFS, so that the memo counters are live too.
  Specification spec = MakeSpec();
  ::skl::Run run = GenerateRun(spec, 60, 3);
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kBfs);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(run);
  ASSERT_TRUE(id.ok());
  // A reflexive pair always consults the skeleton: the first query fills
  // the memo slot, the repeat hits it.
  ASSERT_TRUE(service->Reaches(*id, 1, 1).ok());
  ASSERT_TRUE(service->Reaches(*id, 1, 1).ok());

  const std::string path =
      PidQualifiedTempPath("skl_service_stats_reset", ".skls");
  ASSERT_TRUE(service->SaveSnapshot(path).ok());

  const ServiceStats before = service->service_stats();
  EXPECT_EQ(before.runs_ingested, 1u);
  EXPECT_EQ(before.reaches_queries, 2u);
  EXPECT_EQ(before.snapshot_saves, 1u);
  EXPECT_EQ(before.cache_misses, 1u);
  EXPECT_EQ(before.cache_hits, 1u);

  auto restored = ProvenanceService::LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const ServiceStats after = restored->service_stats();
  EXPECT_EQ(after.num_runs, 1u) << "the registry itself is restored";
  EXPECT_EQ(after.reaches_queries, 0u);
  EXPECT_EQ(after.depends_on_queries, 0u);
  EXPECT_EQ(after.module_data_queries, 0u);
  EXPECT_EQ(after.data_module_queries, 0u);
  EXPECT_EQ(after.batch_calls, 0u);
  EXPECT_EQ(after.runs_ingested, 0u);
  EXPECT_EQ(after.runs_imported, 0u);
  EXPECT_EQ(after.runs_removed, 0u);
  EXPECT_EQ(after.bulk_batches, 0u);
  EXPECT_EQ(after.snapshot_saves, 0u);
  EXPECT_EQ(after.cache_hits, 0u);
  EXPECT_EQ(after.cache_misses, 0u);

  // The restored service counts its own lifetime from here.
  ASSERT_TRUE(restored->Reaches(*id, 0, 1).ok());
  EXPECT_EQ(restored->service_stats().reaches_queries, 1u);

  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(ProvenanceServiceTest, ShardedRegistryAndMemoAnswerIdentically) {
  // Smoke for the shard knob and the memo placement: extreme shard counts
  // (clamped) answer identically, and repeated queries on a BFS service
  // hit its spec memo. Only search schemes keep a memo.
  Specification spec = MakeSpec();
  ::skl::Run run = GenerateRun(spec, 80, 5);
  std::vector<std::vector<bool>> reference = ReferenceMatrix(spec, run);

  for (size_t shards : {size_t{0}, size_t{1}, size_t{3}, size_t{64},
                        size_t{100000}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto service = ProvenanceService::Create(
        Specification(spec), SpecSchemeKind::kBfs, {.num_shards = shards});
    ASSERT_TRUE(service.ok());
    auto id = service->AddRun(run);
    ASSERT_TRUE(id.ok());
    for (VertexId u = 0; u < run.num_vertices(); u += 3) {
      for (VertexId v = 0; v < run.num_vertices(); v += 5) {
        ASSERT_EQ(*service->Reaches(*id, u, v), reference[u][v]);
        ASSERT_EQ(*service->Reaches(*id, u, v), reference[u][v]);  // memo
      }
    }
    const ServiceStats stats = service->service_stats();
    EXPECT_GT(stats.cache_hits, 0u) << "repeat queries must hit";
    EXPECT_NE(service->metrics().RenderPrometheus().find(
                  "skl_spec_memo_hits " + std::to_string(stats.cache_hits)),
              std::string::npos);
  }

  // No memo, no lookups, same answers: an indexed scheme (TCM) is served
  // as is.
  auto indexed = ProvenanceService::Create(Specification(spec),
                                           SpecSchemeKind::kTcm);
  ASSERT_TRUE(indexed.ok());
  auto id = indexed->AddRun(run);
  ASSERT_TRUE(id.ok());
  for (VertexId u = 0; u < run.num_vertices(); u += 3) {
    ASSERT_EQ(*indexed->Reaches(*id, u, 0), reference[u][0]);
    ASSERT_EQ(*indexed->Reaches(*id, u, 0), reference[u][0]);
  }
  const ServiceStats stats = indexed->service_stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  // Nor does it export the always-zero memo gauges.
  EXPECT_EQ(indexed->metrics().RenderPrometheus().find("skl_spec_memo"),
            std::string::npos);
}

TEST(ProvenanceServiceTest, QueryTalliesCountConcurrentQueriesExactly) {
  // TSan target: 40 readers over 16 shards send every query kind at once —
  // more readers than the registry has thread stripes, so some share one.
  // Each event is counted once, on the reader's stripe, and service_stats()
  // sums the stripes — so the totals must equal what the readers sent
  // exactly: nothing lost to a race, nothing counted twice.
  constexpr uint64_t kRuns = 8;
  constexpr uint64_t kThreads = 40;
  constexpr uint64_t kRounds = 40;
  const Specification spec = MakeSpec();
  std::vector<::skl::Run> runs;
  std::vector<DataCatalog> catalogs;
  for (uint64_t i = 0; i < kRuns; ++i) {
    runs.push_back(GenerateRun(spec, 40 + 10 * i, 300 + i));
    DataGenOptions dopt;
    dopt.seed = 50 + i;
    catalogs.push_back(GenerateDataCatalog(runs.back(), dopt));
  }
  // The reflexive pair always consults the skeleton, so BFS must see
  // memo lookups whatever the run's contexts.
  const std::vector<VertexPair> vertex_pairs = {{0, 1}, {1, 2}, {2, 0},
                                                {0, 0}};
  const std::vector<ItemPair> item_pairs = {{0, 0}, {0, 0}};

  for (SpecSchemeKind kind : {SpecSchemeKind::kTcm, SpecSchemeKind::kBfs}) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    auto service = ProvenanceService::Create(Specification(spec), kind,
                                             {.num_shards = 16});
    ASSERT_TRUE(service.ok());
    std::vector<RunId> ids;
    for (uint64_t i = 0; i < kRuns; ++i) {
      auto id = service->AddRun(runs[i], &catalogs[i]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_GT(service->Stats(*id)->num_items, 0u);
      ids.push_back(*id);
    }

    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> readers;
    for (uint64_t t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        for (uint64_t r = 0; r < kRounds; ++r) {
          const RunId id = ids[(t + r) % kRuns];
          const bool ok =
              service->Reaches(id, 0, 1).ok() &&
              service->ReachesBatch(id, vertex_pairs).ok() &&
              service->DependsOn(id, 0, 0).ok() &&
              service->DependsOnBatch(id, item_pairs).ok() &&
              service->ModuleDependsOnData(id, 0, 0).ok() &&
              service->DataDependsOnModule(id, 0, 0).ok();
          if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& r : readers) r.join();
    ASSERT_EQ(failures.load(), 0u);

    const uint64_t rounds = kThreads * kRounds;
    const ServiceStats stats = service->service_stats();
    EXPECT_EQ(stats.reaches_queries, rounds * (1 + vertex_pairs.size()));
    EXPECT_EQ(stats.depends_on_queries, rounds * (1 + item_pairs.size()));
    EXPECT_EQ(stats.module_data_queries, rounds);
    EXPECT_EQ(stats.data_module_queries, rounds);
    EXPECT_EQ(stats.batch_calls, rounds * 2);
    // BFS consults its spec memo (the repeated pairs must hit); TCM keeps
    // none and counts no lookup at all.
    if (kind == SpecSchemeKind::kBfs) {
      EXPECT_GT(stats.cache_misses, 0u);
      EXPECT_GT(stats.cache_hits, 0u);
    } else {
      EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
    }
  }
}

TEST(ProvenanceServiceTest, ConcurrentBulkIngestWhileQuerying) {
  // TSan target: readers hammer an existing run while bulk batches land and
  // a remover retires them; answers must stay byte-identical throughout.
  Specification spec = MakeSpec();
  ::skl::Run stable_run = GenerateRun(spec, 90, 7);
  std::vector<::skl::Run> batch;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    batch.push_back(GenerateRun(spec, 50 + 10 * seed, 100 + seed));
  }
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm,
                                {.num_threads = 2});
  ASSERT_TRUE(service.ok());
  auto stable_id = service->AddRun(stable_run);
  ASSERT_TRUE(stable_id.ok());
  std::vector<VertexPair> queries =
      GenerateQueries(stable_run.num_vertices(), 2000, 17);
  auto expected = service->ReachesBatch(*stable_id, queries);
  ASSERT_TRUE(expected.ok());

  std::atomic<size_t> mismatches{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto answers = service->ReachesBatch(*stable_id, queries);
        if (!answers.ok() || *answers != *expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  std::thread ingester([&] {
    for (int round = 0; round < 6; ++round) {
      std::vector<Result<RunId>> ids = service->AddRunsParallel(batch);
      for (const Result<RunId>& id : ids) {
        if (!id.ok() || !service->RemoveRun(*id).ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  ingester.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service->num_runs(), 1u);
}

TEST(ProvenanceServiceTest, ThreadedReadersMatchSingleThreaded) {
  Specification spec = MakeSpec();
  constexpr size_t kRuns = 3;
  constexpr size_t kThreads = 8;
  constexpr size_t kQueriesPerThread = 4000;

  std::vector<::skl::Run> runs;
  for (uint64_t seed = 0; seed < kRuns; ++seed) {
    runs.push_back(GenerateRun(spec, 80 + 40 * seed, seed + 21));
  }
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  std::vector<RunId> ids;
  std::vector<std::vector<VertexPair>> queries;
  std::vector<std::vector<bool>> expected;
  for (size_t i = 0; i < kRuns; ++i) {
    auto id = service->AddRun(runs[i]);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    queries.push_back(GenerateQueries(runs[i].num_vertices(),
                                      kQueriesPerThread, 1000 + i));
    // Single-threaded reference answers through the same service.
    auto answers = service->ReachesBatch(*id, queries.back());
    ASSERT_TRUE(answers.ok());
    expected.push_back(*answers);
  }

  // N reader threads per run: half use the batch variant, half the single
  // calls; a writer thread keeps registering and removing extra runs so
  // readers run against a mutating registry.
  std::atomic<size_t> mismatches{0};
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    while (!stop_writer.load(std::memory_order_relaxed)) {
      auto extra = service->AddRun(runs[0]);
      if (!extra.ok() || !service->RemoveRun(*extra).ok()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      const size_t i = t % kRuns;
      if (t % 2 == 0) {
        auto answers = service->ReachesBatch(ids[i], queries[i]);
        if (!answers.ok() || *answers != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      for (size_t q = 0; q < queries[i].size(); ++q) {
        auto r = service->Reaches(ids[i], queries[i][q].first,
                                  queries[i][q].second);
        if (!r.ok() || *r != expected[i][q]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& th : readers) th.join();
  stop_writer.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service->num_runs(), kRuns);
}

}  // namespace
}  // namespace skl
