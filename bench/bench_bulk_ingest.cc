// Bulk ingestion scaling: the paper's "many runs" amortization, parallel.
// Ingests the same batch of QBLAST runs through (a) a serial AddRun loop and
// (b) AddRunsParallel with 1, 2, 4 and 8 pool workers, and reports runs/sec,
// per-run latency and speedup over the serial loop. Per-run work is
// identical on both paths (plan recovery + labeling + store capture); the
// parallel path only moves it onto pool workers and batches the publish, so
// speedup tracks available cores.
//
// A last table splits one run's ingest work into its stages, each the
// median over the batch: plan recovery (ConstructPlan), labeling from the
// recovered plan, and capturing and serializing the run's blob.
//
// Workload knobs: SKL_BENCH_BULK_RUNS (default 24 runs) and
// SKL_BENCH_BULK_SIZE (default ~2000 vertices per run).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/thread_pool.h"
#include "src/core/plan_builder.h"
#include "src/core/provenance_service.h"
#include "src/core/provenance_store.h"
#include "src/core/skeleton_labeler.h"

int main() {
  using namespace skl;
  using namespace skl::bench;

  size_t num_runs = 24;
  if (const char* env = std::getenv("SKL_BENCH_BULK_RUNS")) {
    num_runs = std::strtoul(env, nullptr, 10);
  }
  uint32_t target = 2000;
  if (const char* env = std::getenv("SKL_BENCH_BULK_SIZE")) {
    target = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }

  Specification spec = QblastSpec();
  RunGenerator generator(&spec);
  RunGenOptions opt;
  opt.target_vertices = target;
  opt.seed = 99;
  auto generated = generator.GenerateMany(opt, num_runs);
  SKL_CHECK_MSG(generated.ok(), generated.status().ToString().c_str());
  std::vector<Run> runs;
  runs.reserve(generated->size());
  for (GeneratedRun& g : *generated) runs.push_back(std::move(g.run));

  JsonReporter json("bench_bulk_ingest");
  json.Add("num_runs", static_cast<double>(num_runs), "runs");
  json.Add("target_vertices", target, "vertices");

  PrintHeader("Bulk Ingestion Scaling (QBLAST, " +
              std::to_string(num_runs) + " runs x ~" +
              std::to_string(target) + " vertices)");
  std::printf("%10s %8s %10s %9s %8s %8s\n", "mode", "threads", "total ms",
              "ms/run", "runs/s", "speedup");

  // Serial baseline: the pre-bulk-API idiom, one AddRun call per run.
  double serial_secs = 0;
  {
    auto service = ProvenanceService::Create(QblastSpec(),
                                             SpecSchemeKind::kTcm);
    SKL_CHECK(service.ok());
    Stopwatch sw;
    for (const Run& run : runs) {
      auto id = service->AddRun(run);
      SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
    }
    serial_secs = sw.ElapsedSeconds();
    SKL_CHECK(service->num_runs() == runs.size());
  }
  std::printf("%10s %8s %10.1f %9.2f %8.0f %8s\n", "serial", "-",
              serial_secs * 1e3, serial_secs * 1e3 / runs.size(),
              runs.size() / serial_secs, "1.00x");
  json.Add("serial_runs_per_sec", runs.size() / serial_secs, "runs/s");

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    ProvenanceService::Options options;
    options.num_threads = threads;
    auto service = ProvenanceService::Create(QblastSpec(),
                                             SpecSchemeKind::kTcm, options);
    SKL_CHECK(service.ok());
    Stopwatch sw;
    std::vector<Result<RunId>> ids = service->AddRunsParallel(runs);
    const double secs = sw.ElapsedSeconds();
    for (const Result<RunId>& id : ids) {
      SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
    }
    SKL_CHECK(service->num_runs() == runs.size());
    std::printf("%10s %8u %10.1f %9.2f %8.0f %7.2fx\n", "parallel", threads,
                secs * 1e3, secs * 1e3 / runs.size(), runs.size() / secs,
                serial_secs / secs);
    const std::string t = std::to_string(threads);
    json.Add("parallel_t" + t + "_runs_per_sec", runs.size() / secs,
             "runs/s");
    json.Add("parallel_t" + t + "_speedup", serial_secs / secs, "x");
  }

  std::printf("\nhardware threads: %u (wall-clock speedup is bounded by "
              "this)\n",
              ThreadPool::DefaultThreadCount());

  // Per-run stages, one run at a time on this thread.
  SkeletonLabeler labeler(&spec, SpecSchemeKind::kTcm);
  SKL_CHECK(labeler.Init().ok());
  std::vector<double> plan_ms, label_ms, blob_ms;
  size_t blob_bytes = 0;
  for (const Run& run : runs) {
    Stopwatch sw;
    auto recovered = ConstructPlan(spec, run);
    plan_ms.push_back(sw.ElapsedMillis());
    SKL_CHECK_MSG(recovered.ok(), recovered.status().ToString().c_str());
    sw.Restart();
    auto labeling = labeler.LabelRunWithPlan(run, recovered->plan,
                                             std::move(recovered->origin));
    label_ms.push_back(sw.ElapsedMillis());
    SKL_CHECK_MSG(labeling.ok(), labeling.status().ToString().c_str());
    sw.Restart();
    auto store = ProvenanceStore::Capture(*labeling);
    SKL_CHECK_MSG(store.ok(), store.status().ToString().c_str());
    const std::vector<uint8_t> blob = store->Serialize();
    blob_ms.push_back(sw.ElapsedMillis());
    blob_bytes += blob.size();
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::printf("\nper-run stages (median ms): construct plan %.3f, label "
              "%.3f, blob serialize %.3f (%.0f bytes/run)\n",
              median(plan_ms), median(label_ms), median(blob_ms),
              static_cast<double>(blob_bytes) / runs.size());
  json.Add("stage_construct_plan_ms", median(plan_ms), "ms");
  json.Add("stage_label_ms", median(label_ms), "ms");
  json.Add("stage_blob_serialize_ms", median(blob_ms), "ms");
  return 0;
}
