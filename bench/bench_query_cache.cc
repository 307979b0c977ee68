// Measures what the sharded registry + the spec-pair memo buy on the
// serving path (docs/BENCHMARKS.md):
//
//   1. per-query latency. BFS (per-query graph search, the scheme the
//      service keeps a spec memo for): the raw search at store level vs
//      the service's cold first sweep (memo filling) vs its warm sweeps
//      (memo hits). TCM (O(1) label compare): through the service only —
//      an indexed scheme's compare beats a memo probe, so the service
//      gives it no memo to measure — plus the BFS memo hit rate over
//      those sweeps (a bounded working set swept many times), and TCM
//      point queries spread uniformly over 64 runs, so each one also pays
//      the registry's run lookup and a cold label;
//   2. the label compare over the store's label words vs a twin of
//      16-byte RunLabel rows, and the service's ReachesBatch on 1024-pair
//      uniform batches;
//   3. multi-reader TCM throughput at 1/2/4/8 threads with the registry
//      fully contended (--shards=1: every run on one lock) vs striped
//      (16 shards) — the lock-contention spread only shows on multi-core
//      hardware (the trailer prints the thread count available).
//
// Knobs (environment, like every bench here): SKL_BENCH_CACHE_QUERIES,
// SKL_BENCH_CACHE_SIZE, SKL_BENCH_CACHE_WORKING_SET,
// SKL_BENCH_CACHE_MAX_THREADS. SKL_BENCH_JSON=<path> writes the key
// metrics for the CI bench-results artifact.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/core/provenance_service.h"
#include "src/core/provenance_store.h"
#include "src/core/run_labeling.h"
#include "src/speclabel/traversal.h"

namespace skl {
namespace bench {
namespace {

uint32_t EnvU32(const char* name, uint32_t fallback) {
  if (const char* env = std::getenv(name)) {
    return static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return fallback;
}

ProvenanceService MakeService(const Specification& spec, SpecSchemeKind kind,
                              size_t num_shards) {
  auto service = ProvenanceService::Create(Specification(spec), kind,
                                           {.num_shards = num_shards});
  SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
  return std::move(service).value();
}

double NsPerQuery(double seconds, size_t queries) {
  return queries == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(queries);
}

/// Sweeps the query set `rounds` times; returns elapsed seconds.
double Sweep(const ProvenanceService& service, RunId id,
             const std::vector<VertexPair>& queries, size_t rounds) {
  Stopwatch sw;
  for (size_t r = 0; r < rounds; ++r) {
    for (const auto& [v, w] : queries) {
      auto answer = service.Reaches(id, v, w);
      SKL_CHECK(answer.ok());
    }
  }
  return sw.ElapsedSeconds();
}

/// Sweeps once, recording each query's latency in nanoseconds into `hist` —
/// the same LatencyHistogram the server's metrics endpoint serves
/// (src/common/metrics.h), so a bench p99 and a scraped p99 come from one
/// bucketing code path. Kept separate from Sweep: the per-query Stopwatch
/// restart would perturb the aggregate ns/query numbers the CI gate reads.
void SweepRecording(const ProvenanceService& service, RunId id,
                    const std::vector<VertexPair>& queries,
                    LatencyHistogram& hist) {
  Stopwatch sw;
  for (const auto& [v, w] : queries) {
    sw.Restart();
    auto answer = service.Reaches(id, v, w);
    hist.Record(static_cast<uint64_t>(sw.ElapsedSeconds() * 1e9));
    SKL_CHECK(answer.ok());
  }
}

}  // namespace
}  // namespace bench
}  // namespace skl

int main() {
  using namespace skl;         // NOLINT: bench brevity
  using namespace skl::bench;  // NOLINT

  const uint32_t run_size = EnvU32("SKL_BENCH_CACHE_SIZE", 2000);
  const uint32_t total_queries = EnvU32("SKL_BENCH_CACHE_QUERIES", 200000);
  const uint32_t working_set = EnvU32("SKL_BENCH_CACHE_WORKING_SET", 1024);
  const uint32_t max_threads = EnvU32("SKL_BENCH_CACHE_MAX_THREADS", 8);
  const size_t rounds =
      std::max<size_t>(1, total_queries / std::max<uint32_t>(1, working_set));

  JsonReporter json("bench_query_cache");
  const Specification spec = SyntheticSpec();
  const GeneratedRun generated = MakeRun(spec, run_size, /*seed=*/7);
  const VertexId n = generated.run.num_vertices();

  // ----------------------------------------- 1. uncached / cold / warm ns --
  PrintHeader("spec memo: per-query latency (ns)");
  std::printf("%-8s %14s %14s %14s %10s\n", "scheme", "uncached", "cold",
              "warm", "hit rate");
  const std::vector<VertexPair> queries =
      GenerateQueries(n, working_set, /*seed=*/17);
  {
    ProvenanceService tcm = MakeService(spec, SpecSchemeKind::kTcm, 8);
    auto id = tcm.AddRun(generated.run);
    SKL_CHECK(id.ok());
    const double uncached_ns = NsPerQuery(Sweep(tcm, *id, queries, rounds),
                                          queries.size() * rounds);
    std::printf("%-8s %14.1f %14s %14s %10s\n", "TCM", uncached_ns, "-", "-",
                "-");
    json.Add("tcm_uncached_ns", uncached_ns, "ns/query");

    // The same pairs, each on one of 64 runs picked uniformly: every query
    // looks its run up in the registry, and the labels of 64 runs no
    // longer sit in the core's private caches.
    constexpr size_t kManyRuns = 64;
    std::vector<RunId> ids;
    for (size_t r = 0; r < kManyRuns; ++r) {
      auto many_id = tcm.AddRun(generated.run);
      SKL_CHECK(many_id.ok());
      ids.push_back(*many_id);
    }
    Rng rng(31);
    std::vector<RunId> run_of(queries.size() * kManyRuns / 4);
    for (RunId& picked : run_of) picked = ids[rng.NextBelow(kManyRuns)];
    const size_t many_queries = queries.size() * rounds;
    Stopwatch many_sw;
    for (size_t q = 0; q < many_queries; ++q) {
      const auto& [v, w] = queries[q % queries.size()];
      auto answer = tcm.Reaches(run_of[q % run_of.size()], v, w);
      SKL_CHECK(answer.ok());
    }
    const double many_runs_ns =
        NsPerQuery(many_sw.ElapsedSeconds(), many_queries);
    std::printf("%-8s %14.1f   (uniform over %zu runs)\n", "TCM",
                many_runs_ns, kManyRuns);
    json.Add("tcm_many_runs_ns", many_runs_ns, "ns/query");
  }
  {
    ProvenanceService service = MakeService(spec, SpecSchemeKind::kBfs, 8);
    auto id = service.AddRun(generated.run);
    SKL_CHECK(id.ok());

    // Uncached: the same label compare over the run's stored labels with a
    // raw BfsScheme, store level like section 2 — no memo, no locks.
    auto blob = service.ExportRun(*id);
    SKL_CHECK(blob.ok());
    auto store = ProvenanceStore::Deserialize(*blob);
    SKL_CHECK(store.ok());
    BfsScheme raw_bfs;
    SKL_CHECK(raw_bfs.Build(spec.graph()).ok());
    size_t sink = 0;
    Stopwatch raw_sw;
    for (size_t r = 0; r < rounds; ++r) {
      for (const auto& [v, w] : queries) {
        sink += RunLabeling::Decide(store->label(v), store->label(w), raw_bfs)
                    ? 1
                    : 0;
      }
    }
    const double uncached_ns =
        NsPerQuery(raw_sw.ElapsedSeconds(), queries.size() * rounds);
    if (sink == 0xdeadbeef) std::printf("impossible\n");  // keep sink live
    // Cold pass: the memo fills as spec pairs first appear.
    const double miss_ns = NsPerQuery(
        Sweep(service, *id, queries, 1), queries.size());
    // Warm passes: every spec pair the working set needs is memoized.
    const double hit_ns = NsPerQuery(
        Sweep(service, *id, queries, rounds), queries.size() * rounds);
    const ServiceStats stats = service.service_stats();
    const double hit_rate =
        100.0 * static_cast<double>(stats.cache_hits) /
        static_cast<double>(stats.cache_hits + stats.cache_misses);
    // Hit-latency distribution (everything is warm by now): quantiles via
    // the production histogram rather than a private sort.
    LatencyHistogram hit_hist;
    SweepRecording(service, *id, queries, hit_hist);
    const double hit_p99_ns = hit_hist.Quantile(0.99);
    std::printf("%-8s %14.1f %14.1f %14.1f %9.1f%%   (hit p99 %.0f ns)\n",
                "BFS", uncached_ns, miss_ns, hit_ns, hit_rate, hit_p99_ns);
    json.Add("bfs_uncached_ns", uncached_ns, "ns/query");
    json.Add("bfs_miss_ns", miss_ns, "ns/query");
    json.Add("bfs_hit_p99_ns", hit_p99_ns, "ns/query");
    json.Add("repeat_workload_hit_rate_pct", hit_rate, "%");
    // The bench-compare CI gate's serving-latency key
    // (tools/bench_compare.py; docs/BENCHMARKS.md).
    json.Add("query_cache_hit_ns", hit_ns, "ns/query");
  }

  // ---------------- 2. label compare: one word per vertex vs 16-byte rows --
  {
    // The storage-layout before/after column: the same label-compare sweep
    // (every source vertex against a fixed target, the ReachesBatch inner
    // loop) over the store's label words, fields compared masked in place
    // as the service's point path does, vs a twin of RunLabel rows (four
    // uint32 fields, 16 bytes) decoded from them. Store-level on purpose:
    // no memo, no locks, just the memory layout under the decision.
    ProvenanceService service = MakeService(spec, SpecSchemeKind::kTcm, 8);
    auto id = service.AddRun(generated.run);
    SKL_CHECK(id.ok());
    auto blob = service.ExportRun(*id);
    SKL_CHECK(blob.ok());
    auto store = ProvenanceStore::Deserialize(*blob);
    SKL_CHECK(store.ok());
    const SpecLabelingScheme& scheme = service.scheme();
    const size_t kernel_rounds = std::max<size_t>(1, total_queries / n);

    std::vector<RunLabel> rows;
    rows.reserve(n);
    for (VertexId v = 0; v < n; ++v) rows.push_back(store->label(v));

    const std::span<const uint64_t> words = store->label_words();
    const LabelPacking packing = store->packing();
    size_t word_true = 0, row_true = 0;
    Stopwatch sw;
    for (size_t r = 0; r < kernel_rounds; ++r) {
      const uint64_t target = words[n - 1 - (r % n)];
      const PackedContext target_context = packing.Context(target);
      for (VertexId v = 0; v < n; ++v) {
        const ContextVerdict context =
            ContextTest(packing.Context(words[v]), target_context);
        word_true += context.split != 0
                         ? context.forward
                         : scheme.Reaches(packing.Origin(words[v]),
                                          packing.Origin(target));
      }
    }
    const double word_ns =
        NsPerQuery(sw.ElapsedSeconds(), static_cast<size_t>(n) * kernel_rounds);
    sw.Restart();
    for (size_t r = 0; r < kernel_rounds; ++r) {
      const RunLabel target = rows[n - 1 - (r % n)];
      for (VertexId v = 0; v < n; ++v) {
        row_true += RunLabeling::Decide(rows[v], target, scheme) ? 1 : 0;
      }
    }
    const double row_ns =
        NsPerQuery(sw.ElapsedSeconds(), static_cast<size_t>(n) * kernel_rounds);
    SKL_CHECK(word_true == row_true);  // layouts must agree bit-for-bit

    // The service's own batch path on 1024-pair uniform batches: shard
    // pin, whole-span validation, the branch-free kernel and the answer
    // fill. Informational, not gated.
    const std::vector<VertexPair> batch =
        GenerateQueries(n, 1024, /*seed=*/29);
    const size_t batch_rounds =
        std::max<size_t>(1, total_queries / batch.size());
    size_t batch_true = 0;
    sw.Restart();
    for (size_t r = 0; r < batch_rounds; ++r) {
      auto answers = service.ReachesBatch(*id, batch);
      SKL_CHECK(answers.ok());
      batch_true += (*answers)[r % batch.size()] ? 1 : 0;
    }
    const double batch_kernel_ns =
        NsPerQuery(sw.ElapsedSeconds(), batch.size() * batch_rounds);
    if (batch_true == 0xdeadbeef) std::printf("impossible\n");  // keep live

    PrintHeader("label compare (TCM, full-run sweep)");
    std::printf("label words %8.2f ns/pair   16-byte rows %8.2f ns/pair "
                "(%zu pairs, answers identical)\n",
                word_ns, row_ns, static_cast<size_t>(n) * kernel_rounds);
    std::printf("ReachesBatch %8.2f ns/pair (1024-pair uniform batches)\n",
                batch_kernel_ns);
    json.Add("batch_word_ns", word_ns, "ns/pair");
    json.Add("batch_row_ns", row_ns, "ns/pair");
    json.Add("batch_kernel_ns", batch_kernel_ns, "ns/pair");
  }

  // --------------------------- 3. reader scaling: contended vs sharded --
  PrintHeader("multi-reader throughput (queries/s)");
  std::printf("%-8s %16s %16s\n", "threads", "1 shard", "16 shards");
  for (uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    double qps[2] = {0, 0};
    int config = 0;
    for (size_t shards : {size_t{1}, size_t{16}}) {
      ProvenanceService service =
          MakeService(spec, SpecSchemeKind::kTcm, shards);
      // One run per thread: with 16 shards the ids stripe over distinct
      // locks; with 1 shard every thread contends on the same one.
      std::vector<RunId> ids;
      for (uint32_t t = 0; t < threads; ++t) {
        auto id = service.AddRun(generated.run);
        SKL_CHECK(id.ok());
        ids.push_back(*id);
      }
      const size_t per_thread = total_queries / threads;
      std::vector<std::vector<VertexPair>> thread_queries;
      for (uint32_t t = 0; t < threads; ++t) {
        thread_queries.push_back(
            GenerateQueries(n, working_set, /*seed=*/100 + t));
      }
      Stopwatch sw;
      std::vector<std::thread> workers;
      for (uint32_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          const std::vector<VertexPair>& qs = thread_queries[t];
          for (size_t q = 0; q < per_thread; ++q) {
            const auto& [v, w] = qs[q % qs.size()];
            auto answer = service.Reaches(ids[t], v, w);
            SKL_CHECK(answer.ok());
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double seconds = sw.ElapsedSeconds();
      qps[config] = seconds > 0
                        ? static_cast<double>(per_thread) * threads / seconds
                        : 0.0;
      json.Add("qps_shards" + std::to_string(shards) + "_t" +
                   std::to_string(threads),
               qps[config], "queries/s");
      ++config;
    }
    std::printf("%-8u %16.0f %16.0f\n", threads, qps[0], qps[1]);
  }
  std::printf(
      "\n(threads available on this machine: %u — the contended-vs-sharded "
      "spread needs real cores)\n",
      std::thread::hardware_concurrency());
  return 0;
}
