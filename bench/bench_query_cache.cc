// Measures what the sharded registry + per-shard result cache buy on the
// serving path (docs/BENCHMARKS.md):
//
//   1. per-query latency. BFS (per-query graph search, the scheme the
//      service keeps a cache for): uncached compute vs cache miss
//      (compute+insert) vs cache hit. TCM (O(1) label compare): uncached
//      only — an indexed scheme's compare beats a cache probe, so the
//      service gives it no cache to measure;
//   2. the BFS cache hit rate on a repeated-query workload (a bounded
//      working set swept many times), the >90% regime the acceptance bar
//      names;
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
#include "src/core/provenance_service.h"
#include "src/core/provenance_store.h"
#include "src/core/run_labeling.h"

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
                              size_t num_shards, size_t cache_slots) {
  auto service = ProvenanceService::Create(
      Specification(spec), kind,
      {.num_shards = num_shards, .cache_slots = cache_slots});
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

  // ------------------------------------------ 1. hit / miss / uncached ns --
  PrintHeader("query cache: per-query latency (ns)");
  std::printf("%-8s %14s %14s %14s %10s\n", "scheme", "uncached", "miss",
              "hit", "hit rate");
  const std::vector<VertexPair> queries =
      GenerateQueries(n, working_set, /*seed=*/17);
  {
    ProvenanceService tcm = MakeService(spec, SpecSchemeKind::kTcm, 8, 0);
    auto id = tcm.AddRun(generated.run);
    SKL_CHECK(id.ok());
    const double uncached_ns = NsPerQuery(Sweep(tcm, *id, queries, rounds),
                                          queries.size() * rounds);
    std::printf("%-8s %14.1f %14s %14s %10s\n", "TCM", uncached_ns, "-", "-",
                "-");
    json.Add("tcm_uncached_ns", uncached_ns, "ns/query");
  }
  {
    ProvenanceService uncached = MakeService(spec, SpecSchemeKind::kBfs, 8, 0);
    ProvenanceService cached =
        MakeService(spec, SpecSchemeKind::kBfs, 8, 1 << 15);
    auto uncached_id = uncached.AddRun(generated.run);
    auto cached_id = cached.AddRun(generated.run);
    SKL_CHECK(uncached_id.ok() && cached_id.ok());

    const double uncached_ns = NsPerQuery(
        Sweep(uncached, *uncached_id, queries, rounds),
        queries.size() * rounds);
    // Cold pass: every probe misses, computes and inserts.
    const double miss_ns = NsPerQuery(
        Sweep(cached, *cached_id, queries, 1), queries.size());
    // Warm passes: everything hits (the working set fits the cache).
    const double hit_ns = NsPerQuery(
        Sweep(cached, *cached_id, queries, rounds), queries.size() * rounds);
    const ServiceStats stats = cached.service_stats();
    const double hit_rate =
        100.0 * static_cast<double>(stats.cache_hits) /
        static_cast<double>(stats.cache_hits + stats.cache_misses);
    // Hit-latency distribution (everything is warm by now): quantiles via
    // the production histogram rather than a private sort.
    LatencyHistogram hit_hist;
    SweepRecording(cached, *cached_id, queries, hit_hist);
    const double hit_p99_ns = hit_hist.Quantile(0.99);
    std::printf("%-8s %14.1f %14.1f %14.1f %9.1f%%   (hit p99 %.0f ns)\n",
                "BFS", uncached_ns, miss_ns, hit_ns, hit_rate, hit_p99_ns);
    json.Add("bfs_uncached_ns", uncached_ns, "ns/query");
    json.Add("bfs_miss_ns", miss_ns, "ns/query");
    json.Add("bfs_hit_p99_ns", hit_p99_ns, "ns/query");
    // The bench-compare CI gate's serving-latency key
    // (tools/bench_compare.py; docs/BENCHMARKS.md).
    json.Add("query_cache_hit_ns", hit_ns, "ns/query");
  }

  // --------------------------------- 2. repeated-query workload hit rate --
  {
    ProvenanceService service = MakeService(spec, SpecSchemeKind::kBfs, 8,
                                            1 << 15);
    auto id = service.AddRun(generated.run);
    SKL_CHECK(id.ok());
    const std::vector<VertexPair> repeat =
        GenerateQueries(n, working_set, /*seed=*/29);
    Sweep(service, *id, repeat, rounds);
    const ServiceStats stats = service.service_stats();
    const double hit_rate =
        100.0 * static_cast<double>(stats.cache_hits) /
        static_cast<double>(stats.cache_hits + stats.cache_misses);
    PrintHeader("repeated-query workload (BFS)");
    std::printf("working set %u pairs, %zu sweeps: hit rate %.1f%% "
                "(%llu hits / %llu lookups)\n",
                working_set, rounds, hit_rate,
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_hits +
                                                stats.cache_misses));
    json.Add("repeat_workload_hit_rate_pct", hit_rate, "%");
  }

  // ------------------- 2b. batch kernel: columnar vs AoS label storage --
  {
    // The storage-layout before/after column: the same label-compare sweep
    // (every source vertex against a fixed target, the ReachesBatch inner
    // loop) over the store's flat columns vs an array-of-structs twin
    // materialized from them — the per-run heap-blob layout the columnar
    // arena replaced. Store-level on purpose: no cache, no locks, just the
    // memory layout under the decision kernel.
    ProvenanceService service = MakeService(spec, SpecSchemeKind::kTcm, 8, 0);
    auto id = service.AddRun(generated.run);
    SKL_CHECK(id.ok());
    auto blob = service.ExportRun(*id);
    SKL_CHECK(blob.ok());
    auto store = ProvenanceStore::Deserialize(*blob);
    SKL_CHECK(store.ok());
    const SpecLabelingScheme& scheme = service.scheme();
    const size_t kernel_rounds = std::max<size_t>(1, total_queries / n);

    std::vector<RunLabel> aos;
    aos.reserve(n);
    for (VertexId v = 0; v < n; ++v) aos.push_back(store->label(v));

    size_t columnar_true = 0, aos_true = 0;
    Stopwatch sw;
    for (size_t r = 0; r < kernel_rounds; ++r) {
      const RunLabel target = store->label(n - 1 - (r % n));
      for (VertexId v = 0; v < n; ++v) {
        columnar_true +=
            RunLabeling::Decide(store->label(v), target, scheme) ? 1 : 0;
      }
    }
    const double columnar_ns =
        NsPerQuery(sw.ElapsedSeconds(), static_cast<size_t>(n) * kernel_rounds);
    sw.Restart();
    for (size_t r = 0; r < kernel_rounds; ++r) {
      const RunLabel target = aos[n - 1 - (r % n)];
      for (VertexId v = 0; v < n; ++v) {
        aos_true += RunLabeling::Decide(aos[v], target, scheme) ? 1 : 0;
      }
    }
    const double aos_ns =
        NsPerQuery(sw.ElapsedSeconds(), static_cast<size_t>(n) * kernel_rounds);
    SKL_CHECK(columnar_true == aos_true);  // layouts must agree bit-for-bit

    PrintHeader("batch label-compare kernel (TCM, full-run sweep)");
    std::printf("columnar %8.2f ns/pair   aos twin %8.2f ns/pair "
                "(%zu pairs, answers identical)\n",
                columnar_ns, aos_ns,
                static_cast<size_t>(n) * kernel_rounds);
    json.Add("batch_columnar_ns", columnar_ns, "ns/pair");
    json.Add("batch_aos_ns", aos_ns, "ns/pair");
  }

  // --------------------------- 3. reader scaling: contended vs sharded --
  PrintHeader("multi-reader throughput (queries/s)");
  std::printf("%-8s %16s %16s\n", "threads", "1 shard", "16 shards");
  for (uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    double qps[2] = {0, 0};
    int config = 0;
    for (size_t shards : {size_t{1}, size_t{16}}) {
      ProvenanceService service =
          MakeService(spec, SpecSchemeKind::kTcm, shards, 0);
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
