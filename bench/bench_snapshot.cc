// Durable snapshot throughput and the warm-restart argument: a service
// restored via LoadSnapshot skips every per-run relabeling the paper's
// pipeline would otherwise redo on restart. Measures (a) SaveSnapshot and
// LoadSnapshot throughput in runs/sec and MB/s over a populated registry,
// and (b) warm restart (LoadSnapshot) against the cold path a snapshot-less
// deployment is stuck with: re-parse every run XML and relabel it from
// scratch (plan recovery + labeling + capture).
//
// Workload knobs: SKL_BENCH_SNAP_RUNS (default 16 runs) and
// SKL_BENCH_SNAP_SIZE (default ~1000 vertices per run); every run carries a
// generated data catalog so blobs contain both labels and items.
// SKL_BENCH_JSON=<path> writes the metrics machine-readably (CI archives
// them on every push). Each load time is the median of five loads. crc32_mb_per_s is the CRC-32 speed over the
// snapshot's own bytes, which every save and load checksums once; it is
// gated, and the crc32 row names the kernel that ran (clmul or table).
// snapshot_load_chain_ms loads the same registry after 80 spec deltas
// (40 source -> par<i> -> sink grafts and their removals), so the load
// also replays the epoch chain, one spec rebuild per delta.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/crc32.h"
#include "src/common/file_bytes.h"
#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/workflow/spec_delta.h"
#include "src/workload/data_generator.h"

int main() {
  using namespace skl;
  using namespace skl::bench;

  size_t num_runs = 16;
  if (const char* env = std::getenv("SKL_BENCH_SNAP_RUNS")) {
    num_runs = std::strtoul(env, nullptr, 10);
  }
  uint32_t target = 1000;
  if (const char* env = std::getenv("SKL_BENCH_SNAP_SIZE")) {
    target = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }

  JsonReporter json("bench_snapshot");
  json.Add("num_runs", static_cast<double>(num_runs), "runs");
  json.Add("target_vertices", target, "vertices");

  PrintHeader("Service Snapshot Save/Load (QBLAST, " +
              std::to_string(num_runs) + " runs x ~" +
              std::to_string(target) + " vertices)");

  Specification spec = QblastSpec();
  RunGenerator generator(&spec);
  RunGenOptions opt;
  opt.target_vertices = target;
  opt.seed = 1234;
  auto generated = generator.GenerateMany(opt, num_runs);
  SKL_CHECK_MSG(generated.ok(), generated.status().ToString().c_str());

  // The cold-restart input: run XMLs plus catalogs, exactly what a
  // snapshot-less service would re-ingest from its workflow archive.
  std::vector<std::string> run_xmls;
  std::vector<DataCatalog> catalogs;
  run_xmls.reserve(num_runs);
  catalogs.reserve(num_runs);
  uint64_t total_vertices = 0;
  for (const GeneratedRun& g : *generated) {
    run_xmls.push_back(WriteRunXml(g.run));
    DataGenOptions dopt;
    dopt.seed = 7 + run_xmls.size();
    catalogs.push_back(GenerateDataCatalog(g.run, dopt));
    total_vertices += g.run.num_vertices();
  }

  auto service = ProvenanceService::Create(QblastSpec(), SpecSchemeKind::kTcm);
  SKL_CHECK(service.ok());
  for (size_t i = 0; i < generated->size(); ++i) {
    auto id = service->AddRun((*generated)[i].run, &catalogs[i]);
    SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
  }

  const std::string path = PidQualifiedTempPath("bench_snapshot", ".skls");

  Stopwatch sw;
  Status saved = service->SaveSnapshot(path);
  const double save_secs = sw.ElapsedSeconds();
  SKL_CHECK_MSG(saved.ok(), saved.ToString().c_str());
  std::error_code ec;
  const double mb =
      static_cast<double>(std::filesystem::file_size(path, ec)) / 1e6;
  SKL_CHECK(!ec);

  // One load takes a few ms and swings with the host, so each load time is
  // the median of kLoads loads of the same file, each checked the same way.
  // Returns the median seconds; *out keeps the last service loaded.
  constexpr int kLoads = 5;
  auto median_load = [&](const std::string& from,
                         SnapshotLoadOptions load_options,
                         std::optional<ProvenanceService>* out) {
    std::vector<double> secs;
    for (int i = 0; i < kLoads; ++i) {
      out->reset();  // the previous service's memory goes before the timing
      sw.Restart();
      auto loaded = ProvenanceService::LoadSnapshot(from, {}, load_options);
      secs.push_back(sw.ElapsedSeconds());
      SKL_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
      SKL_CHECK(loaded->num_runs() == service->num_runs());
      out->emplace(std::move(loaded).value());
    }
    std::sort(secs.begin(), secs.end());
    return secs[kLoads / 2];
  };
  std::optional<ProvenanceService> restored;
  const double load_secs = median_load(path, {}, &restored);
  // The zero-copy path: map the columnar sections read-only and rebuild
  // only the per-run index.
  std::optional<ProvenanceService> mapped;
  const double mmap_secs = median_load(path, {.use_mmap = true}, &mapped);

  // CRC-32 over the file's bytes, repeated for at least 100 ms so a small
  // snapshot still gives a steady rate.
  auto file_bytes = ReadFileBytes(path, "snapshot file");
  SKL_CHECK_MSG(file_bytes.ok(), file_bytes.status().ToString().c_str());
  uint32_t crc = 0;
  size_t crc_passes = 0;
  sw.Restart();
  do {
    crc = Crc32(*file_bytes);
    ++crc_passes;
  } while (crc_passes < 4 || sw.ElapsedSeconds() < 0.1);
  const double crc_mb_per_s =
      mb * static_cast<double>(crc_passes) / sw.ElapsedSeconds();

  // Cold restart: re-parse every run XML and relabel it from scratch —
  // the work LoadSnapshot's label reuse avoids.
  sw.Restart();
  auto relabeled = ProvenanceService::Create(QblastSpec(),
                                             SpecSchemeKind::kTcm);
  SKL_CHECK(relabeled.ok());
  for (size_t i = 0; i < run_xmls.size(); ++i) {
    auto run = ReadRunXml(run_xmls[i]);
    SKL_CHECK_MSG(run.ok(), run.status().ToString().c_str());
    auto id = relabeled->AddRun(*run, &catalogs[i]);
    SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
  }
  const double relabel_secs = sw.ElapsedSeconds();

  // The restored registry must answer like the original (spot check; the
  // exhaustive version lives in tests/snapshot_test.cc).
  for (RunId id : service->ListRuns()) {
    auto stats = service->Stats(id);
    SKL_CHECK(stats.ok());
    const VertexId n = stats->num_vertices;
    for (VertexId v = 0; v < n; v += 1 + n / 8) {
      auto a = service->Reaches(id, v, n - 1 - v);
      auto b = restored->Reaches(id, v, n - 1 - v);
      SKL_CHECK(a.ok() && b.ok() && *a == *b);
    }
  }

  std::printf("%14s %10s %10s %10s\n", "phase", "total ms", "runs/s",
              "MB/s");
  std::printf("%14s %10.2f %10.0f %10.1f\n", "save", save_secs * 1e3,
              num_runs / save_secs, mb / save_secs);
  std::printf("%14s %10.2f %10.0f %10.1f\n", "load", load_secs * 1e3,
              num_runs / load_secs, mb / load_secs);
  std::printf("%14s %10.2f %10.0f %10.1f\n", "load (mmap)", mmap_secs * 1e3,
              num_runs / mmap_secs, mb / mmap_secs);
  std::printf("%14s %10.2f %10.0f %10s\n", "relabel (xml)",
              relabel_secs * 1e3, num_runs / relabel_secs, "-");
  // The same registry behind an 80-delta epoch chain.
  const Specification& qblast = service->spec();
  const std::string source = qblast.ModuleName(qblast.source());
  const std::string sink = qblast.ModuleName(qblast.sink());
  for (int i = 0; i < 80; ++i) {
    SpecDelta delta;
    delta.module = "par" + std::to_string(i / 2);
    if (i % 2 == 0) {
      delta.kind = SpecDelta::Kind::kAddModule;
      delta.from = {source};
      delta.to = {sink};
    } else {
      delta.kind = SpecDelta::Kind::kRemoveModule;
    }
    auto applied = service->ApplySpecDelta(delta);
    SKL_CHECK_MSG(applied.ok(), applied.status().ToString().c_str());
  }
  const std::string chain_path =
      PidQualifiedTempPath("bench_snapshot_chain", ".skls");
  SKL_CHECK(service->SaveSnapshot(chain_path).ok());
  std::optional<ProvenanceService> replayed;
  const double chain_secs = median_load(chain_path, {}, &replayed);
  SKL_CHECK(replayed->spec_epoch() == service->spec_epoch());

  std::printf("%14s %10.2f %10.0f %10s  (after %llu spec deltas)\n",
              "load (chain)", chain_secs * 1e3, num_runs / chain_secs, "-",
              static_cast<unsigned long long>(service->spec_epoch() - 1));
  std::printf("%14s %10s %10s %10.1f  (%s kernel, file CRC-32 %08x)\n",
              "crc32", "-", "-", crc_mb_per_s,
              crc32_internal::HostHasClmul() ? "clmul" : "table", crc);
  std::printf("\nsnapshot: %.3f MB for %zu runs (%llu vertices); "
              "warm restart is %.1fx faster than relabeling\n",
              mb, num_runs, static_cast<unsigned long long>(total_vertices),
              relabel_secs / load_secs);

  json.Add("snapshot_mb", mb, "MB");
  json.Add("save_ms", save_secs * 1e3, "ms");
  json.Add("save_runs_per_sec", num_runs / save_secs, "runs/s");
  json.Add("save_mb_per_sec", mb / save_secs, "MB/s");
  json.Add("load_ms", load_secs * 1e3, "ms");
  json.Add("load_runs_per_sec", num_runs / load_secs, "runs/s");
  json.Add("load_mb_per_sec", mb / load_secs, "MB/s");
  // The snapshot_load_* keys are the bench-compare CI gate's regression
  // surface (tools/bench_compare.py; docs/BENCHMARKS.md).
  json.Add("snapshot_load_ms", load_secs * 1e3, "ms");
  json.Add("snapshot_load_mmap_ms", mmap_secs * 1e3, "ms");
  json.Add("snapshot_load_mb_per_sec", mb / load_secs, "MB/s");
  json.Add("snapshot_load_chain_ms", chain_secs * 1e3, "ms");
  json.Add("crc32_mb_per_s", crc_mb_per_s, "MB/s");
  json.Add("relabel_ms", relabel_secs * 1e3, "ms");
  json.Add("warm_restart_speedup", relabel_secs / load_secs, "x");

  std::filesystem::remove(path, ec);
  std::filesystem::remove(chain_path, ec);
  return 0;
}
