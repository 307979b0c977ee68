// perfbench: the repository's end-to-end benchmark. One process runs one
// workload against the public API of src/core, src/net, src/replication and
// src/io, checks a fixed sample of answers against a graph-search oracle,
// and prints its metrics as the last line of standard output:
//
//   perfbench --workload cold_read --seed 1 --seconds 20 --trace 0
//             --cpus 0,1,2,3 --workdir <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
// times the benchmark's own calls into each layer (decomposed twins of the
// read and ingest operations), reports per-layer metrics and writes the
// spans to --trace-out. perfbench/run.py builds this binary and drives it;
// perfbench/README.md explains the workloads and every metric.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/crc32.h"
#include "src/common/metrics.h"
#include "src/core/plan_builder.h"
#include "src/core/provenance_service.h"
#include "src/core/provenance_store.h"
#include "src/core/run_labeling.h"
#include "src/io/workflow_xml.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/replication/oplog.h"
#include "src/workflow/spec_delta.h"
#include "src/workload/real_workflows.h"
#include "src/workload/run_generator.h"
#include "src/workload/spec_generator.h"

namespace perfbench {
namespace {

using skl::ProvenanceClient;
using skl::ProvenanceServer;
using skl::ProvenanceService;
using skl::Result;
using skl::Run;
using skl::RunId;
using skl::SpecDelta;
using skl::SpecSchemeKind;
using skl::VertexId;
using skl::VertexPair;

constexpr size_t kRounds = 20;        // see Samples
constexpr int kSnapshotRepeats = 3;      // calls per round, or more, up to
constexpr int kMaxSnapshotRepeats = 20;  // 20, until they take 25 ms
constexpr uint64_t kTimedEvery = 64;  // in-process: 1 call in 64 is timed
constexpr size_t kStreamLength = size_t{1} << 20;  // per reader, cycled
constexpr size_t kRoundSamples = size_t{1} << 18;  // per reader and round
constexpr size_t kBatchPairs = 1024;
constexpr size_t kNumBatches = 64;
constexpr size_t kPipelineDepth = 64;
constexpr size_t kDeltaEvery = 20;        // AddRuns per graft+ungraft pair
// Runs the AddRun traffic cycles through: enough that add_run_p99_ms is a
// quantile of the run-cost distribution, not the cost of the few costliest
// runs a seed happened to draw: with 256 it sat near the third costliest.
constexpr size_t kPoolRuns = 1024;
// AddRuns of the read workloads' write probe, per run. add_run_p99_ms
// follows how often the host slows the calling CPU, so the probe must span
// seconds: 8000 in-process AddRuns (2.4 s) left its spread between runs at
// 18 %. Over the wire a call costs 2.5x more, so fewer cover as long.
constexpr size_t kProbeAdds = 16000;
constexpr size_t kWireProbeAdds = 8000;
constexpr size_t kWarmupAdds = 32;        // AddRuns before timing starts
constexpr size_t kIngestWindow = 256;     // ingest_durable live runs
constexpr size_t kOracleProbes = 256;
constexpr size_t kHotPairsPerRun = 1024;
constexpr double kZipfExponent = 0.99;

// ------------------------------------------------------------ arguments --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::vector<int> cpus;
  std::filesystem::path workdir;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--cpus") {
      for (size_t pos = 0; pos < value.size();) {
        size_t comma = value.find(',', pos);
        if (comma == std::string::npos) comma = value.size();
        args.cpus.push_back(std::stoi(value.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (args.workload.empty() || args.cpus.empty() || args.workdir.empty() ||
      args.seconds <= 0) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--cpus a,b,... --workdir DIR [--trace-out FILE]");
  }
  return args;
}

// ------------------------------------------------------------ workloads --

enum class Kind { kColdRead, kHotRead, kServeLoopback, kIngestDurable };

/// What a workload sets up. The specification is fixed per workload (the
/// synthetic one uses a fixed generator seed), so --seed varies only the
/// runs and the traffic, never the shape of the system under test.
struct Config {
  Kind kind = Kind::kColdRead;
  bool synthetic_spec = false;  // n_G = 800 synthetic spec, else QBLAST
  SpecSchemeKind scheme = SpecSchemeKind::kTcm;
  size_t shards = 16;
  size_t preload_runs = 0;
  uint32_t preload_vertices = 0;
  size_t pool_runs = 0;  // runs the AddRun traffic cycles through
  uint32_t pool_vertices = 0;
  size_t readers = 0;    // in-process reader threads
};

Config ConfigFor(const std::string& name) {
  if (name == "cold_read") {
    return {.kind = Kind::kColdRead,
            .preload_runs = 64, .preload_vertices = 5000,
            .pool_runs = kPoolRuns, .pool_vertices = 500,
            .readers = 3};
  }
  if (name == "hot_read") {
    // The synthetic spec alone has 800 modules, so its AddRun pool holds
    // 1000-vertex runs rather than 500-vertex ones.
    return {.kind = Kind::kHotRead, .synthetic_spec = true,
            .scheme = SpecSchemeKind::kBfs,
            .preload_runs = 8, .preload_vertices = 5000,
            .pool_runs = kPoolRuns, .pool_vertices = 1000,
            .readers = 1};
  }
  if (name == "serve_loopback") {
    // cold_read's 64 runs rather than one: the snapshot of a single
    // 5000-vertex run is one fsync, whose latency drifted by 30 % between
    // runs, and a single run big enough to dwarf it made the set-up's RSS
    // growth vary by a factor of two. Small runs for the write probe,
    // whose XML parsing dominates it.
    return {.kind = Kind::kServeLoopback, .shards = 8,
            .preload_runs = 64, .preload_vertices = 5000,
            .pool_runs = kPoolRuns, .pool_vertices = 250};
  }
  if (name == "ingest_durable") {
    return {.kind = Kind::kIngestDurable,
            .preload_runs = 16, .preload_vertices = 2000,
            .pool_runs = kPoolRuns, .pool_vertices = 2000,
            .readers = 1};
  }
  Die("unknown workload " + name);
}

/// Everything generated from the seed before any timing starts.
struct World {
  Args args;
  Config cfg;
  std::unique_ptr<skl::Specification> spec;  // stable: generators point here
  std::string source, sink;  // graft deltas hang a module between these
  std::vector<Run> preload;  // registered at setup
  std::vector<Run> pool;     // the AddRun traffic
  std::vector<std::string> pool_xml;  // serve_loopback sends runs as XML
  int main_cpu = 0;
  std::vector<int> reader_cpus;
};

std::vector<Run> GenerateRuns(const skl::Specification& spec, size_t count,
                              uint32_t vertices, uint64_t seed) {
  skl::RunGenerator generator(&spec);
  skl::RunGenOptions options;
  options.target_vertices = vertices;
  options.seed = seed;
  std::vector<skl::GeneratedRun> generated =
      Must(generator.GenerateMany(options, count, 4), "generate runs");
  std::vector<Run> runs;
  runs.reserve(count);
  for (auto& g : generated) runs.push_back(std::move(g.run));
  return runs;
}

std::unique_ptr<World> MakeWorld(const Args& args) {
  auto world = std::make_unique<World>();
  World& w = *world;
  w.args = args;
  w.cfg = ConfigFor(args.workload);
  if (w.cfg.synthetic_spec) {
    skl::SpecGenOptions options;
    options.num_vertices = 800;
    options.num_edges = 1600;
    options.num_subgraphs = 9;
    options.depth = 4;
    options.seed = 71;
    w.spec = std::make_unique<skl::Specification>(
        Must(skl::GenerateSpecification(options), "synthetic spec"));
  } else {
    w.spec = std::make_unique<skl::Specification>(
        Must(skl::BuildRealWorkflow("QBLAST"), "QBLAST spec"));
  }
  const skl::Digraph& g = w.spec->graph();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InNeighbors(v).empty()) w.source = w.spec->ModuleName(v);
    if (g.OutNeighbors(v).empty()) w.sink = w.spec->ModuleName(v);
  }
  Rng rng(args.seed);
  w.preload = GenerateRuns(*w.spec, w.cfg.preload_runs,
                           w.cfg.preload_vertices, rng.Next());
  w.pool =
      GenerateRuns(*w.spec, w.cfg.pool_runs, w.cfg.pool_vertices, rng.Next());
  if (w.cfg.kind == Kind::kServeLoopback) {
    for (const Run& run : w.pool) w.pool_xml.push_back(skl::WriteRunXml(run));
  }
  // CPU 0 of the allowed set is left to the OS. The main thread (setup,
  // batches, writes, snapshots) runs on the next CPU; in-process readers
  // get one CPU each from there on. The main thread sleeps while the read
  // workloads' readers run, so a reader may share its CPU; ingest_durable's
  // writer is busy, so its reader starts one CPU further.
  const std::vector<int>& cpus = args.cpus;
  w.main_cpu = cpus[1 % cpus.size()];
  const size_t first_reader = w.cfg.kind == Kind::kIngestDurable ? 2 : 1;
  for (size_t i = 0; i < w.cfg.readers; ++i) {
    w.reader_cpus.push_back(cpus[(first_reader + i) % cpus.size()]);
  }
  return world;
}

// ------------------------------------------------------------- traffic --

/// One point query: index into the target's run-id list, then two vertices.
struct Triple {
  uint32_t run = 0;
  VertexId v = 0;
  VertexId w = 0;
};

std::vector<Triple> UniformStream(const std::vector<Run>& runs, size_t count,
                                  Rng& rng) {
  std::vector<Triple> out(count);
  for (Triple& t : out) {
    t.run = rng.Below(static_cast<uint32_t>(runs.size()));
    const uint32_t n = runs[t.run].num_vertices();
    t.v = rng.Below(n);
    t.w = rng.Below(n);
  }
  return out;
}

/// hot_read's hot set: kHotPairsPerRun fixed pairs per run, in a random
/// rank order. It depends on the seed alone, so every stream and batch of a
/// run uses the same pairs.
std::vector<Triple> HotSet(const World& w) {
  Rng rng(w.args.seed ^ 0x407);
  std::vector<Triple> hot;
  for (uint32_t run = 0; run < w.preload.size(); ++run) {
    const uint32_t n = w.preload[run].num_vertices();
    for (size_t i = 0; i < kHotPairsPerRun; ++i) {
      hot.push_back({run, rng.Below(n), rng.Below(n)});
    }
  }
  for (size_t i = hot.size() - 1; i > 0; --i) {
    std::swap(hot[i], hot[rng.Below(static_cast<uint32_t>(i + 1))]);
  }
  return hot;
}

/// hot_read's traffic: Zipf(0.99) over the hot set's ranks.
std::vector<Triple> ZipfStream(const World& w, size_t count, Rng& rng) {
  const std::vector<Triple> hot = HotSet(w);
  std::vector<double> cdf(hot.size());
  double total = 0;
  for (size_t k = 0; k < hot.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  std::vector<Triple> out(count);
  for (Triple& t : out) {
    const double u = rng.Unit() * total;
    const size_t k = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    t = hot[std::min(k, hot.size() - 1)];
  }
  return out;
}

std::vector<Triple> TrafficStream(const World& w, size_t count, Rng& rng) {
  return w.cfg.kind == Kind::kHotRead ? ZipfStream(w, count, rng)
                                      : UniformStream(w.preload, count, rng);
}

struct Batch {
  uint32_t run = 0;
  std::vector<VertexPair> pairs;
};

/// kBatchPairs-pair batches, each over one run, cut from the workload's
/// own traffic stream. On hot_read a batch is one run's whole hot set:
/// batches bypass the result cache, and Zipf-drawn batches would mostly time
/// the graph searches of the few top-ranked pairs a seed happened to draw.
std::vector<Batch> MakeBatches(const World& w, Rng& rng) {
  std::vector<Triple> stream =
      w.cfg.kind == Kind::kHotRead
          ? HotSet(w)
          : UniformStream(w.preload, kNumBatches * kBatchPairs * 4, rng);
  std::vector<Batch> batches(kNumBatches);
  for (size_t b = 0; b < kNumBatches; ++b) {
    batches[b].run = stream[b].run;
    for (const Triple& t : stream) {
      if (t.run != batches[b].run) continue;
      batches[b].pairs.push_back({t.v, t.w});
      if (batches[b].pairs.size() == kBatchPairs) break;
    }
    while (batches[b].pairs.size() < kBatchPairs) {
      const uint32_t n = w.preload[batches[b].run].num_vertices();
      batches[b].pairs.push_back({rng.Below(n), rng.Below(n)});
    }
  }
  return batches;
}

// -------------------------------------------------------------- oracle --

struct Probe {
  uint32_t run = 0;
  VertexId v = 0;
  VertexId w = 0;
  bool expected = false;
};

/// Half uniform pairs, half pairs joined by a short forward walk, so the
/// sample holds both answers.
std::vector<Probe> MakeProbes(const std::vector<const Run*>& runs, Rng& rng) {
  std::vector<Probe> probes(kOracleProbes);
  for (size_t i = 0; i < probes.size(); ++i) {
    Probe& p = probes[i];
    p.run = rng.Below(static_cast<uint32_t>(runs.size()));
    const Run& run = *runs[p.run];
    p.v = rng.Below(run.num_vertices());
    p.w = rng.Below(run.num_vertices());
    if (i % 2 == 1) {
      p.w = p.v;
      for (uint32_t step = 1 + rng.Below(16); step > 0; --step) {
        auto next = run.graph().OutNeighbors(p.w);
        if (next.empty()) break;
        p.w = next[rng.Below(static_cast<uint32_t>(next.size()))];
      }
    }
    p.expected = OracleReaches(run, p.v, p.w);
  }
  return probes;
}

template <class F>
void CheckProbes(const std::vector<Probe>& probes,
                 const std::vector<RunId>& ids, F&& answer,
                 const char* source, Tally& tally) {
  for (const Probe& p : probes) {
    Result<bool> got = answer(ids[p.run], p.v, p.w);
    if (!tally.Op(got.status(), source)) continue;
    if (*got != p.expected) {
      tally.Wrong(std::string(source) + " run " +
                  std::to_string(ids[p.run].value()) + " " +
                  std::to_string(p.v) + "->" + std::to_string(p.w));
    }
  }
}

/// Checks batch answers: every probe of one run in one call.
template <class F>
void CheckBatchProbes(const std::vector<Probe>& probes,
                      const std::vector<RunId>& ids, F&& batch,
                      const char* source, Tally& tally) {
  const uint32_t run = probes.front().run;
  std::vector<VertexPair> pairs;
  std::vector<bool> expected;
  for (const Probe& p : probes) {
    if (p.run != run) continue;
    pairs.push_back({p.v, p.w});
    expected.push_back(p.expected);
  }
  Result<std::vector<bool>> got = batch(ids[run], pairs);
  if (!tally.Op(got.status(), source)) return;
  if (*got != expected) tally.Wrong(std::string(source) + " batch");
}

std::vector<const Run*> Pointers(const std::vector<Run>& runs) {
  std::vector<const Run*> out;
  for (const Run& r : runs) out.push_back(&r);
  return out;
}

// --------------------------------------------------------------- setup --

struct LiveRun {
  RunId id;
  size_t pool_index = 0;
};

/// An in-process service, with its op-log when the workload is durable.
struct Local {
  std::unique_ptr<skl::OpLog> log;  // outlives the service that borrows it
  std::optional<ProvenanceService> svc;
  std::vector<RunId> ids;      // index-aligned with World::preload
  std::deque<LiveRun> window;  // ingest_durable: removable runs, oldest first
};

ProvenanceService::Options ServiceOptions(const Config& cfg) {
  ProvenanceService::Options options;
  options.num_threads = 1;  // fixed preload pool: one worker
  options.num_shards = cfg.shards;
  return options;
}

std::vector<RunId> Preload(ProvenanceService& svc, const World& w) {
  std::vector<RunId> ids;
  for (Result<RunId>& id : svc.AddRunsParallel(w.preload)) {
    ids.push_back(Must(std::move(id), "preload"));
  }
  return ids;
}

Local SetUpLocal(const World& w) {
  Local local;
  local.svc.emplace(Must(
      ProvenanceService::Create(*w.spec, w.cfg.scheme, ServiceOptions(w.cfg)),
      "create service"));
  if (w.cfg.kind == Kind::kIngestDurable) {
    // fsync is off: on a VM it measures the host's disk, not this code.
    const std::string path = (w.args.workdir / "ingest.oplog").string();
    std::filesystem::remove(path);
    skl::OpLog::Options log_options;
    log_options.fsync = false;
    local.log = Must(skl::OpLog::Open(path, skl::WriteSpecificationXml(*w.spec),
                                      std::string(local.svc->scheme().name()),
                                      log_options),
                     "open op-log");
    local.svc->AttachOpLog(local.log.get());
  }
  local.ids = Preload(*local.svc, w);
  if (w.cfg.kind == Kind::kIngestDurable) {
    // The window starts full, so every timed AddRun is followed by a
    // RemoveRun: the write loop is in its steady state from the first call.
    for (size_t i = 0; i < kIngestWindow; ++i) {
      const size_t index = i % w.pool.size();
      local.window.push_back(
          {Must(local.svc->AddRun(w.pool[index]), "prefill"), index});
    }
  }
  return local;
}

/// A loopback server (1 I/O thread, 1 worker) and one client connection.
struct Served {
  std::unique_ptr<ProvenanceServer> server;
  std::optional<ProvenanceClient> client;  // closed before the server stops
  std::vector<RunId> ids;
};

Served ServeService(ProvenanceService svc, std::vector<RunId> ids) {
  ProvenanceServer::Options options;
  options.num_threads = 1;
  options.num_io_threads = 1;
  Served served;
  served.ids = std::move(ids);
  served.server = Must(ProvenanceServer::Start(std::move(svc), options),
                       "start server");
  served.client.emplace(Must(
      ProvenanceClient::Connect("127.0.0.1", served.server->port()),
      "connect"));
  return served;
}

Served SetUpServed(const World& w) {
  ProvenanceService svc = Must(
      ProvenanceService::Create(*w.spec, w.cfg.scheme, ServiceOptions(w.cfg)),
      "create service");
  std::vector<RunId> ids = Preload(svc, w);
  return ServeService(std::move(svc), std::move(ids));
}

// -------------------------------------------------------------- samples --

/// Every figure of a run, accumulated over its rounds. A round is a whole
/// small run — set-up, focus traffic, secondary phases, teardown — on a
/// fresh service and heap, and each metric is a median over rounds (or over
/// windows of time-ordered samples; throughputs are means, see Mean), so a
/// host stall or a neighbour's burst moves one round's figures rather than
/// the result.
struct Samples {
  std::vector<double> setup_s;
  std::vector<std::vector<uint64_t>> point_ns;  // per reader, time order
  std::vector<double> point_rate;               // per round
  std::vector<double> batch_rate;               // per round
  std::vector<uint64_t> add_ns, delta_ns;       // time order
  uint64_t dropped_adds = 0;  // see RunIngest
  std::vector<double> save_ms, load_ms, mmap_ms;
  double rss_growth_mb = 0;  // first round, see ReportSamples
  double store_bytes_per_vertex = 0;
  // Validity counters, reported by the traced run.
  double cache_hit_ratio = 0;
  double epoch_step = 0;  // spec epochs per graft+ungraft pair; must be 2
};

void ReportSamples(const Samples& s, Report* r) {
  r->Add("setup_s", Median(s.setup_s), "s");
  r->Add("point_p50_ns", WindowedQuantile(s.point_ns, 0.50, "point"), "ns");
  r->Add("point_p99_ns", WindowedQuantile(s.point_ns, 0.99, "point"), "ns");
  r->Add("point_pairs_per_s", Mean(s.point_rate), "1/s");
  r->Add("batch_pairs_per_s", Mean(s.batch_rate), "1/s");
  r->Add("add_run_p50_ms",
         WindowedQuantile({s.add_ns}, 0.50, "add_run") * 1e-6, "ms");
  r->Add("add_run_p99_ms",
         WindowedQuantile({s.add_ns}, 0.99, "add_run") * 1e-6, "ms");
  r->Add("spec_delta_p50_ms",
         WindowedQuantile({s.delta_ns}, 0.50, "spec_delta") * 1e-6, "ms");
  r->Add("snapshot_save_ms", Median(s.save_ms), "ms");
  r->Add("snapshot_load_ms", Median(s.load_ms), "ms");
  r->Add("snapshot_load_mmap_ms", Median(s.mmap_ms), "ms");
  r->Add("rss_growth_mb", s.rss_growth_mb, "MB");
  r->Add("store_bytes_per_vertex", s.store_bytes_per_vertex, "B");
  r->Note(std::to_string(s.dropped_adds) +
          " AddRuns dropped from add_run_* as descheduled, " +
          std::to_string(s.add_ns.size()) + " kept");
}

// ---------------------------------------------------------- read phases --

/// In-process point readers, one pinned thread each, each cycling its own
/// pre-generated stream and recording into its own buffer until Finish().
class Readers {
 public:
  Readers(const ProvenanceService& svc, const std::vector<RunId>& ids,
          const std::vector<std::vector<Triple>>& streams,
          const std::vector<int>& cpus, std::vector<SampleBuffer>* buffers)
      : results_(streams.size()) {
    for (size_t i = 0; i < streams.size(); ++i) {
      threads_.emplace_back([this, &svc, &ids, &stream = streams[i],
                             samples = &(*buffers)[i], out = &results_[i],
                             cpu = cpus[i]] {
        PinThread(cpu);
        Body(svc, ids, stream, samples, out);
      });
    }
  }
  ~Readers() { Stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  /// Stops the readers; returns this round's throughput, summed over them.
  double Finish(Tally* tally) {
    Stop();
    double rate = 0;
    for (const Result& r : results_) {
      rate += static_cast<double>(r.tally.attempted) / r.seconds;
      tally->Merge(r.tally);
    }
    return rate;
  }

 private:
  struct Result {
    Tally tally;
    double seconds = 0;
  };

  void Body(const ProvenanceService& svc, const std::vector<RunId>& ids,
            const std::vector<Triple>& stream, SampleBuffer* samples,
            Result* out) {
    const size_t mask = stream.size() - 1;
    uint64_t answered = 0;
    uint64_t j = 0;
    const uint64_t start = NowNs();
    while (!stop_.load(std::memory_order_relaxed)) {
      for (int k = 0; k < 1024; ++k, ++j) {
        const Triple& t = stream[j & mask];
        const bool timed = j % kTimedEvery == 0;
        const uint64_t t0 = timed ? NowNs() : 0;
        skl::Result<bool> r = svc.Reaches(ids[t.run], t.v, t.w);
        if (timed) samples->Add(NowNs() - t0);
        if (!r.ok()) {
          out->tally.Op(r.status(), "Reaches");
        } else {
          ++out->tally.attempted;
          answered += *r;
        }
      }
    }
    out->seconds = static_cast<double>(NowNs() - start) * 1e-9;
    sink_.fetch_add(answered, std::memory_order_relaxed);
  }

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::vector<Result> results_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> sink_{0};
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

std::vector<std::vector<Triple>> ReaderStreams(const World& w, Rng& rng) {
  std::vector<std::vector<Triple>> streams;
  for (size_t i = 0; i < w.cfg.readers; ++i) {
    streams.push_back(TrafficStream(w, kStreamLength, rng));
  }
  return streams;
}

void SleepSeconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Pairs answered per second by back-to-back batch calls.
template <class F>
double BatchRate(const std::vector<Batch>& batches, F&& call, double seconds,
                 Tally& tally) {
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t pairs = 0;
  size_t k = 0;
  do {
    Result<std::vector<bool>> r = call(batches[k++ % batches.size()]);
    if (tally.Op(r.status(), "ReachesBatch")) pairs += r->size();
  } while (NowNs() < deadline);
  return static_cast<double>(pairs) /
         (static_cast<double>(NowNs() - start) * 1e-9);
}

double CacheHitRatio(const skl::ServiceStats& before,
                     const skl::ServiceStats& after) {
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

// ---------------------------------------------------------- write phase --

/// `adds` timed AddRuns (after kWarmupAdds untimed ones) cycling through
/// the pool from index `first`, so that the rounds of a run share out the
/// whole pool rather than each adding its first runs. Once more than
/// `window` runs are live, the oldest is removed after each AddRun. Every kDeltaEvery AddRuns a graft (a new module
/// between source and sink) and its ungraft are applied back to back: a
/// graft alone makes base-spec runs invalid. Records the epoch step.
///
/// An AddRun during which `cpu_clock` — the CPU time of whatever serves the
/// call — advanced by less than half the wall time is dropped from the
/// samples and counted: no AddRun path blocks (the op-log writes to the
/// page cache, fsync off), so that time went to another tenant or the host.
template <class Add, class Remove, class Delta>
void RunIngest(const World& w, size_t first, size_t adds, size_t window,
               clockid_t cpu_clock, Add&& add, Remove&& remove, Delta&& delta,
               std::deque<LiveRun>* live, Samples* s, Tally& tally) {
  uint64_t first_epoch = 0, last_epoch = 0, pairs = 0;
  for (size_t i = 0; i < kWarmupAdds + adds; ++i) {
    const size_t index = (first + i) % w.pool.size();
    const uint64_t cpu0 = CpuNs(cpu_clock);
    const uint64_t t0 = NowNs();
    Result<RunId> id = add(index);
    const uint64_t wall = NowNs() - t0;
    const uint64_t cpu = CpuNs(cpu_clock) - cpu0;
    if (tally.Op(id.status(), "AddRun")) {
      if (i >= kWarmupAdds) {
        if (2 * cpu < wall) {
          ++s->dropped_adds;
        } else {
          s->add_ns.push_back(wall);
        }
      }
      live->push_back({*id, index});
    }
    while (live->size() > window) {
      tally.Op(remove(live->front().id), "RemoveRun");
      live->pop_front();
    }
    if ((i + 1) % kDeltaEvery != 0) continue;
    SpecDelta graft;
    graft.kind = SpecDelta::Kind::kAddModule;
    graft.module = "perfbench_graft";
    graft.from = {w.source};
    graft.to = {w.sink};
    SpecDelta ungraft;
    ungraft.kind = SpecDelta::Kind::kRemoveModule;
    ungraft.module = graft.module;
    for (const SpecDelta* d : {&graft, &ungraft}) {
      const uint64_t d0 = NowNs();
      Result<uint64_t> epoch = delta(*d);
      const uint64_t d1 = NowNs();
      if (!tally.Op(epoch.status(), "ApplySpecDelta")) continue;
      if (i >= kWarmupAdds) s->delta_ns.push_back(d1 - d0);
      if (first_epoch == 0) first_epoch = *epoch - 1;
      last_epoch = *epoch;
    }
    ++pairs;
  }
  if (pairs > 0) {
    s->epoch_step = static_cast<double>(last_epoch - first_epoch) /
                    static_cast<double>(pairs);
  }
}

// ------------------------------------------------------ snapshot phase --

/// Appends the milliseconds of repeated calls of `op`: kSnapshotRepeats,
/// or more when they are quick, so small snapshots get more samples.
template <class F>
void TimeMs(std::vector<double>* ms, F&& op) {
  double total = 0;
  for (int i = 0; i < kSnapshotRepeats || (total < 25 && i < kMaxSnapshotRepeats);
       ++i) {
    const uint64_t start = NowNs();
    op();
    ms->push_back(static_cast<double>(NowNs() - start) * 1e-6);
    total += ms->back();
  }
}

/// Restores the snapshot at `path` in process — copying, or through the
/// zero-copy path — and checks the restored answers.
void TimeLoads(const std::string& path, bool mmap, const World& w,
               const std::vector<Probe>& probes, const std::vector<RunId>& ids,
               std::vector<double>* ms, Tally& tally) {
  std::optional<ProvenanceService> restored;
  TimeMs(ms, [&] {
    restored.reset();
    Result<ProvenanceService> r = ProvenanceService::LoadSnapshot(
        path, ServiceOptions(w.cfg), {.use_mmap = mmap});
    if (tally.Op(r.status(), "LoadSnapshot")) {
      restored.emplace(std::move(r).value());
    }
  });
  if (restored) {
    CheckProbes(
        probes, ids,
        [&](RunId id, VertexId v, VertexId x) {
          return restored->Reaches(id, v, x);
        },
        mmap ? "mmap-restored Reaches" : "restored Reaches", tally);
  }
}

void LocalSnapshots(const World& w, const ProvenanceService& svc,
                    const std::vector<Probe>& probes,
                    const std::vector<RunId>& ids, Samples* s, Tally& tally) {
  const std::string path = (w.args.workdir / "service.skls").string();
  TimeMs(&s->save_ms,
         [&] { tally.Op(svc.SaveSnapshot(path), "SaveSnapshot"); });
  TimeLoads(path, false, w, probes, ids, &s->load_ms, tally);
  TimeLoads(path, true, w, probes, ids, &s->mmap_ms, tally);
  std::filesystem::remove(path);
}

/// Sum of ExportRun blob bytes over live vertices.
template <class Export, class Stats>
double StoreBytesPerVertex(const std::vector<RunId>& ids, Export&& export_run,
                           Stats&& stats, Tally& tally) {
  double bytes = 0, vertices = 0;
  for (RunId id : ids) {
    Result<std::vector<uint8_t>> blob = export_run(id);
    Result<skl::RunStats> s = stats(id);
    if (!tally.Op(blob.status(), "ExportRun") ||
        !tally.Op(s.status(), "Stats")) {
      continue;
    }
    bytes += static_cast<double>(blob->size());
    vertices += s->num_vertices;
  }
  return vertices > 0 ? bytes / vertices : 0;
}

double LocalStoreBytes(const ProvenanceService& svc, Tally& tally) {
  return StoreBytesPerVertex(
      svc.ListRuns(), [&](RunId id) { return svc.ExportRun(id); },
      [&](RunId id) { return svc.Stats(id); }, tally);
}

// ------------------------------------------------------- traced layers --

/// What the layer probes run against. Reads go to `read_svc` in process and
/// to `client` over loopback; the ingest twin registers (and removes) runs
/// on `ingest_svc`.
struct LayerTargets {
  const ProvenanceService* read_svc = nullptr;
  std::vector<RunId> read_ids;
  ProvenanceClient* client = nullptr;
  std::vector<RunId> client_ids;
  ProvenanceService* ingest_svc = nullptr;
};

constexpr size_t kTwinPairs = 1024;  // pairs per read-twin operation
constexpr size_t kTwinRounds = 16;   // read-twin operations per mode
constexpr size_t kIngestTwins = 48;  // ingest-twin operations
constexpr size_t kTwinStream = 4 * kTwinRounds * kTwinPairs;

struct ReadTwin {
  double decide = 0, spec = 0, service = 0, codec = 0, round_trip = 0;
  double op = 0;       // whole operation
  double op_self = 0;  // operation time outside every layer span
};

/// One read-twin operation over `a` (in-process layers) and `b` (loopback,
/// disjoint so the result cache sees each pair once): Decide on
/// deserialized labels, the spec predicate, service Reaches, the request and
/// reply codec, and the client round trip. Returns per-pair nanoseconds.
ReadTwin ReadTwinOp(const LayerTargets& t,
                    const std::vector<skl::ProvenanceStore>& stores,
                    const std::vector<const skl::SpecLabelingScheme*>& schemes,
                    std::span<const Triple> a, std::span<const Triple> b,
                    uint64_t op_id, Tracer& tracer, Tally& tally) {
  std::vector<char> expected_a(a.size()), expected_b(b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    const auto& s = stores[b[i].run];
    expected_b[i] = skl::RunLabeling::Decide(s.label(b[i].v),
                                             s.label(b[i].w),
                                             *schemes[b[i].run]);
  }
  ReadTwin r;
  uint64_t sink = 0;
  const int op = tracer.Begin("read_op", -1, op_id);
  const uint64_t op_start = NowNs();
  r.decide = static_cast<double>(
      tracer.Timed("core.label_decide", op, op_id, [&] {
        for (size_t i = 0; i < a.size(); ++i) {
          const auto& s = stores[a[i].run];
          expected_a[i] = skl::RunLabeling::Decide(
              s.label(a[i].v), s.label(a[i].w), *schemes[a[i].run]);
        }
      }));
  r.spec = static_cast<double>(
      tracer.Timed("speclabel.reaches", op, op_id, [&] {
        for (const Triple& x : a) {
          const auto origin = stores[x.run].origin_column();
          sink += schemes[x.run]->Reaches(origin[x.v], origin[x.w]);
        }
      }));
  r.service = static_cast<double>(
      tracer.Timed("core.service_reaches", op, op_id, [&] {
        for (size_t i = 0; i < a.size(); ++i) {
          Result<bool> got =
              t.read_svc->Reaches(t.read_ids[a[i].run], a[i].v, a[i].w);
          if (tally.Op(got.status(), "service Reaches") &&
              *got != static_cast<bool>(expected_a[i])) {
            tally.Wrong("service Reaches disagrees with Decide");
          }
        }
      }));
  r.codec = static_cast<double>(
      tracer.Timed("net.codec", op, op_id, [&] {
        skl::FrameDecoder decoder;
        std::vector<uint8_t> wire;
        for (size_t i = 0; i < a.size(); ++i) {
          skl::PayloadWriter request;
          request.U64(t.read_ids[a[i].run].value());
          request.U64(a[i].v);
          request.U64(a[i].w);
          request.U64(0);  // read-LSN token
          request.U64(0);  // trace id
          skl::PayloadWriter reply;
          reply.Boolean(expected_a[i]);
          for (auto& [type, payload] :
               {std::pair{skl::MsgType::kReaches, std::move(request).Finish()},
                std::pair{skl::MsgType::kReply, std::move(reply).Finish()}}) {
            skl::Frame frame;
            frame.type = type;
            frame.request_id = i;
            frame.payload = payload;
            wire.clear();
            skl::EncodeFrame(frame, &wire);
            decoder.Feed(wire);
            auto decoded = decoder.Next();
            sink += decoded.ok() && decoded->has_value() &&
                    (*decoded)->payload.size() == payload.size();
          }
        }
      }));
  r.round_trip = static_cast<double>(
      tracer.Timed("net.client_reaches", op, op_id, [&] {
        for (size_t i = 0; i < b.size(); ++i) {
          Result<bool> got =
              t.client->Reaches(t.client_ids[b[i].run], b[i].v, b[i].w);
          if (tally.Op(got.status(), "client Reaches") &&
              *got != static_cast<bool>(expected_b[i])) {
            tally.Wrong("client Reaches disagrees with Decide");
          }
        }
      }));
  tracer.End(op);
  r.op = static_cast<double>(NowNs() - op_start);
  r.op_self = r.op - (r.decide + r.spec + r.service + r.codec + r.round_trip);
  Consume(sink);
  const double n = static_cast<double>(a.size());
  r.decide /= n;
  r.spec /= n;
  r.service /= n;
  r.codec /= n;
  r.round_trip /= static_cast<double>(b.size());
  r.op /= n;
  r.op_self /= n;
  return r;
}

struct IngestTwin {
  double construct = 0, label = 0, add_with_plan = 0, remove = 0;
  double op = 0, add_run = 0;
};

/// ConstructPlan -> FromPlan -> AddRunWithPlan -> RemoveRun, then the real
/// AddRun (+ RemoveRun) of the same run untraced. Milliseconds.
IngestTwin IngestTwinOp(ProvenanceService& svc, const Run& run, uint64_t op_id,
                        Tracer& tracer, Tally& tally) {
  IngestTwin r;
  const int op = tracer.Begin("ingest_op", -1, op_id);
  const uint64_t op_start = NowNs();
  std::optional<skl::RecoveredPlan> plan;
  r.construct = static_cast<double>(
      tracer.Timed("core.construct_plan", op, op_id, [&] {
        Result<skl::RecoveredPlan> p = skl::ConstructPlan(svc.spec(), run);
        if (tally.Op(p.status(), "ConstructPlan")) plan.emplace(std::move(*p));
      }));
  if (plan) {
    r.label = static_cast<double>(
        tracer.Timed("core.label_run", op, op_id, [&] {
          Result<skl::RunLabeling> l = skl::RunLabeling::FromPlan(
              svc.spec(), &svc.scheme(), plan->plan, plan->origin);
          tally.Op(l.status(), "FromPlan");
        }));
    std::optional<RunId> id;
    r.add_with_plan = static_cast<double>(
        tracer.Timed("core.add_run_with_plan", op, op_id, [&] {
          Result<RunId> added =
              svc.AddRunWithPlan(run, plan->plan, plan->origin);
          if (tally.Op(added.status(), "AddRunWithPlan")) id = *added;
        }));
    if (id) {
      r.remove = static_cast<double>(
          tracer.Timed("core.remove_run", op, op_id, [&] {
            tally.Op(svc.RemoveRun(*id), "RemoveRun");
          }));
    }
  }
  tracer.End(op);
  r.op = static_cast<double>(NowNs() - op_start);
  const uint64_t add_start = NowNs();
  Result<RunId> added = svc.AddRun(run);
  r.add_run = static_cast<double>(NowNs() - add_start);
  if (tally.Op(added.status(), "AddRun")) {
    tally.Op(svc.RemoveRun(*added), "RemoveRun");
  }
  for (double* ms : {&r.construct, &r.label, &r.add_with_plan, &r.remove,
                     &r.op, &r.add_run}) {
    *ms *= 1e-6;
  }
  return r;
}

template <class T, class F>
double Mean(const std::vector<T>& xs, F&& field) {
  double sum = 0;
  for (const T& x : xs) sum += field(x);
  return xs.empty() ? 0 : sum / static_cast<double>(xs.size());
}

/// The read twin, traced and untraced operations alternating on fresh pairs
/// of the workload's own traffic.
void ReadLayers(const LayerTargets& t, const std::vector<Triple>& stream,
                Tracer& tracer, Report* report, Tally& tally) {
  // Labels as the provenance database stores them: exported, deserialized.
  std::vector<skl::ProvenanceStore> stores;
  std::vector<const skl::SpecLabelingScheme*> schemes;
  for (RunId id : t.read_ids) {
    stores.push_back(Must(
        skl::ProvenanceStore::Deserialize(
            Must(t.read_svc->ExportRun(id), "export")),
        "deserialize"));
    const uint64_t epoch = Must(t.read_svc->Stats(id), "stats").epoch;
    schemes.push_back(t.read_svc->FindEpoch(epoch)->scheme.get());
  }
  const skl::ServiceStats wire_before =
      Must(t.client->GetServiceStats(), "stats");
  std::vector<ReadTwin> traced, untraced;
  Tracer off(false);
  size_t next = 0;
  auto slice = [&] {
    std::span<const Triple> s(stream.data() + next, kTwinPairs);
    next += kTwinPairs;
    return s;
  };
  for (size_t round = 0; round < kTwinRounds; ++round) {
    auto a = slice(), b = slice();
    traced.push_back(
        ReadTwinOp(t, stores, schemes, a, b, round, tracer, tally));
    auto c = slice(), d = slice();
    untraced.push_back(ReadTwinOp(t, stores, schemes, c, d, round, off, tally));
  }
  const skl::ServiceStats wire_after =
      Must(t.client->GetServiceStats(), "stats");
  const double requests =
      static_cast<double>(2 * kTwinRounds * kTwinPairs + 1);

  const double service = Mean(traced, [](auto& r) { return r.service; });
  const double codec = Mean(traced, [](auto& r) { return r.codec; });
  report->Add("core.label_decide_ns",
              Mean(traced, [](auto& r) { return r.decide; }), "ns");
  report->Add("core.service_reaches_ns", service, "ns");
  report->Add("speclabel.reaches_ns",
              Mean(traced, [](auto& r) { return r.spec; }), "ns");
  report->Add("net.codec_ns", codec, "ns");
  report->Add("net.round_trip_self_ns",
              Mean(traced, [](auto& r) { return r.round_trip; }) - service -
                  codec,
              "ns");
  report->Add("net.epoll_wakeups_per_request",
              static_cast<double>(wire_after.epoll_wakeups -
                                  wire_before.epoll_wakeups) /
                  requests,
              "count");
  report->Add("trace.read_unattributed_ns",
              Mean(traced, [](auto& r) { return r.op_self; }), "ns");
  report->Add("trace.read_overhead_ns",
              Mean(traced, [](auto& r) { return r.op; }) -
                  Mean(untraced, [](auto& r) { return r.op; }),
              "ns");
}

/// The ingest twin, traced and untraced alternately, over the AddRun pool.
void IngestLayers(const World& w, ProvenanceService& svc, Tracer& tracer,
                  Report* report, Tally& tally) {
  std::vector<IngestTwin> traced, untraced;
  Tracer off(false);
  for (size_t i = 0; i < kIngestTwins; ++i) {
    const Run& run = w.pool[i % w.pool.size()];
    traced.push_back(IngestTwinOp(svc, run, 1000 + i, tracer, tally));
    untraced.push_back(IngestTwinOp(svc, run, 1000 + i, off, tally));
  }
  const double construct = Mean(traced, [](auto& r) { return r.construct; });
  const double with_plan =
      Mean(traced, [](auto& r) { return r.add_with_plan; });
  report->Add("core.construct_plan_ms", construct, "ms");
  report->Add("core.label_run_ms",
              Mean(traced, [](auto& r) { return r.label; }), "ms");
  report->Add("core.add_run_with_plan_ms", with_plan, "ms");
  report->Add("core.remove_run_us",
              Mean(traced, [](auto& r) { return r.remove; }) * 1e3, "us");
  report->Add("trace.ingest_unattributed_ms",
              Mean(traced, [](auto& r) { return r.add_run; }) - construct -
                  with_plan,
              "ms");
  report->Add("trace.ingest_overhead_ms",
              Mean(traced, [](auto& r) { return r.op; }) -
                  Mean(untraced, [](auto& r) { return r.op; }),
              "ms");
}

/// A spec edit: the delta application, then a fresh scheme build over its
/// resulting graph (medians of 32).
void DeltaLayers(const World& w, Tracer& tracer, Report* report,
                 Tally& tally) {
  SpecDelta graft;
  graft.kind = SpecDelta::Kind::kAddModule;
  graft.module = "perfbench_twin";
  graft.from = {w.source};
  graft.to = {w.sink};
  std::vector<double> apply_ms, build_ms;
  for (uint64_t i = 0; i < 32; ++i) {
    const uint64_t op_id = 2000 + i;
    const int op = tracer.Begin("delta_op", -1, op_id);
    std::optional<skl::SpecDeltaApplication> app;
    apply_ms.push_back(
        static_cast<double>(
            tracer.Timed("workflow.apply_delta_to_spec", op, op_id, [&] {
              Result<skl::SpecDeltaApplication> r =
                  skl::ApplySpecDeltaToSpec(*w.spec, graft);
              if (tally.Op(r.status(), "ApplySpecDeltaToSpec")) {
                app.emplace(std::move(*r));
              }
            })) *
        1e-6);
    if (app) {
      build_ms.push_back(
          static_cast<double>(tracer.Timed("speclabel.build", op, op_id, [&] {
            auto scheme = skl::CreateSpecScheme(w.cfg.scheme);
            tally.Op(scheme->Build(app->spec.graph()), "scheme Build");
          })) *
          1e-6);
    }
    tracer.End(op);
  }
  report->Add("speclabel.build_ms", Median(build_ms), "ms");
  report->Add("workflow.apply_delta_to_spec_ms", Median(apply_ms), "ms");
}

/// Op-log appends of AddRun-shaped entries on a side log with the
/// workload's flush policy (fsync off).
void LogLayers(const World& w, const LayerTargets& t, Tracer& tracer,
               Report* report, Tally& tally) {
  const std::string path = (w.args.workdir / "side.oplog").string();
  std::filesystem::remove(path);
  skl::OpLog::Options options;
  options.fsync = false;
  auto log = Must(skl::OpLog::Open(path, skl::WriteSpecificationXml(*w.spec),
                                   std::string(t.read_svc->scheme().name()),
                                   options),
                  "open side op-log");
  const uintmax_t before = std::filesystem::file_size(path);
  skl::LogOp shape;
  shape.kind = skl::LogOp::Kind::kAddRun;
  shape.stats = Must(t.read_svc->Stats(t.read_ids[0]), "stats");
  shape.blob = Must(t.read_svc->ExportRun(t.read_ids[0]), "export");
  constexpr uint64_t kAppends = 256;
  std::vector<double> us;
  for (uint64_t i = 0; i < kAppends; ++i) {
    skl::LogOp op = shape;
    op.run_id = 1 + i;
    us.push_back(static_cast<double>(tracer.Timed(
                     "replication.oplog_append", -1, 3000 + i, [&] {
                       tally.Op(log->Append(std::move(op)).status(),
                                "OpLog::Append");
                     })) *
                 1e-3);
  }
  log.reset();
  report->Add("replication.oplog_append_us", Median(us), "us");
  report->Add("replication.oplog_bytes_per_run",
              static_cast<double>(std::filesystem::file_size(path) - before) /
                  kAppends,
              "B");
  std::filesystem::remove(path);
}

/// Snapshot bytes per vertex, then CRC-32 over a buffer of that size.
void SnapshotLayers(const World& w, const LayerTargets& t, Tracer& tracer,
                    Report* report, Tally& tally) {
  const std::string path = (w.args.workdir / "trace.skls").string();
  tally.Op(t.read_svc->SaveSnapshot(path), "SaveSnapshot");
  double vertices = 0;
  for (RunId id : t.read_svc->ListRuns()) {
    vertices += Must(t.read_svc->Stats(id), "stats").num_vertices;
  }
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  report->Add("io.snapshot_bytes_per_vertex", bytes / vertices, "B");
  std::vector<uint8_t> buffer(static_cast<size_t>(bytes));
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(buffer.size()));
  std::filesystem::remove(path);
  uint32_t crc = 0;
  uint64_t passes = 0;
  const uint64_t start = NowNs();
  while (NowNs() - start < 200'000'000 || passes < 4) {
    tracer.Timed("common.crc32", -1, 4000 + passes,
                 [&] { crc ^= skl::Crc32(buffer); });
    ++passes;
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  report->Add("common.crc32_mb_per_s",
              bytes * static_cast<double>(passes) / seconds / 1e6, "MB/s");
  Consume(crc);
}

/// LatencyHistogram::Record, the per-request cost of the server's metrics.
void HistogramLayer(const World& w, Tracer& tracer, Report* report) {
  skl::LatencyHistogram histogram;
  Rng rng(w.args.seed);
  std::vector<uint64_t> values(4096);
  for (uint64_t& v : values) v = rng.Next() >> (rng.Next() % 64);
  constexpr size_t kRecords = size_t{1} << 22;
  const uint64_t ns = tracer.Timed("common.histogram_record", -1, 5000, [&] {
    for (size_t i = 0; i < kRecords; ++i) histogram.Record(values[i & 4095]);
  });
  report->Add("common.histogram_record_ns",
              static_cast<double>(ns) / kRecords, "ns");
}

/// Times every layer the benchmark calls into; adds the per-layer metrics.
void LayerProbes(const World& w, const LayerTargets& t,
                 const std::vector<Triple>& stream, Tracer& tracer,
                 Report* report, Tally& tally) {
  ReadLayers(t, stream, tracer, report, tally);
  IngestLayers(w, *t.ingest_svc, tracer, report, tally);
  DeltaLayers(w, tracer, report, tally);
  LogLayers(w, t, tracer, report, tally);
  SnapshotLayers(w, t, tracer, report, tally);
  HistogramLayer(w, tracer, report);
}

/// The loopback side of the layer probes for an in-process workload: a
/// server (same settings as serve_loopback) over a copy of the service's
/// runs, imported from their exported blobs.
Served SideServer(const World& w, const ProvenanceService& svc,
                  const std::vector<RunId>& ids) {
  ProvenanceService side = Must(
      ProvenanceService::Create(*w.spec, w.cfg.scheme, ServiceOptions(w.cfg)),
      "create side service");
  std::vector<RunId> side_ids;
  for (RunId id : ids) {
    side_ids.push_back(
        Must(side.ImportRun(Must(svc.ExportRun(id), "export")), "import"));
  }
  return ServeService(std::move(side), std::move(side_ids));
}

// --------------------------------------------------------- the workloads --

struct Outcome {
  explicit Outcome(bool trace) : tracer(trace) {}
  Report report;
  Tally tally;
  Tracer tracer;
};

size_t Rounds(const World& w) { return w.args.trace ? 1 : kRounds; }

/// One round's share of a phase that takes `fraction` of --seconds.
double PhaseSeconds(const World& w, double fraction) {
  return w.args.seconds * fraction / static_cast<double>(Rounds(w));
}

void ReportValidity(const Samples& s, Report* r) {
  r->Add("core.cache_hit_ratio", s.cache_hit_ratio, "ratio");
  r->Add("core.epoch_step_per_delta_pair", s.epoch_step, "count");
}

double SecondsSince(uint64_t start) {
  return static_cast<double>(NowNs() - start) * 1e-9;
}

/// cold_read and hot_read. Each round: set-up, the in-process point
/// readers, batches, the snapshot round trip, and last a small write probe
/// (its spec deltas lengthen the epoch chain a snapshot carries).
void InProcessRead(World& w, Outcome* out) {
  Tally& tally = out->tally;
  Rng rng(w.args.seed ^ 0xC01D);
  const std::vector<std::vector<Triple>> streams = ReaderStreams(w, rng);
  const std::vector<Batch> batches = MakeBatches(w, rng);
  const std::vector<Probe> probes = MakeProbes(Pointers(w.preload), rng);
  std::vector<SampleBuffer> buffers(w.cfg.readers,
                                    SampleBuffer(kRoundSamples));
  PinThread(w.main_cpu);
  Samples s;
  s.point_ns.resize(w.cfg.readers);
  for (size_t round = 0; round < Rounds(w); ++round) {
    // RSS is taken in the first round only: later rounds reuse memory the
    // allocator kept from earlier ones, by an amount that varies between runs.
    const double rss_before = round == 0 ? RssMb() : 0;
    const uint64_t setup_start = NowNs();
    Local st = SetUpLocal(w);
    s.setup_s.push_back(SecondsSince(setup_start));
    ProvenanceService& svc = *st.svc;

    const skl::ServiceStats before = svc.service_stats();
    {
      Readers readers(svc, st.ids, streams, w.reader_cpus, &buffers);
      SleepSeconds(PhaseSeconds(w, w.args.trace ? 0.2 : 0.6));
      s.point_rate.push_back(readers.Finish(&tally));
    }
    s.cache_hit_ratio = CacheHitRatio(before, svc.service_stats());
    if (round == 0) s.rss_growth_mb = RssMb() - rss_before;
    for (size_t i = 0; i < buffers.size(); ++i) {
      buffers[i].DrainTo(&s.point_ns[i]);
    }

    CheckProbes(
        probes, st.ids,
        [&](RunId id, VertexId v, VertexId x) { return svc.Reaches(id, v, x); },
        "Reaches", tally);
    CheckBatchProbes(
        probes, st.ids,
        [&](RunId id, std::span<const VertexPair> p) {
          return svc.ReachesBatch(id, p);
        },
        "ReachesBatch", tally);
    s.batch_rate.push_back(BatchRate(
        batches,
        [&](const Batch& b) { return svc.ReachesBatch(st.ids[b.run], b.pairs); },
        PhaseSeconds(w, 0.15), tally));
    LocalSnapshots(w, svc, probes, st.ids, &s, tally);
    s.store_bytes_per_vertex = LocalStoreBytes(svc, tally);

    std::deque<LiveRun> live;
    RunIngest(
        w, round * (kWarmupAdds + kProbeAdds / kRounds), kProbeAdds / kRounds,
        0, CLOCK_THREAD_CPUTIME_ID,
        [&](size_t i) { return svc.AddRun(w.pool[i]); },
        [&](RunId id) { return svc.RemoveRun(id); },
        [&](const SpecDelta& d) { return svc.ApplySpecDelta(d); }, &live, &s,
        tally);

    if (w.args.trace) {
      ReportValidity(s, &out->report);
      Served side = SideServer(w, svc, st.ids);
      LayerProbes(w, {&svc, st.ids, &*side.client, side.ids, &svc},
                  TrafficStream(w, kTwinStream, rng), out->tracer,
                  &out->report, tally);
      return;
    }
  }
  ReportSamples(s, &out->report);
}

/// serve_loopback. Each round: set-up (service, server, connection), round
/// trips, 64-deep pipelining, batches, the snapshot round trip through the
/// server, and last the write probe over the wire.
void ServeLoopback(World& w, Outcome* out) {
  Tally& tally = out->tally;
  Rng rng(w.args.seed ^ 0x5E7E);
  const std::vector<Triple> stream = TrafficStream(w, kStreamLength, rng);
  const std::vector<Batch> batches = MakeBatches(w, rng);
  const std::vector<Probe> probes = MakeProbes(Pointers(w.preload), rng);
  // Pinned before any thread starts, so the client, the reactor thread and
  // the worker all share this one CPU.
  SampleBuffer round_trips(kRoundSamples);
  PinThread(w.main_cpu);
  Samples s;
  s.point_ns.resize(1);
  for (size_t round = 0; round < Rounds(w); ++round) {
    // RSS is taken in the first round only: later rounds reuse memory the
    // allocator kept from earlier ones, by an amount that varies between runs.
    const double rss_before = round == 0 ? RssMb() : 0;
    const uint64_t setup_start = NowNs();
    Served st = SetUpServed(w);
    s.setup_s.push_back(SecondsSince(setup_start));
    ProvenanceClient& client = *st.client;

    const skl::ServiceStats before = Must(client.GetServiceStats(), "stats");
    uint64_t deadline = NowNs() + static_cast<uint64_t>(
                                      PhaseSeconds(w, 0.3) * 1e9);
    for (size_t j = 0; NowNs() < deadline; ++j) {
      const Triple& t = stream[j % stream.size()];
      const uint64_t t0 = NowNs();
      Result<bool> r = client.Reaches(st.ids[t.run], t.v, t.w);
      const uint64_t t1 = NowNs();
      if (tally.Op(r.status(), "client Reaches")) round_trips.Add(t1 - t0);
    }
    const uint64_t pipe_start = NowNs();
    deadline = pipe_start + static_cast<uint64_t>(PhaseSeconds(w, 0.3) * 1e9);
    uint64_t piped = 0;
    // Each 64-deep window is a slice of one batch, so it names one run.
    constexpr size_t kWindowsPerBatch = kBatchPairs / kPipelineDepth;
    for (size_t k = 0; NowNs() < deadline; ++k) {
      const Batch& b = batches[(k / kWindowsPerBatch) % batches.size()];
      std::span<const VertexPair> window(
          b.pairs.data() + (k % kWindowsPerBatch) * kPipelineDepth,
          kPipelineDepth);
      Result<std::vector<bool>> r =
          client.ReachesPipelined(st.ids[b.run], window);
      if (tally.Op(r.status(), "client ReachesPipelined")) piped += r->size();
    }
    s.point_rate.push_back(static_cast<double>(piped) /
                           SecondsSince(pipe_start));
    s.cache_hit_ratio =
        CacheHitRatio(before, Must(client.GetServiceStats(), "stats"));
    if (round == 0) s.rss_growth_mb = RssMb() - rss_before;
    round_trips.DrainTo(&s.point_ns[0]);

    auto remote = [&](RunId id, VertexId v, VertexId x) {
      return client.Reaches(id, v, x);
    };
    CheckProbes(probes, st.ids, remote, "client Reaches", tally);
    CheckBatchProbes(
        probes, st.ids,
        [&](RunId id, std::span<const VertexPair> p) {
          return client.ReachesBatch(id, p);
        },
        "client ReachesBatch", tally);
    CheckBatchProbes(
        probes, st.ids,
        [&](RunId id, std::span<const VertexPair> p) {
          return client.ReachesPipelined(id, p);
        },
        "client ReachesPipelined", tally);
    s.batch_rate.push_back(BatchRate(
        batches,
        [&](const Batch& b) {
          return client.ReachesBatch(st.ids[b.run], b.pairs);
        },
        PhaseSeconds(w, 0.15), tally));

    // Save and load are server-side RPCs (the load swaps the served
    // service); the zero-copy load is timed in process on the same file.
    const std::string path = (w.args.workdir / "service.skls").string();
    TimeMs(&s.save_ms, [&] {
      tally.Op(client.SaveSnapshot(path), "client SaveSnapshot");
    });
    TimeMs(&s.load_ms, [&] {
      tally.Op(client.LoadSnapshot(path), "client LoadSnapshot");
    });
    CheckProbes(probes, st.ids, remote, "client Reaches after LoadSnapshot",
                tally);
    TimeLoads(path, true, w, probes, st.ids, &s.mmap_ms, tally);
    std::filesystem::remove(path);
    s.store_bytes_per_vertex = StoreBytesPerVertex(
        Must(client.ListRuns(), "list runs"),
        [&](RunId id) { return client.ExportRun(id); },
        [&](RunId id) { return client.Stats(id); }, tally);

    std::deque<LiveRun> live;
    RunIngest(
        w, round * (kWarmupAdds + kWireProbeAdds / kRounds),
        kWireProbeAdds / kRounds, 0, CLOCK_PROCESS_CPUTIME_ID,
        [&](size_t i) { return client.AddRunXml(w.pool_xml[i]); },
        [&](RunId id) { return client.RemoveRun(id); },
        [&](const SpecDelta& d) { return client.ApplySpecDelta(d); }, &live,
        &s, tally);

    if (w.args.trace) {
      ReportValidity(s, &out->report);
      // The ingest twin needs a mutable service; the served one is only
      // reachable through the wire, so a service of the same spec runs it.
      ProvenanceService twin = Must(
          ProvenanceService::Create(*w.spec, w.cfg.scheme,
                                    ServiceOptions(w.cfg)),
          "create twin service");
      LayerProbes(w, {&st.server->service(), st.ids, &client, st.ids, &twin},
                  TrafficStream(w, kTwinStream, rng), out->tracer,
                  &out->report, tally);
      return;
    }
  }
  ReportSamples(s, &out->report);
}

/// ingest_durable. Each round: set-up (service, op-log, 16 never-removed
/// runs, a full window), the writer against the point reader, batches on
/// the 16 runs, then the snapshot round trip of the resulting service.
void IngestDurable(World& w, Outcome* out) {
  Tally& tally = out->tally;
  Rng rng(w.args.seed ^ 0x1D6E);
  const std::vector<std::vector<Triple>> streams = ReaderStreams(w, rng);
  const std::vector<Batch> batches = MakeBatches(w, rng);
  const std::vector<Probe> probes = MakeProbes(Pointers(w.preload), rng);
  const size_t adds =
      w.args.trace ? 400
                   : std::max<size_t>(
                         2000, static_cast<size_t>(800 * w.args.seconds)) /
                         kRounds;
  std::vector<SampleBuffer> buffers(w.cfg.readers,
                                    SampleBuffer(kRoundSamples));
  PinThread(w.main_cpu);
  Samples s;
  s.point_ns.resize(w.cfg.readers);
  s.add_ns.reserve(Rounds(w) * adds);
  for (size_t round = 0; round < Rounds(w); ++round) {
    // RSS is taken in the first round only: later rounds reuse memory the
    // allocator kept from earlier ones, by an amount that varies between runs.
    const double rss_before = round == 0 ? RssMb() : 0;
    const uint64_t setup_start = NowNs();
    Local st = SetUpLocal(w);
    s.setup_s.push_back(SecondsSince(setup_start));
    ProvenanceService& svc = *st.svc;

    const skl::ServiceStats before = svc.service_stats();
    {
      Readers readers(svc, st.ids, streams, w.reader_cpus, &buffers);
      RunIngest(
          w, round * (kWarmupAdds + adds), adds, kIngestWindow,
          CLOCK_THREAD_CPUTIME_ID,
          [&](size_t i) { return svc.AddRun(w.pool[i]); },
          [&](RunId id) { return svc.RemoveRun(id); },
          [&](const SpecDelta& d) { return svc.ApplySpecDelta(d); },
          &st.window, &s, tally);
      s.point_rate.push_back(readers.Finish(&tally));
    }
    s.cache_hit_ratio = CacheHitRatio(before, svc.service_stats());
    if (round == 0) s.rss_growth_mb = RssMb() - rss_before;
    for (size_t i = 0; i < buffers.size(); ++i) {
      buffers[i].DrainTo(&s.point_ns[i]);
    }

    auto local = [&](RunId id, VertexId v, VertexId x) {
      return svc.Reaches(id, v, x);
    };
    CheckProbes(probes, st.ids, local, "Reaches", tally);
    CheckBatchProbes(
        probes, st.ids,
        [&](RunId id, std::span<const VertexPair> p) {
          return svc.ReachesBatch(id, p);
        },
        "ReachesBatch", tally);
    std::vector<RunId> live_ids;
    std::vector<const Run*> live_runs;
    for (const LiveRun& r : st.window) {
      live_ids.push_back(r.id);
      live_runs.push_back(&w.pool[r.pool_index]);
    }
    CheckProbes(MakeProbes(live_runs, rng), live_ids, local,
                "Reaches on ingested runs", tally);
    s.batch_rate.push_back(BatchRate(
        batches,
        [&](const Batch& b) { return svc.ReachesBatch(st.ids[b.run], b.pairs); },
        PhaseSeconds(w, 0.15), tally));
    LocalSnapshots(w, svc, probes, st.ids, &s, tally);
    s.store_bytes_per_vertex = LocalStoreBytes(svc, tally);

    if (w.args.trace) {
      ReportValidity(s, &out->report);
      Served side = SideServer(w, svc, st.ids);
      LayerProbes(w, {&svc, st.ids, &*side.client, side.ids, &svc},
                  TrafficStream(w, kTwinStream, rng), out->tracer,
                  &out->report, tally);
      return;
    }
  }
  ReportSamples(s, &out->report);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out = "[";
  for (size_t i = 0; i < cpus.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(cpus[i]);
  }
  return out + "]";
}

/// The machine record every run carries: enough to refuse comparing runs
/// from different hardware or builds.
std::string MachineJson(const World& w) {
  std::string model = CpuModel();
  std::replace(model.begin(), model.end(), '"', '\'');
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu_model\": \"" + model + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"allowed_cpus\": " +
         CpuList(w.args.cpus) + ", \"main_cpu\": " +
         std::to_string(w.main_cpu) +
         ", \"reader_cpus\": " + CpuList(w.reader_cpus) +
         ", \"oplog_flush\": \"" +
         (w.cfg.kind == Kind::kIngestDurable ? "fsync off" : "no op-log") +
         "\", \"preload_pool_workers\": 1}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.workdir);
  std::unique_ptr<World> world = MakeWorld(args);
  Outcome out(args.trace);
  switch (world->cfg.kind) {
    case Kind::kColdRead:
    case Kind::kHotRead:
      InProcessRead(*world, &out);
      break;
    case Kind::kServeLoopback:
      ServeLoopback(*world, &out);
      break;
    case Kind::kIngestDurable:
      IngestDurable(*world, &out);
      break;
  }
  const std::string machine = MachineJson(*world);
  if (args.trace && !args.trace_out.empty()) {
    std::string layers = "{";
    for (const auto& [name, times] : out.tracer.SelfTimes()) {
      char entry[160];
      std::snprintf(entry, sizeof(entry),
                    "%s\"%s\": {\"total_ns\": %.0f, \"self_ns\": %.0f}",
                    layers.size() > 1 ? ", " : "", name.c_str(), times.first,
                    times.second);
      layers += entry;
    }
    layers += "}";
    const std::string header =
        "\"workload\": \"" + args.workload +
        "\", \"seed\": " + std::to_string(args.seed) +
        ", \"machine\": " + machine + ", \"per_layer\": " +
        out.report.Json() + ", \"span_totals\": " + layers;
    if (!out.tracer.WriteJson(args.trace_out, header)) {
      Die("cannot write " + args.trace_out);
    }
  }
  std::printf("%s seed %llu (%s)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  out.report.Print();
  if (!out.tally.first_problem.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", out.tally.first_problem.c_str());
  }
  std::printf("machine %s\n", machine.c_str());
  const bool correct = out.tally.wrong == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.tally.attempted),
      static_cast<unsigned long long>(out.tally.failed),
      out.report.Json().c_str());
  return correct ? 0 : 1;
}
