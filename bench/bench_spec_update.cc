// The dynamic-update headline number (docs/UPDATES.md): how much cheaper
// an incremental relabel of the delta's dirty region is than rebuilding
// the skeleton scheme from scratch. The same delta sequence — parallel
// source->x->sink module grafts alternated with their removals, whose
// dirty region stays a handful of vertices regardless of spec size — runs
// against an incrementally-relabeling service and a twin pinned to
// Options::full_rebuild_on_delta, and the per-delta averages land in the
// gated JSON keys spec_delta_relabel_ms / spec_delta_full_rebuild_ms
// (tools/bench_compare.py fails CI when the relabel path regresses).
// spec_delta_apply_us is the spec rebuild alone: the median time of one
// ApplySpecDeltaToSpec call over the same sequence, with no service or
// scheme, which spec_delta_relabel_ms includes.
//
// Workload knobs: SKL_BENCH_DELTA_NG (spec vertices, default 800) and
// SKL_BENCH_DELTA_OPS (applied deltas per side, default 40; rounded up to
// even so every graft is ungrafted and the spec ends at its base size).
// SKL_BENCH_JSON=<path> writes the metrics machine-readably.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/provenance_service.h"
#include "src/workflow/spec_delta.h"

int main() {
  using namespace skl;
  using namespace skl::bench;

  uint32_t n_g = 800;
  if (const char* env = std::getenv("SKL_BENCH_DELTA_NG")) {
    n_g = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }
  size_t num_ops = 40;
  if (const char* env = std::getenv("SKL_BENCH_DELTA_OPS")) {
    num_ops = std::strtoul(env, nullptr, 10);
  }
  num_ops += num_ops % 2;  // add/remove pairs

  JsonReporter json("bench_spec_update");
  json.Add("spec_vertices", n_g, "vertices");
  json.Add("num_deltas", static_cast<double>(num_ops), "deltas");

  PrintHeader("Spec-Delta Relabel vs Full Rebuild (synthetic n_G=" +
              std::to_string(n_g) + ", " + std::to_string(num_ops) +
              " deltas)");

  const Specification spec = SyntheticSpec(n_g);
  const Digraph& g = spec.graph();
  std::string source, sink;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InNeighbors(v).empty()) source = spec.ModuleName(v);
    if (g.OutNeighbors(v).empty()) sink = spec.ModuleName(v);
  }
  SKL_CHECK_MSG(!source.empty() && !sink.empty(), "spec has no source/sink");

  // The measured op sequence: graft par<i>, ungraft par<i>, repeat. The
  // graft's dirty region is {source, par<i>} — constant-size — so the
  // incremental path's advantage grows linearly with n_G.
  auto op = [&](size_t i) {
    SpecDelta delta;
    delta.module = "par" + std::to_string(i - i % 2);
    if (i % 2 == 0) {
      delta.kind = SpecDelta::Kind::kAddModule;
      delta.from = {source};
      delta.to = {sink};
    } else {
      delta.kind = SpecDelta::Kind::kRemoveModule;
    }
    return delta;
  };
  auto run_side = [&](bool full_rebuild) -> double {
    ProvenanceService::Options options;
    options.full_rebuild_on_delta = full_rebuild;
    auto service =
        ProvenanceService::Create(spec, SpecSchemeKind::kTcm, options);
    SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
    Stopwatch sw;
    for (size_t i = 0; i < num_ops; ++i) {
      auto applied = service->ApplySpecDelta(op(i));
      SKL_CHECK_MSG(applied.ok(), applied.status().ToString().c_str());
    }
    SKL_CHECK_MSG(service->spec_epoch() == 1 + num_ops, "epoch mismatch");
    return sw.ElapsedMillis() / static_cast<double>(num_ops);
  };

  const double full_ms = run_side(/*full_rebuild=*/true);
  const double relabel_ms = run_side(/*full_rebuild=*/false);

  std::vector<double> apply_us;
  Specification current = spec;
  for (size_t i = 0; i < num_ops; ++i) {
    const SpecDelta delta = op(i);
    Stopwatch sw;
    auto applied = ApplySpecDeltaToSpec(current, delta);
    apply_us.push_back(sw.ElapsedMicros());
    SKL_CHECK_MSG(applied.ok(), applied.status().ToString().c_str());
    current = std::move(applied->spec);
  }
  std::sort(apply_us.begin(), apply_us.end());
  const double median_apply_us = apply_us[apply_us.size() / 2];

  std::printf("%-28s %12.4f ms/delta\n", "incremental relabel", relabel_ms);
  std::printf("%-28s %12.4f ms/delta\n", "full scheme rebuild", full_ms);
  std::printf("%-28s %12.2fx\n", "speedup",
              relabel_ms > 0 ? full_ms / relabel_ms : 0.0);
  std::printf("%-28s %12.2f us/delta (median)\n", "spec rebuild alone",
              median_apply_us);

  json.Add("spec_delta_relabel_ms", relabel_ms, "ms");
  json.Add("spec_delta_full_rebuild_ms", full_ms, "ms");
  json.Add("spec_delta_apply_us", median_apply_us, "us");
  return 0;
}
