// Figure 14: SKL query time versus run size for QBLAST with a TCM skeleton,
// measured through the service API. Expected shape: flat (constant time),
// independent of run size. The batch column answers a span of pairs under
// one shard read pin; the single column pays the per-call service overhead
// (pin, run lookup, epoch check, tally, Result) — the gap is what batching
// amortizes away.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/provenance_service.h"

int main() {
  using namespace skl;
  using namespace skl::bench;
  Specification spec = QblastSpec();
  auto service = ProvenanceService::Create(std::move(spec),
                                           SpecSchemeKind::kTcm);
  SKL_CHECK(service.ok());

  PrintHeader("Figure 14: Query Time for QBLAST (TCM skeleton, service API)");
  std::printf("%10s %14s %15s %14s\n", "run size", "batch ns",
              "single-call ns", "reachable %");
  const size_t kQueries = 1000000;
  for (uint32_t target : SizeSweep()) {
    GeneratedRun gen = MakeRun(service->spec(), target, target * 13 + 1);
    auto id = service->AddRun(gen.run);
    SKL_CHECK(id.ok());
    // GenerateQueries already returns std::vector<VertexPair>.
    auto pairs =
        GenerateQueries(gen.run.num_vertices(), kQueries, target + 5);

    Stopwatch sw;
    auto answers = service->ReachesBatch(*id, pairs);
    SKL_CHECK(answers.ok());
    double batch_ns = sw.ElapsedSeconds() * 1e9 / pairs.size();
    size_t positive = 0;
    for (bool a : *answers) positive += a ? 1 : 0;

    const size_t single_sample = 100000;
    sw.Restart();
    size_t sink = 0;
    for (size_t i = 0; i < single_sample; ++i) {
      auto r = service->Reaches(*id, pairs[i].first, pairs[i].second);
      sink += r.ok() && *r ? 1 : 0;
    }
    double single_ns = sw.ElapsedSeconds() * 1e9 / single_sample;
    if (sink == 0xdeadbeef) std::printf("impossible\n");  // keep sink live

    std::printf("%10u %14.1f %15.1f %14.1f\n", gen.run.num_vertices(),
                batch_ns, single_ns, 100.0 * positive / pairs.size());
  }
  std::printf("\nexpected: flat query latency across three decades of run "
              "size (the paper reports\n"
              "          ~0.004 ms on 2005 Java; native code is "
              "correspondingly faster).\n");
  return 0;
}
