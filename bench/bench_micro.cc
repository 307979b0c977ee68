// Micro-benchmarks (google-benchmark): predicate evaluation, plan recovery
// throughput and order generation.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/orders.h"
#include "src/core/plan_builder.h"

namespace {

using namespace skl;
using namespace skl::bench;

struct Fixture {
  Fixture() : spec(QblastSpec()), labeler(&spec, SpecSchemeKind::kTcm) {
    SKL_CHECK(labeler.Init().ok());
    gen = MakeRun(spec, 10000, 77);
    auto l = labeler.LabelRun(gen.run);
    SKL_CHECK(l.ok());
    labeling = std::make_unique<RunLabeling>(std::move(l).value());
    queries = GenerateQueries(gen.run.num_vertices(), 1 << 16, 9);
  }
  Specification spec;
  SkeletonLabeler labeler;
  GeneratedRun gen;
  std::unique_ptr<RunLabeling> labeling;
  std::vector<std::pair<VertexId, VertexId>> queries;
};

Fixture& GetFixture() {
  static Fixture fixture;
  return fixture;
}

void BM_PredicateTcmSkl(benchmark::State& state) {
  Fixture& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = f.queries[i++ & (f.queries.size() - 1)];
    benchmark::DoNotOptimize(f.labeling->Reaches(u, v));
  }
}
BENCHMARK(BM_PredicateTcmSkl);

void BM_ConstructPlan(benchmark::State& state) {
  Specification spec = QblastSpec();
  GeneratedRun gen =
      MakeRun(spec, static_cast<uint32_t>(state.range(0)), 13);
  for (auto _ : state) {
    auto rec = ConstructPlan(spec, gen.run);
    SKL_CHECK(rec.ok());
    benchmark::DoNotOptimize(rec->plan.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * gen.run.num_edges());
}
BENCHMARK(BM_ConstructPlan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GenerateThreeOrders(benchmark::State& state) {
  Fixture& f = GetFixture();
  auto rec = ConstructPlan(f.spec, f.gen.run);
  SKL_CHECK(rec.ok());
  for (auto _ : state) {
    ContextEncoding enc = GenerateThreeOrders(rec->plan);
    benchmark::DoNotOptimize(enc.num_nonempty_plus);
  }
}
BENCHMARK(BM_GenerateThreeOrders);

}  // namespace

BENCHMARK_MAIN();
