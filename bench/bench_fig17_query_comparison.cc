// Figure 17: query time for TCM+SKL, BFS+SKL, TCM-on-run and BFS-on-run.
// TCM+SKL goes through ProvenanceService (batch queries under a single
// reader lock). BFS+SKL queries the raw RunLabeling of a BFS
// SkeletonLabeler: the service would serve BFS through its spec-pair memo,
// which times table lookups, while the paper's column is the unmemoized
// search. The on-run baselines label the run graph directly. Expected
// shape: TCM+SKL and TCM-on-run flat
// (TCM+SKL slightly slower: extra decode step); BFS+SKL starts slower and
// *decreases* with run size (more queries are settled by the extended
// labels alone as fork/loop copies multiply — the paper's counter-intuitive
// observation); BFS-on-run is linear in run size, orders of magnitude
// slower.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/baseline/direct.h"
#include "src/core/provenance_service.h"

int main() {
  using namespace skl;
  using namespace skl::bench;
  Specification spec = SyntheticSpec();

  auto tcm_service = ProvenanceService::Create(spec, SpecSchemeKind::kTcm);
  SKL_CHECK(tcm_service.ok());
  // BFS+SKL and the decision-mix stat (skeleton consulted vs extended
  // labels alone, ReachesWithStats) use the low-level RunLabeling.
  SkeletonLabeler bfs_labeler(&spec, SpecSchemeKind::kBfs);
  SKL_CHECK(bfs_labeler.Init().ok());

  PrintHeader("Figure 17: Query Time Comparison (ns per query)");
  std::printf("%10s %12s %12s %14s %12s %16s\n", "run size", "TCM+SKL",
              "BFS+SKL", "TCM-on-run", "BFS-on-run", "skeleton-used %");
  const uint32_t tcm_run_cap = 25600;
  for (uint32_t target : SizeSweep()) {
    GeneratedRun gen = MakeRun(spec, target, target * 29 + 2);
    const VertexId n = gen.run.num_vertices();

    auto tcm_id = tcm_service->AddRun(gen.run);
    SKL_CHECK(tcm_id.ok());

    auto queries = GenerateQueries(n, 200000, target + 77);
    size_t sink = 0;
    Stopwatch sw;
    auto tcm_answers = tcm_service->ReachesBatch(*tcm_id, queries);
    double tcm_skl_ns = sw.ElapsedSeconds() * 1e9 / queries.size();
    SKL_CHECK(tcm_answers.ok());
    for (bool a : *tcm_answers) sink += a;

    auto bfs_labeling = bfs_labeler.LabelRun(gen.run);
    SKL_CHECK(bfs_labeling.ok());
    sw.Restart();
    for (const auto& [u, v] : queries) sink += bfs_labeling->Reaches(u, v);
    double bfs_skl_ns = sw.ElapsedSeconds() * 1e9 / queries.size();
    size_t skeleton_used = 0;
    const size_t mix_sample = 50000;
    for (size_t i = 0; i < mix_sample; ++i) {
      bool used;
      bfs_labeling->ReachesWithStats(queries[i].first, queries[i].second,
                                     &used);
      skeleton_used += used;
    }

    double tcm_run_ns = -1;
    if (n <= tcm_run_cap) {
      DirectRunLabeling tcm_direct(SpecSchemeKind::kTcm);
      SKL_CHECK(tcm_direct.Build(gen.run).ok());
      sw.Restart();
      for (const auto& [u, v] : queries) {
        sink += tcm_direct.Reaches(u, v);
      }
      tcm_run_ns = sw.ElapsedSeconds() * 1e9 / queries.size();
    }

    DirectRunLabeling bfs_direct(SpecSchemeKind::kBfs);
    SKL_CHECK(bfs_direct.Build(gen.run).ok());
    const size_t bfs_queries = 2000;  // BFS per query is O(m_R): sample less
    sw.Restart();
    for (size_t i = 0; i < bfs_queries; ++i) {
      sink += bfs_direct.Reaches(queries[i].first, queries[i].second);
    }
    double bfs_run_ns = sw.ElapsedSeconds() * 1e9 / bfs_queries;

    // Keep one run in the service per size point: drop the registered run
    // so memory stays flat across the sweep.
    SKL_CHECK(tcm_service->RemoveRun(*tcm_id).ok());

    char tcm_buf[32];
    if (tcm_run_ns < 0) {
      std::snprintf(tcm_buf, sizeof(tcm_buf), "%14s", "(skipped)");
    } else {
      std::snprintf(tcm_buf, sizeof(tcm_buf), "%14.1f", tcm_run_ns);
    }
    std::printf("%10u %12.1f %12.1f %s %12.0f %16.1f\n", n, tcm_skl_ns,
                bfs_skl_ns, tcm_buf, bfs_run_ns,
                100.0 * skeleton_used / mix_sample);
    if (sink == 0xdeadbeef) std::printf("impossible\n");  // keep sink live
  }
  std::printf("\nexpected: TCM+SKL and TCM-on-run flat; BFS+SKL decreasing "
              "as the skeleton-used%% drops;\n"
              "          BFS-on-run linear in run size, orders of "
              "magnitude slower (log axes in the paper).\n");
  return 0;
}
