// ReachesBatch's branch-free kernel (src/core/provenance_service.cc) and the
// ReachesMany hook it calls (src/speclabel/scheme.h), against independent
// references:
//
//   - on generated runs of two specs (the running example and QBLAST), under
//     every bundled scheme that builds on the spec, each ReachesBatch answer
//     must equal the point Reaches answer and a depth-first search over the
//     run graph. The batch sizes straddle the kernel's 64-answer words and
//     256-pair chunks;
//   - every ordered pair of the running example's Figure 3 run, as one
//     batch;
//   - ReachesMany against per-pair Reaches for every scheme and for the
//     spec-pair memo that wraps the search schemes.
//
// The base seed is printed up front and in every failure message;
// SKL_TEST_SEED replays it and SKL_TEST_ITER_SCALE multiplies the rounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/provenance_service.h"
#include "src/speclabel/memo.h"
#include "src/workload/real_workflows.h"
#include "tests/test_util.h"

namespace skl {
namespace {

constexpr SpecSchemeKind kKinds[] = {
    SpecSchemeKind::kTcm,      SpecSchemeKind::kBfs,
    SpecSchemeKind::kDfs,      SpecSchemeKind::kInterval,
    SpecSchemeKind::kTreeCover, SpecSchemeKind::kChain,
    SpecSchemeKind::kTwoHop};

constexpr size_t kBatchSizes[] = {0, 1, 63, 64, 65, 255, 256, 257, 1024, 1025};

/// reach[u][v] == 1 iff the run graph has a path u ~> v (reflexive), found
/// by an explicit-stack depth-first search from every vertex.
std::vector<std::vector<uint8_t>> DfsClosure(const Digraph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::vector<uint8_t>> reach(n, std::vector<uint8_t>(n, 0));
  std::vector<VertexId> stack;
  for (VertexId u = 0; u < n; ++u) {
    reach[u][u] = 1;
    stack.assign(1, u);
    while (!stack.empty()) {
      const VertexId x = stack.back();
      stack.pop_back();
      for (VertexId y : g.OutNeighbors(x)) {
        if (reach[u][y] == 0) {
          reach[u][y] = 1;
          stack.push_back(y);
        }
      }
    }
  }
  return reach;
}

std::vector<std::pair<std::string, Specification>> TestSpecs() {
  std::vector<std::pair<std::string, Specification>> specs;
  specs.emplace_back("running example",
                     testing_util::MakeRunningExample().spec);
  auto qblast = BuildRealWorkflow("QBLAST");
  SKL_CHECK_MSG(qblast.ok(), qblast.status().ToString().c_str());
  specs.emplace_back("QBLAST", std::move(qblast).value());
  return specs;
}

/// A service under `kind`, or nullopt when the scheme does not build on
/// the spec (intervals need a tree-shaped spec graph).
std::optional<ProvenanceService> MaybeService(const Specification& spec,
                                              SpecSchemeKind kind) {
  auto service = ProvenanceService::Create(Specification(spec), kind);
  if (!service.ok()) {
    SKL_CHECK_MSG(kind == SpecSchemeKind::kInterval,
                  service.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(service).value();
}

/// Asserts every answer of one ReachesBatch call against point Reaches and
/// the DFS closure. Returns the number of disagreeing pairs.
size_t CheckBatch(const ProvenanceService& service, RunId id,
                  const std::vector<VertexPair>& pairs,
                  const std::vector<std::vector<uint8_t>>& reach) {
  auto batch = service.ReachesBatch(id, pairs);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (!batch.ok()) return pairs.size();
  EXPECT_EQ(batch->size(), pairs.size());
  if (batch->size() != pairs.size()) return pairs.size();
  size_t wrong = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [v, w] = pairs[i];
    auto point = service.Reaches(id, v, w);
    EXPECT_TRUE(point.ok()) << point.status().ToString();
    const bool truth = reach[v][w] != 0;
    if ((*batch)[i] != truth || !point.ok() || *point != truth) {
      if (++wrong <= 5) {
        ADD_FAILURE() << "pair " << i << " (" << v << ", " << w
                      << "): batch " << (*batch)[i] << ", point "
                      << (point.ok() ? (*point ? "1" : "0") : "error")
                      << ", dfs " << truth;
      }
    }
  }
  return wrong;
}

TEST(BatchKernelTest, BatchMatchesPointReachesAndDfsOnGeneratedRuns) {
  const uint64_t seed = testing_util::TestSeed("BatchKernelTest", 25);
  const uint64_t rounds = 2 * testing_util::TestIterScale();
  for (const auto& [spec_name, spec] : TestSpecs()) {
    for (SpecSchemeKind kind : kKinds) {
      std::optional<ProvenanceService> service = MaybeService(spec, kind);
      if (!service) continue;
      for (uint64_t round = 0; round < rounds; ++round) {
        const uint64_t run_seed = seed + round;
        SCOPED_TRACE(spec_name + " " + SpecSchemeKindName(kind) +
                     " seed=" + std::to_string(run_seed) +
                     " (replay with SKL_TEST_SEED=" + std::to_string(seed) +
                     ")");
        const ::skl::Run run =
            testing_util::GenerateRun(spec, 300, run_seed);
        const auto reach = DfsClosure(run.graph());
        auto id = service->AddRun(run);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        const VertexId n = run.num_vertices();
        Rng rng(run_seed);
        for (size_t size : kBatchSizes) {
          SCOPED_TRACE("batch of " + std::to_string(size));
          std::vector<VertexPair> pairs(size);
          for (auto& [v, w] : pairs) {
            v = static_cast<VertexId>(rng.NextBelow(n));
            // One pair in eight is reflexive.
            w = rng.NextBelow(8) == 0
                    ? v
                    : static_cast<VertexId>(rng.NextBelow(n));
          }
          ASSERT_EQ(CheckBatch(*service, *id, pairs, reach), 0u);
        }
      }
    }
  }
}

TEST(BatchKernelTest, EveryPairOfTheRunningExampleInOneBatch) {
  const testing_util::RunningExample ex = testing_util::MakeRunningExample();
  const auto reach = DfsClosure(ex.run.graph());
  const VertexId n = ex.run.num_vertices();
  std::vector<VertexPair> pairs;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w = 0; w < n; ++w) pairs.emplace_back(v, w);
  }
  for (SpecSchemeKind kind : kKinds) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    std::optional<ProvenanceService> service = MaybeService(ex.spec, kind);
    if (!service) continue;
    auto id = service->AddRun(ex.run);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(CheckBatch(*service, *id, pairs, reach), 0u);
  }
}

TEST(BatchKernelTest, ReachesManyMatchesReachesForEverySchemeAndTheMemo) {
  const uint64_t seed = testing_util::TestSeed("BatchKernelTest", 25);
  Rng rng(seed);
  MemoTally tally;
  for (const auto& [spec_name, spec] : TestSpecs()) {
    const Digraph& g = spec.graph();
    const VertexId n = g.num_vertices();
    // Every ordered pair, then a shuffled stream with repeats (memo hits).
    std::vector<VertexId> u, v;
    for (VertexId a = 0; a < n; ++a) {
      for (VertexId b = 0; b < n; ++b) {
        u.push_back(a);
        v.push_back(b);
      }
    }
    for (uint64_t i = 0; i < 512 * testing_util::TestIterScale(); ++i) {
      u.push_back(static_cast<VertexId>(rng.NextBelow(n)));
      v.push_back(static_cast<VertexId>(rng.NextBelow(n)));
    }
    for (SpecSchemeKind kind : kKinds) {
      SCOPED_TRACE(spec_name + " " + SpecSchemeKindName(kind) +
                   " seed=" + std::to_string(seed));
      std::unique_ptr<SpecLabelingScheme> raw = CreateSpecScheme(kind);
      if (!raw->Build(g).ok()) {
        ASSERT_EQ(kind, SpecSchemeKind::kInterval);
        continue;
      }
      MemoizedScheme memo(CreateSpecScheme(kind), &tally);
      ASSERT_TRUE(memo.Build(g).ok());
      for (const SpecLabelingScheme* scheme :
           {static_cast<const SpecLabelingScheme*>(raw.get()),
            static_cast<const SpecLabelingScheme*>(&memo)}) {
        // Twice, so the memo's second pass answers from its table.
        for (int pass = 0; pass < 2; ++pass) {
          std::vector<uint8_t> out(u.size(), 0xAA);
          scheme->ReachesMany(u, v, out.data());
          for (size_t i = 0; i < u.size(); ++i) {
            ASSERT_EQ(out[i], scheme->Reaches(u[i], v[i]) ? 1 : 0)
                << "pair " << i << " (" << u[i] << ", " << v[i] << ")";
          }
        }
        // An empty call writes nothing.
        uint8_t untouched = 0xAA;
        scheme->ReachesMany({}, {}, &untouched);
        EXPECT_EQ(untouched, 0xAA);
      }
    }
  }
}

}  // namespace
}  // namespace skl
