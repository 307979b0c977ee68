// Conformance fuzzing: mutate conforming runs at random (add/delete edges,
// relabel/duplicate vertices) and require that the plan-recovery algorithm
// either rejects the mutant as nonconforming or — if the mutant happens to
// remain a valid run — produces labels that still agree with graph search.
// Either outcome is sound; silently mislabeling is the only failure mode.
// The spec-delta dimension fuzzes the other mutable input: random valid
// and invalid specification edits against a live service. An invalid delta
// must come back as a descriptive typed Status — and must not corrupt
// anything, which a full query sweep over every ingested run proves after
// each rejection. A valid delta must advance the epoch by exactly one and
// leave every old run's answers frozen.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/provenance_service.h"
#include "src/core/skeleton_labeler.h"
#include "src/graph/algorithms.h"
#include "src/workflow/spec_delta.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "src/workload/spec_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

enum class Mutation {
  kAddEdge,
  kDeleteEdge,
  kRelabelVertex,
  kDuplicateVertex,
};

Run Mutate(const Specification& spec, const Run& run, Mutation kind,
           Rng* rng) {
  RunBuilder rb(spec.shared_modules());
  for (VertexId v = 0; v < run.num_vertices(); ++v) {
    ModuleId m = run.ModuleOf(v);
    if (kind == Mutation::kRelabelVertex &&
        v == rng->NextBelow(run.num_vertices())) {
      m = static_cast<ModuleId>(
          rng->NextBelow(spec.graph().num_vertices()));
    }
    rb.AddVertexById(m);
  }
  auto edges = run.graph().Edges();
  size_t skip = kind == Mutation::kDeleteEdge
                    ? rng->NextBelow(edges.size())
                    : SIZE_MAX;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i == skip) continue;
    rb.AddEdge(edges[i].first, edges[i].second);
  }
  if (kind == Mutation::kAddEdge) {
    VertexId u = static_cast<VertexId>(rng->NextBelow(run.num_vertices()));
    VertexId v = static_cast<VertexId>(rng->NextBelow(run.num_vertices()));
    if (u != v) rb.AddEdge(u, v);
  }
  if (kind == Mutation::kDuplicateVertex) {
    VertexId v = static_cast<VertexId>(rng->NextBelow(run.num_vertices()));
    VertexId dup = rb.AddVertexById(run.ModuleOf(v));
    auto in = run.graph().InNeighbors(v);
    if (!in.empty()) rb.AddEdge(in[0], dup);
    auto out = run.graph().OutNeighbors(v);
    if (!out.empty()) rb.AddEdge(dup, out[0]);
  }
  auto result = std::move(rb).Build();
  SKL_CHECK(result.ok());
  return std::move(result).value();
}

// Labels `trials` mutants of generated conforming runs of the spec generated
// from `seed`: each must be rejected with InvalidRun or answer reachability
// as a DFS over the mutant does.
void CheckMutants(uint64_t seed, uint64_t trials) {
  SpecGenOptions sopt;
  sopt.num_vertices = 40;
  sopt.num_edges = 64;
  sopt.num_subgraphs = 5;
  sopt.depth = 3;
  sopt.seed = seed;
  auto spec = GenerateSpecification(sopt);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  SkeletonLabeler labeler(&spec.value(), SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());

  RunGenerator gen(&spec.value());
  Rng rng(seed * 7919 + 3);
  size_t rejected = 0, accepted = 0;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    RunGenOptions ropt;
    ropt.target_vertices = 150;
    ropt.seed = seed * 100 + trial;
    auto generated = gen.Generate(ropt);
    ASSERT_TRUE(generated.ok());
    Mutation kind = static_cast<Mutation>(rng.NextBelow(4));
    ::skl::Run mutant =
        Mutate(spec.value(), generated->run, kind, &rng);

    auto labeling = labeler.LabelRun(mutant);
    if (!labeling.ok()) {
      // Rejection must come through the typed error, not a crash.
      EXPECT_EQ(labeling.status().code(), StatusCode::kInvalidRun)
          << labeling.status().ToString();
      ++rejected;
      continue;
    }
    ++accepted;
    // The mutant slipped through as (or equal to) a conforming run: its
    // labels must still answer correctly.
    const Digraph& g = mutant.graph();
    for (int q = 0; q < 600; ++q) {
      VertexId u = static_cast<VertexId>(rng.NextBelow(g.num_vertices()));
      VertexId v = static_cast<VertexId>(rng.NextBelow(g.num_vertices()));
      ASSERT_EQ(labeling->Reaches(u, v), Reaches(g, u, v))
          << "seed " << seed << " trial " << trial << " mutation "
          << static_cast<int>(kind);
    }
  }
  // Most mutations break conformance; make sure the oracle is doing work.
  EXPECT_GT(rejected, 0u) << "no mutant was rejected across " << trials
                          << " trials";
  (void)accepted;
}

class ConformanceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConformanceFuzz, MutantsAreRejectedOrLabeledCorrectly) {
  CheckMutants(GetParam(), 40 * testing_util::TestIterScale());
}

// Seed 5's trial 87 adds an edge after which walking back along the serial
// edges from one loop copy ends in a copy an earlier chain already grouped;
// plan recovery must reject it (it used to hand the copy to two L- nodes and
// fail the plan's own Internal consistency check).
TEST(ConformanceFuzzRegression, OverlappingLoopChainsAreRejected) {
  CheckMutants(5, 88);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConformanceFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ------------------------------------------------- spec-delta dimension --

class SpecDeltaFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpecDeltaFuzz, InvalidDeltasRejectDescriptivelyWithoutCorruption) {
  const uint64_t seed = GetParam();
  SpecGenOptions sopt;
  sopt.num_vertices = 24;
  sopt.num_edges = 36;
  sopt.num_subgraphs = 3;
  sopt.depth = 2;
  sopt.seed = seed;
  auto spec = GenerateSpecification(sopt);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::vector<std::string> module_names;
  for (VertexId v = 0; v < spec->graph().num_vertices(); ++v) {
    module_names.push_back(spec->ModuleName(v));
  }

  auto service = ProvenanceService::Create(spec.value(),
                                           SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  RunGenerator gen(&service->spec());
  std::vector<RunId> ids;
  for (int i = 0; i < 3; ++i) {
    RunGenOptions ropt;
    ropt.target_vertices = 60;
    ropt.seed = seed * 100 + i;
    auto generated = gen.Generate(ropt);
    ASSERT_TRUE(generated.ok());
    DataGenOptions dopt;
    dopt.seed = seed * 10 + i;
    const DataCatalog catalog = GenerateDataCatalog(generated->run, dopt);
    auto id = service->AddRun(generated->run, &catalog);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  // Ground truth per run, captured before any delta: a probe grid across
  // all four query kinds. The sweep below replays it verbatim.
  struct Truth {
    RunId id;
    VertexId n;
    size_t items;
    std::vector<bool> reaches;       // n x n flattened (capped)
    std::vector<bool> depends;       // items x items flattened (capped)
  };
  std::vector<Truth> truths;
  for (RunId id : ids) {
    auto stats = service->Stats(id);
    ASSERT_TRUE(stats.ok());
    Truth t;
    t.id = id;
    t.n = std::min<VertexId>(stats->num_vertices, 12);
    t.items = std::min<size_t>(stats->num_items, 8);
    for (VertexId u = 0; u < t.n; ++u) {
      for (VertexId v = 0; v < t.n; ++v) {
        auto r = service->Reaches(id, u, v);
        ASSERT_TRUE(r.ok());
        t.reaches.push_back(*r);
      }
    }
    for (size_t x = 0; x < t.items; ++x) {
      for (size_t y = 0; y < t.items; ++y) {
        auto r = service->DependsOn(id, static_cast<DataItemId>(x),
                                    static_cast<DataItemId>(y));
        ASSERT_TRUE(r.ok());
        t.depends.push_back(*r);
      }
    }
    truths.push_back(std::move(t));
  }
  auto sweep = [&](const char* when) {
    for (const Truth& t : truths) {
      size_t k = 0;
      for (VertexId u = 0; u < t.n; ++u) {
        for (VertexId v = 0; v < t.n; ++v, ++k) {
          auto r = service->Reaches(t.id, u, v);
          ASSERT_TRUE(r.ok()) << when << ": " << r.status().ToString();
          ASSERT_EQ(*r, t.reaches[k])
              << when << ": Reaches(" << t.id.value() << ", " << u << ", "
              << v << ") changed";
        }
      }
      k = 0;
      for (size_t x = 0; x < t.items; ++x) {
        for (size_t y = 0; y < t.items; ++y, ++k) {
          auto r = service->DependsOn(t.id, static_cast<DataItemId>(x),
                                      static_cast<DataItemId>(y));
          ASSERT_TRUE(r.ok()) << when << ": " << r.status().ToString();
          ASSERT_EQ(*r, t.depends[k])
              << when << ": DependsOn(" << t.id.value() << ", " << x << ", "
              << y << ") changed";
        }
      }
    }
  };

  Rng rng(seed * 104729 + 1);
  auto pick_name = [&]() -> std::string {
    const uint64_t r = rng.NextBelow(10);
    if (r < 6) return module_names[rng.NextBelow(module_names.size())];
    if (r < 8) return "zz" + std::to_string(rng.NextBelow(4));  // unknown
    return "";  // empty name: always invalid
  };
  size_t applied = 0, rejected = 0;
  uint64_t fresh = 0;
  for (int trial = 0; trial < 80; ++trial) {
    SpecDelta delta;
    delta.kind = static_cast<SpecDelta::Kind>(1 + rng.NextBelow(4));
    switch (delta.kind) {
      case SpecDelta::Kind::kAddModule:
        delta.module = rng.NextBelow(3) == 0
                           ? pick_name()  // duplicate or garbage name
                           : "dyn" + std::to_string(fresh++);
        for (uint64_t i = 0; i < rng.NextBelow(3); ++i) {
          delta.from.push_back(pick_name());
        }
        for (uint64_t i = 0; i < rng.NextBelow(3); ++i) {
          delta.to.push_back(pick_name());
        }
        break;
      case SpecDelta::Kind::kRemoveModule:
        delta.module = pick_name();
        break;
      case SpecDelta::Kind::kAddEdge:
      case SpecDelta::Kind::kRemoveEdge:
        delta.edge_from = pick_name();
        delta.edge_to = pick_name();
        break;
    }
    const uint64_t epoch_before = service->spec_epoch();
    auto result = service->ApplySpecDelta(delta);
    if (result.ok()) {
      ++applied;
      ASSERT_EQ(*result, epoch_before + 1) << "epoch must advance by one";
      ASSERT_EQ(service->spec_epoch(), epoch_before + 1);
    } else {
      ++rejected;
      // Rejection must be typed and descriptive, never a crash or a
      // silent half-application.
      EXPECT_FALSE(result.status().message().empty())
          << "trial " << trial << ": undescriptive rejection";
      ASSERT_EQ(service->spec_epoch(), epoch_before)
          << "trial " << trial << ": rejected delta moved the epoch";
    }
    // Whatever happened, runs ingested under epoch 1 answer unchanged.
    sweep(result.ok() ? "after accepted delta" : "after rejected delta");
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " trial " << trial << " delta "
                    << SpecDeltaKindName(delta.kind);
      return;
    }
  }
  // Random edits against a declared-subgraph-rich spec must hit both
  // paths, or the fuzz proved nothing.
  EXPECT_GT(rejected, 0u) << "no delta was rejected across 80 trials";
  (void)applied;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecDeltaFuzz,
                         ::testing::Values(21u, 22u, 23u, 24u));

TEST(ConformanceFuzzShape, ScrambledEdgesRejected) {
  // Extreme mutant: keep the vertex multiset of a valid run but rewire all
  // edges randomly (acyclic by index order).
  SpecGenOptions sopt;
  sopt.seed = 9;
  auto spec = GenerateSpecification(sopt);
  ASSERT_TRUE(spec.ok());
  RunGenerator gen(&spec.value());
  RunGenOptions ropt;
  ropt.target_vertices = 200;
  ropt.seed = 10;
  auto generated = gen.Generate(ropt);
  ASSERT_TRUE(generated.ok());
  Rng rng(11);
  RunBuilder rb(spec->shared_modules());
  for (VertexId v = 0; v < generated->run.num_vertices(); ++v) {
    rb.AddVertexById(generated->run.ModuleOf(v));
  }
  for (size_t i = 0; i < generated->run.num_edges(); ++i) {
    VertexId u = static_cast<VertexId>(
        rng.NextBelow(generated->run.num_vertices() - 1));
    VertexId v = static_cast<VertexId>(
        u + 1 + rng.NextBelow(generated->run.num_vertices() - u - 1));
    rb.AddEdge(u, v);
  }
  auto mutant = std::move(rb).Build();
  ASSERT_TRUE(mutant.ok());
  SkeletonLabeler labeler(&spec.value(), SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(*mutant);
  EXPECT_FALSE(labeling.ok());
}

}  // namespace
}  // namespace skl
