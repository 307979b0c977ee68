// Shared fixtures: the paper's running example (Figures 2-3) and small
// helpers used across test files.
#ifndef SKL_TESTS_TEST_UTIL_H_
#define SKL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/replication/oplog.h"
#include "src/speclabel/scheme.h"
#include "src/workflow/run.h"
#include "src/workflow/specification.h"
#include "src/workload/data_generator.h"
#include "src/workload/real_workflows.h"
#include "src/workload/run_generator.h"

namespace skl {
namespace testing_util {

/// The base seed of a randomized differential suite. SKL_TEST_SEED=<n> in
/// the environment overrides `default_seed` — a CI failure replays locally
/// with one export — and the chosen value is printed unconditionally, so
/// the seed is in the log even when the suite dies before its own
/// diagnostics run. Accepts decimal, 0x hex, or 0 octal spellings.
inline uint64_t TestSeed(const char* suite, uint64_t default_seed) {
  uint64_t seed = default_seed;
  const char* from = "default";
  if (const char* env = std::getenv("SKL_TEST_SEED")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') {
      seed = parsed;
      from = "SKL_TEST_SEED";
    } else {
      std::fprintf(stderr, "[%s] ignoring unparseable SKL_TEST_SEED=\"%s\"\n",
                   suite, env);
    }
  }
  std::fprintf(stderr, "[%s] seed=%llu (%s; override with SKL_TEST_SEED)\n",
               suite, static_cast<unsigned long long>(seed), from);
  return seed;
}

/// Iteration multiplier for the randomized suites: 1 normally,
/// SKL_TEST_ITER_SCALE=<n> in CI's nightly long-fuzz leg. Values < 1 or
/// unparseable spellings fall back to 1.
inline uint64_t TestIterScale() {
  if (const char* env = std::getenv("SKL_TEST_ITER_SCALE")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0' && parsed >= 1) return parsed;
  }
  return 1;
}

/// Every byte of the file at `path`; aborts if it cannot be opened. Reads
/// through the standard library rather than src/common's ReadFileBytes, so
/// the durable-format suites never read their inputs with code under test.
inline std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SKL_CHECK_MSG(static_cast<bool>(in), path.c_str());
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

/// Replaces the file at `path` with `bytes`; aborts if it cannot be created.
inline void WriteAll(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SKL_CHECK_MSG(static_cast<bool>(out), path.c_str());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// XORs the byte at `offset` of the file at `path` with `mask`, in place:
/// the file keeps its length and every other byte, so a log or snapshot
/// open elsewhere sees damage at rest. Aborts if the byte is not there.
inline void FlipByteAt(const std::string& path, uint64_t offset,
                       uint8_t mask) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  SKL_CHECK_MSG(static_cast<bool>(file), path.c_str());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  SKL_CHECK_MSG(static_cast<bool>(file.get(byte)), path.c_str());
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ static_cast<char>(mask)));
  SKL_CHECK_MSG(static_cast<bool>(file.flush()), path.c_str());
}

/// The Figure 3 run of the running example: F1 executed twice; in one copy
/// L2... — precisely: fork F1 {b,c} twice (copies (b1,c1,b2,c2) with loop L1
/// twice, and (b3,c3) with L1 once), loop L2 twice (iteration 1 reads e1,
/// f1, g1; iteration 2 has fork F2 over f executed twice: f2, f3).
/// Vertex naming follows the paper: a1, b1..b3, c1..c3, d1, e1, e2, f1..f3,
/// g1, g2, h1.
struct RunningExample {
  Specification spec;
  Run run;
  std::unordered_map<std::string, VertexId> run_vertex;   // "b1" -> id
  std::unordered_map<std::string, VertexId> spec_vertex;  // "b" -> id

  VertexId rv(const std::string& name) const {
    auto it = run_vertex.find(name);
    SKL_CHECK_MSG(it != run_vertex.end(), name.c_str());
    return it->second;
  }
  VertexId sv(const std::string& name) const {
    auto it = spec_vertex.find(name);
    SKL_CHECK_MSG(it != spec_vertex.end(), name.c_str());
    return it->second;
  }
};

inline RunningExample MakeRunningExample() {
  auto spec_result = BuildRunningExampleSpec();
  SKL_CHECK_MSG(spec_result.ok(), spec_result.status().ToString().c_str());
  RunningExample ex{std::move(spec_result).value(), Run{}, {}, {}};
  for (const char* name : {"a", "b", "c", "h", "d", "e", "f", "g"}) {
    ex.spec_vertex[name] = ex.spec.VertexOf(name);
  }

  RunBuilder rb(ex.spec.shared_modules());
  auto add = [&](const std::string& instance, const std::string& module) {
    VertexId v = rb.AddVertexById(
        static_cast<ModuleId>(ex.spec.VertexOf(module)));
    ex.run_vertex[instance] = v;
  };
  // Figure 3's vertices.
  add("a1", "a");
  add("b1", "b");
  add("c1", "c");
  add("b2", "b");
  add("c2", "c");
  add("b3", "b");
  add("c3", "c");
  add("h1", "h");
  add("d1", "d");
  add("e1", "e");
  add("f1", "f");
  add("g1", "g");
  add("e2", "e");
  add("f2", "f");
  add("f3", "f");
  add("g2", "g");
  auto edge = [&](const std::string& u, const std::string& v) {
    rb.AddEdge(ex.run_vertex.at(u), ex.run_vertex.at(v));
  };
  // Fork copy 1 of F1 with loop L1 executed twice: a1->b1->c1->b2->c2->h1.
  edge("a1", "b1");
  edge("b1", "c1");
  edge("c1", "b2");  // serial loop edge
  edge("b2", "c2");
  edge("c2", "h1");
  // Fork copy 2 of F1 with L1 once: a1->b3->c3->h1.
  edge("a1", "b3");
  edge("b3", "c3");
  edge("c3", "h1");
  // Second branch: a1->d1->e1->f1->g1->e2->{f2,f3}->g2->h1.
  edge("a1", "d1");
  edge("d1", "e1");
  edge("e1", "f1");
  edge("f1", "g1");
  edge("g1", "e2");  // serial loop edge between L2 iterations
  edge("e2", "f2");
  edge("f2", "g2");
  edge("e2", "f3");
  edge("f3", "g2");
  edge("g2", "h1");
  auto run_result = std::move(rb).Build();
  SKL_CHECK_MSG(run_result.ok(), run_result.status().ToString().c_str());
  ex.run = std::move(run_result).value();
  return ex;
}

/// 64-bit FNV-1a over `size` bytes, continuing from `hash`: a pinned digest
/// of encoder output or of a printed structure, so a test notices when one
/// byte moves without spelling every byte out.
inline uint64_t Fnv1a(const void* data, size_t size,
                      uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

/// A pinned digest of every field of `spec`'s hierarchy, in order: per node
/// its kind, subgraph, terminals, parent, children, depth, DomSet,
/// own_edges, leader_edge and designated_child; then the levels, EdgeOwner
/// and LeafLedBy over every spec edge id, each vertex's owner and each
/// node's own vertices. Own-edge order sets the leader edges, and they set
/// plan child order, so any move here can move labels.
inline uint64_t HierarchyDigest(const Specification& spec) {
  const Hierarchy& h = spec.hierarchy();
  std::vector<int64_t> words;
  const auto list = [&words](const auto& items) {
    words.push_back(static_cast<int64_t>(items.size()));
    for (const auto& item : items) words.push_back(item);
  };
  for (const HierNode& node : h.nodes()) {
    words.push_back(static_cast<int64_t>(node.kind));
    words.push_back(node.subgraph_index);
    words.push_back(node.source);
    words.push_back(node.sink);
    words.push_back(node.parent);
    list(node.children);
    words.push_back(node.depth);
    std::vector<int64_t> dom;
    for (size_t v = node.dom_set.FindFirst(); v < node.dom_set.size();
         v = node.dom_set.FindNext(v)) {
      dom.push_back(static_cast<int64_t>(v));
    }
    list(dom);
    words.push_back(static_cast<int64_t>(node.own_edges.size()));
    for (const auto& [u, v] : node.own_edges) {
      words.push_back(u);
      words.push_back(v);
    }
    words.push_back(node.leader_edge.first);
    words.push_back(node.leader_edge.second);
    words.push_back(node.designated_child);
  }
  words.push_back(h.depth());
  for (int32_t d = 1; d <= h.depth(); ++d) list(h.Level(d));
  for (size_t e = 0; e < spec.graph().num_edges(); ++e) {
    words.push_back(h.EdgeOwner(e));
    words.push_back(h.LeafLedBy(e));
  }
  list(h.owners());
  for (HierNodeId id = 0; id < static_cast<HierNodeId>(h.size()); ++id) {
    list(h.OwnVertices(id));
  }
  return Fnv1a(words.data(), words.size() * sizeof(int64_t));
}

/// A generated conforming run of `spec` with about `target` vertices.
inline Run GenerateRun(const Specification& spec, uint32_t target,
                       uint64_t seed) {
  RunGenerator generator(&spec);
  RunGenOptions opt;
  opt.target_vertices = target;
  opt.seed = seed;
  auto gen = generator.Generate(opt);
  SKL_CHECK_MSG(gen.ok(), gen.status().ToString().c_str());
  return std::move(gen->run);
}

/// The seeded mutation history whose durable bytes snapshot_test and
/// oplog_test pin: catalogued AddRuns under three spec epochs (two
/// ApplySpecDelta calls), an ImportRun of an exported run and a RemoveRun.
/// When `oplog_path` is non-empty the history is also logged to a fresh
/// op-log there (fsync off), which is closed again before returning.
inline ProvenanceService PinnedHistoryService(
    const std::string& oplog_path = {}) {
  auto service = ProvenanceService::Create(MakeRunningExample().spec,
                                           SpecSchemeKind::kTcm);
  SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
  std::unique_ptr<OpLog> log;
  if (!oplog_path.empty()) {
    std::remove(oplog_path.c_str());
    OpLog::Options options;
    options.fsync = false;
    auto opened = OpLog::Open(oplog_path,
                              WriteSpecificationXml(service->base_spec()),
                              std::string(service->scheme().name()), options);
    SKL_CHECK_MSG(opened.ok(), opened.status().ToString().c_str());
    log = std::move(opened).value();
    service->AttachOpLog(log.get());
  }
  const auto check = [](const Status& status) {
    SKL_CHECK_MSG(status.ok(), status.ToString().c_str());
  };
  uint64_t seed = 40;
  const auto add_run = [&](uint32_t target) {
    Run run = GenerateRun(service->spec(), target, ++seed);
    DataGenOptions data;
    data.seed = ++seed;
    const DataCatalog catalog = GenerateDataCatalog(run, data);
    auto id = service->AddRun(run, &catalog);
    check(id.status());
    return *id;
  };
  const RunId first = add_run(60);
  const RunId second = add_run(90);
  SpecDelta audit;
  audit.kind = SpecDelta::Kind::kAddModule;
  audit.module = "audit";
  audit.from = {"a"};
  audit.to = {"h"};
  check(service->ApplySpecDelta(audit).status());
  add_run(70);
  auto blob = service->ExportRun(first);
  check(blob.status());
  check(service->ImportRun(*blob).status());
  check(service->RemoveRun(second));
  SpecDelta tail = audit;
  tail.module = "tail";
  check(service->ApplySpecDelta(tail).status());
  add_run(50);
  service->AttachOpLog(nullptr);
  return std::move(service).value();
}

/// A tree-shaped specification for the interval scheme (which rejects spec
/// graphs with undirected cycles): a -> b -> c -> d with a loop over {b, c}.
inline Specification MakeTreeSpec() {
  SpecificationBuilder builder;
  VertexId a = builder.AddModule("a");
  VertexId b = builder.AddModule("b");
  VertexId c = builder.AddModule("c");
  VertexId d = builder.AddModule("d");
  builder.AddEdge(a, b).AddEdge(b, c).AddEdge(c, d);
  builder.DeclareLoop({b, c});
  auto spec = std::move(builder).Build();
  SKL_CHECK_MSG(spec.ok(), spec.status().ToString().c_str());
  return std::move(spec).value();
}

/// The spec a suite that sweeps every scheme runs `kind` on: the tree spec
/// for the interval scheme, the running example for every other one.
inline Specification MakeSpecFor(SpecSchemeKind kind) {
  return kind == SpecSchemeKind::kInterval ? MakeTreeSpec()
                                           : MakeRunningExample().spec;
}

/// Two services hold the same runs under the same ids with the same stats,
/// and answer every Reaches pair (single and batch) and every DependsOn
/// item pair (batch) identically — the equivalence a snapshot round trip
/// must preserve.
inline void ExpectSameAnswers(const ProvenanceService& a,
                              const ProvenanceService& b) {
  const std::vector<RunId> ids = a.ListRuns();
  ASSERT_EQ(ids, b.ListRuns());
  for (RunId id : ids) {
    auto sa = a.Stats(id);
    auto sb = b.Stats(id);
    ASSERT_TRUE(sa.ok() && sb.ok());
    EXPECT_EQ(sa->num_vertices, sb->num_vertices);
    EXPECT_EQ(sa->num_items, sb->num_items);
    EXPECT_EQ(sa->label_bits, sb->label_bits);
    EXPECT_EQ(sa->context_bits, sb->context_bits);
    EXPECT_EQ(sa->origin_bits, sb->origin_bits);
    EXPECT_EQ(sa->num_nonempty_plus, sb->num_nonempty_plus);
    EXPECT_EQ(sa->imported, sb->imported);
    const VertexId n = sa->num_vertices;
    std::vector<VertexPair> pairs;
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId w = 0; w < n; ++w) {
        pairs.push_back({v, w});
        auto ra = a.Reaches(id, v, w);
        auto rb = b.Reaches(id, v, w);
        ASSERT_TRUE(ra.ok() && rb.ok());
        ASSERT_EQ(*ra, *rb) << "run " << id.value() << " pair " << v
                            << "->" << w;
      }
    }
    auto ba = a.ReachesBatch(id, pairs);
    auto bb = b.ReachesBatch(id, pairs);
    ASSERT_TRUE(ba.ok() && bb.ok());
    ASSERT_EQ(*ba, *bb) << "run " << id.value();
    std::vector<ItemPair> item_pairs;
    for (DataItemId x = 0; x < sa->num_items; ++x) {
      for (DataItemId y = 0; y < sa->num_items; ++y) {
        item_pairs.push_back({x, y});
      }
    }
    auto da = a.DependsOnBatch(id, item_pairs);
    auto db = b.DependsOnBatch(id, item_pairs);
    ASSERT_TRUE(da.ok() && db.ok());
    ASSERT_EQ(*da, *db) << "run " << id.value() << " (items)";
  }
}

}  // namespace testing_util
}  // namespace skl

#endif  // SKL_TESTS_TEST_UTIL_H_
