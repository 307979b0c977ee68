// Tests for the persistent provenance store: lossless serialization, queries
// from the blob alone (run graph discarded), and corrupt-input rejection.
// The store itself is pure data since the scheme-passing overloads were
// removed; blob queries go through ProvenanceService::ImportRun, the one
// place that pairs a blob with the scheme its labels were built under.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/provenance_service.h"
#include "src/core/provenance_store.h"
#include "src/core/skeleton_labeler.h"
#include "src/graph/algorithms.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

class ProvenanceStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = testing_util::MakeRunningExample();
    labeler_ = std::make_unique<SkeletonLabeler>(&ex_.spec,
                                                 SpecSchemeKind::kTcm);
    ASSERT_TRUE(labeler_->Init().ok());
    auto labeling = labeler_->LabelRun(ex_.run);
    ASSERT_TRUE(labeling.ok());
    labeling_ = std::make_unique<RunLabeling>(std::move(labeling).value());
  }

  /// A service over (a copy of) the running-example spec, for importing
  /// blobs produced by the standalone Capture/Serialize path.
  ProvenanceService MakeService() {
    auto ex = testing_util::MakeRunningExample();
    auto service =
        ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
    SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
    return std::move(service).value();
  }

  testing_util::RunningExample ex_;
  std::unique_ptr<SkeletonLabeler> labeler_;
  std::unique_ptr<RunLabeling> labeling_;
};

TEST_F(ProvenanceStoreTest, RoundTripLabelsOnly) {
  auto store = ProvenanceStore::Capture(*labeling_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto blob = store->Serialize();
  auto restored = ProvenanceStore::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->num_vertices(), ex_.run.num_vertices());
  EXPECT_EQ(restored->num_items(), 0u);
  // The labels round-trip bit-identically: Decide over restored labels
  // agrees with the in-memory labeling on every pair.
  for (VertexId u = 0; u < ex_.run.num_vertices(); ++u) {
    for (VertexId v = 0; v < ex_.run.num_vertices(); ++v) {
      EXPECT_EQ(RunLabeling::Decide(restored->label(u), restored->label(v),
                                    labeler_->scheme()),
                labeling_->Reaches(u, v));
    }
  }
}

TEST_F(ProvenanceStoreTest, RoundTripWithCatalog) {
  DataCatalog catalog;
  DataItemId x1 = catalog.AddItem(ex_.rv("a1"));
  ASSERT_TRUE(catalog.AddFlow(x1, ex_.rv("a1"), ex_.rv("b1")).ok());
  ASSERT_TRUE(catalog.AddFlow(x1, ex_.rv("a1"), ex_.rv("b3")).ok());
  DataItemId x6 = catalog.AddItem(ex_.rv("c3"));
  ASSERT_TRUE(catalog.AddFlow(x6, ex_.rv("c3"), ex_.rv("h1")).ok());

  auto store = ProvenanceStore::Capture(*labeling_, &catalog);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ProvenanceService service = MakeService();
  auto id = service.ImportRun(store->Serialize());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto stats = service.Stats(*id);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->num_items, 2u);
  EXPECT_TRUE(stats->imported);
  // Example 10, now answered from the persisted blob.
  auto dep = service.DependsOn(*id, x6, x1);
  ASSERT_TRUE(dep.ok());
  EXPECT_TRUE(*dep);
  auto rev = service.DependsOn(*id, x1, x6);
  ASSERT_TRUE(rev.ok());
  EXPECT_FALSE(*rev);
  auto mod = service.DataDependsOnModule(*id, x6, ex_.rv("b3"));
  ASSERT_TRUE(mod.ok());
  EXPECT_TRUE(*mod);
  auto mdd = service.ModuleDependsOnData(*id, ex_.rv("h1"), x1);
  ASSERT_TRUE(mdd.ok());
  EXPECT_TRUE(*mdd);
  // The catalog accessors expose the raw writer/reader lists.
  EXPECT_EQ(store->item_writer(x1), ex_.rv("a1"));
  ASSERT_EQ(store->item_readers(x1).size(), 2u);
}

TEST_F(ProvenanceStoreTest, QueryErrorsOnBadIds) {
  auto store = ProvenanceStore::Capture(*labeling_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ProvenanceService service = MakeService();
  auto id = service.ImportRun(store->Serialize());
  ASSERT_TRUE(id.ok());
  // No catalog: every item id is unknown; vertex ids out of range too.
  EXPECT_FALSE(service.DependsOn(*id, 0, 0).ok());
  EXPECT_FALSE(service.ModuleDependsOnData(*id, 0, 99).ok());
  EXPECT_FALSE(service.DataDependsOnModule(*id, 99, 0).ok());
}

TEST_F(ProvenanceStoreTest, CorruptBlobsRejected) {
  auto store = ProvenanceStore::Capture(*labeling_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto blob = store->Serialize();
  // Wrong magic.
  auto bad = blob;
  bad[0] ^= 0xff;
  EXPECT_FALSE(ProvenanceStore::Deserialize(bad).ok());
  // Truncated.
  auto cut = blob;
  cut.resize(cut.size() / 3);
  EXPECT_FALSE(ProvenanceStore::Deserialize(cut).ok());
  // Empty.
  EXPECT_FALSE(ProvenanceStore::Deserialize(std::vector<uint8_t>{}).ok());
}

TEST_F(ProvenanceStoreTest, LabelsWiderThanOneWordAreRefused) {
  // 3 x 21 context bits + 2 origin bits = 65: CapacityExceeded at capture.
  const std::vector<RunLabel> wide = {RunLabel{(1u << 21) - 1, 1, 1, 2}};
  auto captured = ProvenanceStore::Capture(wide);
  EXPECT_EQ(captured.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(captured.status().message().find("64-bit label word"),
            std::string::npos)
      << captured.status().ToString();

  // A blob declaring those widths: ParseError. After the 4-byte magic the
  // header is one byte each: version, tag length (0), n, q_bits, o_bits.
  auto blob = ProvenanceStore::Capture(*labeling_)->Serialize();
  ASSERT_EQ(blob[5], 0u);
  ASSERT_EQ(blob[6], ex_.run.num_vertices());
  blob[7] = 21;
  blob[8] = 2;
  auto restored = ProvenanceStore::Deserialize(blob);
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("64-bit label word"),
            std::string::npos)
      << restored.status().ToString();
}

TEST_F(ProvenanceStoreTest, OtherBlobVersionsAreRejected) {
  // The version varint sits right after the 4-byte "SKLP" magic. A
  // version-1 header (the untagged layout) and one from the future are
  // refused, naming both versions.
  const std::vector<uint8_t> blob =
      ProvenanceStore::Capture(*labeling_, nullptr, "TCM")->Serialize();
  ASSERT_EQ(blob[4], 2u);
  for (uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    auto patched = blob;
    patched[4] = version;
    auto restored = ProvenanceStore::Deserialize(patched);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
    EXPECT_NE(restored.status().message().find(
                  "unsupported provenance store version " +
                  std::to_string(version)),
              std::string::npos)
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("only version 2"),
              std::string::npos)
        << restored.status().ToString();
  }
}

TEST(ProvenanceStoreLargeTest, GeneratedRunRoundTrip) {
  auto spec_result = BuildRunningExampleSpec();
  ASSERT_TRUE(spec_result.ok());
  Specification spec = std::move(spec_result).value();
  RunGenerator gen(&spec);
  RunGenOptions ropt;
  ropt.target_vertices = 800;
  ropt.seed = 3;
  auto generated = gen.Generate(ropt);
  ASSERT_TRUE(generated.ok());
  SkeletonLabeler labeler(&spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(generated->run);
  ASSERT_TRUE(labeling.ok());
  DataGenOptions dopt;
  dopt.seed = 4;
  DataCatalog catalog = GenerateDataCatalog(generated->run, dopt);

  auto store = ProvenanceStore::Capture(*labeling, &catalog);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto blob = store->Serialize();

  // Storage sanity: label payload is within a byte-rounding of the
  // theoretical width.
  EXPECT_LT(blob.size(),
            (labeling->label_bits() + 8) / 8.0 *
                    generated->run.num_vertices() +
                catalog.size() * 8 + 64);

  // Import the blob into a fresh service over the same spec; answers must
  // match brute-force graph traversal.
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->ImportRun(blob);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  const Digraph& g = generated->run.graph();
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBelow(g.num_vertices()));
    VertexId v = static_cast<VertexId>(rng.NextBelow(g.num_vertices()));
    auto stored = service->Reaches(*id, u, v);
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ(*stored, Reaches(g, u, v));
  }
  for (int i = 0; i < 300; ++i) {
    DataItemId a = static_cast<DataItemId>(rng.NextBelow(catalog.size()));
    DataItemId b = static_cast<DataItemId>(rng.NextBelow(catalog.size()));
    auto stored = service->DependsOn(*id, a, b);
    ASSERT_TRUE(stored.ok());
    bool brute = false;
    for (VertexId r : catalog.InputsOf(b)) {
      brute = brute || Reaches(g, r, catalog.OutputOf(a));
    }
    ASSERT_EQ(*stored, brute);
  }
}

TEST(ProvenanceStoreLargeTest, SerializedBytesArePinned) {
  // The SKLP blob of a seeded run, pinned by digest: the op-log, snapshots
  // and ImportRun all carry these bytes, so the encoder may not move one.
  auto ex = testing_util::MakeRunningExample();
  ::skl::Run run = testing_util::GenerateRun(ex.spec, 1500, 21);
  SkeletonLabeler labeler(&ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(run);
  ASSERT_TRUE(labeling.ok()) << labeling.status().ToString();
  DataGenOptions dopt;
  dopt.seed = 22;
  DataCatalog catalog = GenerateDataCatalog(run, dopt);
  const std::vector<uint8_t> blob =
      ProvenanceStore::Capture(*labeling, &catalog)->Serialize();
  EXPECT_EQ(blob.size(), 13875u);
  EXPECT_EQ(testing_util::Fnv1a(blob.data(), blob.size()),
            0x8e31373603239e8bULL);
  auto restored = ProvenanceStore::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Serialize(), blob);
}

}  // namespace
}  // namespace skl
