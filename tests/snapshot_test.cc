// Durable service snapshots: save→load→query equivalence (exhaustively, for
// every bundled scheme), RunId bit-identity including the id counter and
// RemoveRun gaps, imported-run round trips, and the failure paths — missing
// file, truncation at every byte prefix, bad magic, unsupported format
// version and corrupted checksums must each come back as a descriptive
// Status, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/bit_codec.h"
#include "src/common/random.h"
#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/io/snapshot.h"
#include "src/io/workflow_xml.h"
#include "src/workflow/spec_delta.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

/// A fresh pid-qualified path under the temp dir (concurrent ctest runs —
/// e.g. the plain and sanitizer build trees — share /tmp); removed by the
/// TempFile destructor.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(PidQualifiedTempPath("skl_snapshot_test_" + name, ".skls")) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    for (const std::string& tmp : TmpSiblings()) {
      std::filesystem::remove(tmp, ec);
    }
  }
  const std::string& path() const { return path_; }

  /// Any "<path>.tmp*" remnants of SnapshotWriter::WriteFile.
  std::vector<std::string> TmpSiblings() const {
    const std::filesystem::path target(path_);
    const std::string prefix = target.filename().string() + ".tmp";
    std::vector<std::string> found;
    std::error_code ec;
    for (std::filesystem::directory_iterator
             it(target.parent_path(), ec),
         end;
         !ec && it != end; it.increment(ec)) {
      if (it->path().filename().string().rfind(prefix, 0) == 0) {
        found.push_back(it->path().string());
      }
    }
    return found;
  }

 private:
  std::string path_;
};

using testing_util::ReadAll;
using testing_util::WriteAll;
using testing_util::GenerateRun;
using testing_util::ExpectSameAnswers;

// --------------------------------------------------------- round tripping --

TEST(SnapshotTest, RoundTripsEveryBundledScheme) {
  // kInterval requires a tree-shaped spec graph and is covered separately.
  for (SpecSchemeKind kind :
       {SpecSchemeKind::kTcm, SpecSchemeKind::kBfs, SpecSchemeKind::kDfs,
        SpecSchemeKind::kTreeCover, SpecSchemeKind::kChain,
        SpecSchemeKind::kTwoHop}) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    auto ex = testing_util::MakeRunningExample();
    ::skl::Run generated = GenerateRun(ex.spec, 60, 11);
    auto service = ProvenanceService::Create(std::move(ex.spec), kind);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE(service->AddRun(ex.run).ok());
    ASSERT_TRUE(service->AddRun(generated).ok());

    TempFile file(std::string("scheme_") + SpecSchemeKindName(kind));
    ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
    auto restored = ProvenanceService::LoadSnapshot(file.path());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(std::string(restored->scheme().name()),
              std::string(service->scheme().name()));
    ExpectSameAnswers(*service, *restored);
  }
}

TEST(SnapshotTest, RoundTripsIntervalSchemeOnTreeSpec) {
  // The tree spec: the one scheme that rejects DAGs with undirected cycles.
  Specification spec = testing_util::MakeTreeSpec();
  ::skl::Run run = GenerateRun(spec, 30, 5);
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kInterval);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(service->AddRun(run).ok());

  TempFile file("interval");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto restored = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameAnswers(*service, *restored);
}

TEST(SnapshotTest, RoundTripsDataCatalogAndDependsOn) {
  auto ex = testing_util::MakeRunningExample();
  ::skl::Run run = GenerateRun(ex.spec, 80, 21);
  DataGenOptions dopt;
  dopt.seed = 3;
  DataCatalog catalog = GenerateDataCatalog(run, dopt);
  ASSERT_GT(catalog.size(), 0u);

  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(run, &catalog);
  ASSERT_TRUE(id.ok());

  TempFile file("catalog");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto restored = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const DataItemId items = static_cast<DataItemId>(catalog.size());
  for (DataItemId x = 0; x < items; ++x) {
    for (DataItemId y = 0; y < items; ++y) {
      auto a = service->DependsOn(*id, x, y);
      auto b = restored->DependsOn(*id, x, y);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(*a, *b) << "items " << x << ", " << y;
    }
  }
}

TEST(SnapshotTest, SnapshotBytesArePinned) {
  // The whole-service encoding of a seeded history (catalogued runs under
  // three epochs, an import, a removal), pinned by digest: a refactor of
  // the store, the run index or the container may not move one byte.
  const ProvenanceService service = testing_util::PinnedHistoryService();
  auto bytes = service.SnapshotBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(service.ListRuns().size(), 4u);
  EXPECT_EQ(service.spec_epoch(), 3u);
  EXPECT_EQ(bytes->size(), 6696u);
  EXPECT_EQ(testing_util::Fnv1a(bytes->data(), bytes->size()),
            0x80c81dffe87bdda3ULL);
}

TEST(SnapshotTest, PreservesRunIdsAcrossRemovalsAndTheIdCounter) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id1 = service->AddRun(ex.run);
  auto id2 = service->AddRun(ex.run);
  auto id3 = service->AddRun(ex.run);
  ASSERT_TRUE(id1.ok() && id2.ok() && id3.ok());
  ASSERT_TRUE(service->RemoveRun(*id2).ok());

  TempFile file("ids");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto restored = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // The gap survives; the removed id stays NotFound, not reassigned.
  std::vector<RunId> ids = restored->ListRuns();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0].value(), id1->value());
  EXPECT_EQ(ids[1].value(), id3->value());
  EXPECT_FALSE(restored->Contains(*id2));

  // The id counter is part of the snapshot: the next ingestion on the
  // restored service yields the same handle the saving service would.
  auto next_original = service->AddRun(ex.run);
  auto next_restored = restored->AddRun(ex.run);
  ASSERT_TRUE(next_original.ok() && next_restored.ok());
  EXPECT_EQ(next_original->value(), next_restored->value());
}

TEST(SnapshotTest, RoundTripsImportedRuns) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(ex.run);
  ASSERT_TRUE(id.ok());
  auto blob = service->ExportRun(*id);
  ASSERT_TRUE(blob.ok());
  auto imported = service->ImportRun(*blob);
  ASSERT_TRUE(imported.ok());

  TempFile file("imported");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto restored = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto stats = restored->Stats(*imported);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->imported);
  ExpectSameAnswers(*service, *restored);
}

TEST(SnapshotTest, EmptyRegistryRoundTrips) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kBfs);
  ASSERT_TRUE(service.ok());
  TempFile file("empty");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto restored = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_runs(), 0u);
  // First run on the restored empty service gets id 1, like a fresh one.
  auto id = restored->AddRun(ex.run);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id->value(), 1u);
}

TEST(SnapshotTest, LoadOptionsControlRuntimeKnobs) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("options");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  ProvenanceService::Options options;
  options.num_threads = 2;
  options.fail_fast = true;
  auto restored = ProvenanceService::LoadSnapshot(file.path(), options);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->options().num_threads, 2u);
  EXPECT_TRUE(restored->options().fail_fast);
}

TEST(SnapshotTest, SaveIsConsistentWhileIngestingAndQuerying) {
  // TSan target: SaveSnapshot runs under the shared lock, so it must
  // coexist with concurrent readers and bulk writers — and every snapshot
  // it produces must be a loadable, point-in-time-consistent registry in
  // which the stable run answers exactly as in the live service.
  auto ex = testing_util::MakeRunningExample();
  ::skl::Run batch_run = GenerateRun(ex.spec, 40, 31);
  auto service = ProvenanceService::Create(std::move(ex.spec),
                                           SpecSchemeKind::kTcm,
                                           {.num_threads = 2});
  ASSERT_TRUE(service.ok());
  auto stable_id = service->AddRun(ex.run);
  ASSERT_TRUE(stable_id.ok());
  const VertexId n = ex.run.num_vertices();

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::thread ingester([&] {
    std::vector<::skl::Run> batch(3, batch_run);
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Result<RunId>& id : service->AddRunsParallel(batch)) {
        if (!id.ok() || !service->RemoveRun(*id).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = service->Reaches(*stable_id, 0, n - 1);
      if (!r.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  });

  TempFile file("concurrent");
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
    auto restored = ProvenanceService::LoadSnapshot(file.path());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_TRUE(restored->Contains(*stable_id));
    for (VertexId v = 0; v < n; ++v) {
      auto a = service->Reaches(*stable_id, v, n - 1 - v);
      auto b = restored->Reaches(*stable_id, v, n - 1 - v);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(*a, *b);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  ingester.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0u);
}

// ---------------------------------------------------------- failure paths --

TEST(SnapshotTest, MissingFileIsNotFound) {
  for (bool use_mmap : {false, true}) {
    auto missing = ProvenanceService::LoadSnapshot(
        "/nonexistent/dir/missing.skls", {}, {.use_mmap = use_mmap});
    ASSERT_FALSE(missing.ok()) << "use_mmap " << use_mmap;
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound)
        << "use_mmap " << use_mmap;
  }
}

TEST(SnapshotTest, DirectoryPathIsAnErrorOnBothLoaders) {
  // A directory opens for reading but has no byte count to trust: the load
  // must fail with a Status, not size a buffer from the directory's offset.
  const std::string dir = std::filesystem::temp_directory_path().string();
  for (bool use_mmap : {false, true}) {
    auto loaded =
        ProvenanceService::LoadSnapshot(dir, {}, {.use_mmap = use_mmap});
    ASSERT_FALSE(loaded.ok()) << "use_mmap " << use_mmap;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal)
        << "use_mmap " << use_mmap << ": " << loaded.status().ToString();
  }
}

TEST(SnapshotTest, ZeroLengthFileIsMissingHeaderOnBothLoaders) {
  TempFile file("zero_length");
  WriteAll(file.path(), {});
  for (bool use_mmap : {false, true}) {
    auto loaded = ProvenanceService::LoadSnapshot(file.path(), {},
                                                  {.use_mmap = use_mmap});
    ASSERT_FALSE(loaded.ok()) << "use_mmap " << use_mmap;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "use_mmap " << use_mmap;
    EXPECT_EQ(loaded.status().message(),
              "snapshot truncated: missing file header")
        << "use_mmap " << use_mmap;
  }
}

TEST(SnapshotTest, TruncationAtEveryPrefixFailsCleanly) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(service->AddRun(ex.run).ok());
  TempFile file("truncate");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  const std::vector<uint8_t> bytes = ReadAll(file.path());
  ASSERT_GT(bytes.size(), 16u);

  TempFile truncated("truncated");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(truncated.path(),
             std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    auto restored = ProvenanceService::LoadSnapshot(truncated.path());
    ASSERT_FALSE(restored.ok()) << "prefix of " << len << " bytes parsed";
    ASSERT_EQ(restored.status().code(), StatusCode::kParseError)
        << restored.status().ToString();
  }
  // The full file still loads (the loop really was about truncation).
  WriteAll(truncated.path(), bytes);
  EXPECT_TRUE(ProvenanceService::LoadSnapshot(truncated.path()).ok());
}

TEST(SnapshotTest, BadMagicIsDescriptive) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("magic");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  std::vector<uint8_t> bytes = ReadAll(file.path());
  bytes[0] ^= 0xFF;
  WriteAll(file.path(), bytes);
  auto restored = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("bad magic"), std::string::npos)
      << restored.status().ToString();
}

/// Saves a one-run snapshot, rewrites its container version (the one-byte
/// varint right after the 4-byte magic) to `version`, and loads it back.
Status LoadWithFormatVersion(uint8_t version) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  SKL_CHECK(service.ok());
  SKL_CHECK(service->AddRun(ex.run).ok());
  TempFile file("version_" + std::to_string(version));
  SKL_CHECK(service->SaveSnapshot(file.path()).ok());
  std::vector<uint8_t> bytes = ReadAll(file.path());
  SKL_CHECK(bytes[4] == kSnapshotFormatVersion);
  bytes[4] = version;
  WriteAll(file.path(), bytes);
  return ProvenanceService::LoadSnapshot(file.path()).status();
}

/// The refusal names both the found and the supported version.
void ExpectVersionRefused(const Status& status, uint32_t found) {
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("unsupported snapshot format version " +
                                  std::to_string(found)),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("only version " +
                                  std::to_string(kSnapshotFormatVersion)),
            std::string::npos)
      << status.ToString();
}

TEST(SnapshotTest, FutureFormatVersionIsRejected) {
  ExpectVersionRefused(LoadWithFormatVersion(kSnapshotFormatVersion + 41),
                       kSnapshotFormatVersion + 41);
}

TEST(SnapshotTest, OlderFormatVersionIsRejected) {
  for (uint8_t version : {uint8_t{2}, uint8_t{3}}) {
    ExpectVersionRefused(LoadWithFormatVersion(version), version);
  }
}

TEST(SnapshotTest, SixtyFourBitLabelsRoundTripAndDecideLikeTheirTwins) {
  // Labels at exactly one word: 3 x 20 context bits and 4 origin bits,
  // each field drawn over its whole range. The run must come back from
  // export, a copied load and an mapped load with the same blob, and every
  // answer must be Decide's on the RunLabel it was packed from.
  auto ex = testing_util::MakeRunningExample();
  const VertexId n_g = ex.spec.graph().num_vertices();
  ASSERT_GE(n_g, 8u);
  constexpr uint32_t kQMax = (1u << 20) - 1;
  Rng rng(41);
  std::vector<RunLabel> labels(96);
  for (RunLabel& label : labels) {
    label.q1 = 1 + static_cast<uint32_t>(rng.NextBelow(kQMax));
    label.q2 = 1 + static_cast<uint32_t>(rng.NextBelow(kQMax));
    label.q3 = 1 + static_cast<uint32_t>(rng.NextBelow(kQMax));
    label.origin =
        static_cast<VertexId>(rng.NextBelow(std::min<VertexId>(n_g, 15)));
  }
  labels[0] = RunLabel{kQMax, kQMax, kQMax, 7};
  auto store = ProvenanceStore::Capture(labels, nullptr, "TCM");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(store->packing().q_bits(), 20);
  ASSERT_EQ(store->packing().o_bits(), 4);
  const std::vector<uint8_t> blob = store->Serialize();

  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->ImportRun(blob);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  TempFile file("sixty_four_bits");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  std::vector<VertexPair> pairs;
  for (VertexId v = 0; v < labels.size(); ++v) {
    for (VertexId w = 0; w < labels.size(); ++w) pairs.push_back({v, w});
  }
  const auto expect_twin = [&](const ProvenanceService& copy) {
    auto exported = copy.ExportRun(*id);
    ASSERT_TRUE(exported.ok());
    EXPECT_EQ(*exported, blob);
    auto batch = copy.ReachesBatch(*id, pairs);
    ASSERT_TRUE(batch.ok());
    size_t forward = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto [v, w] = pairs[i];
      const bool twin =
          RunLabeling::Decide(labels[v], labels[w], copy.scheme());
      auto point = copy.Reaches(*id, v, w);
      ASSERT_TRUE(point.ok());
      ASSERT_EQ(*point, twin) << v << " -> " << w;
      ASSERT_EQ((*batch)[i], twin) << v << " -> " << w;
      forward += twin;
    }
    EXPECT_GT(forward, labels.size());  // not only the reflexive pairs
  };
  expect_twin(*service);
  for (bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap load" : "copying load");
    auto loaded = ProvenanceService::LoadSnapshot(file.path(), {},
                                                  {.use_mmap = use_mmap});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    expect_twin(*loaded);
  }
}

/// Writes the service snapshot `bytes` to `path` section by section, with
/// `edit` applied to each payload first.
void WriteEdited(std::vector<uint8_t> bytes, const std::string& path,
                 const std::function<void(uint32_t, std::vector<uint8_t>&)>&
                     edit) {
  auto reader = SnapshotReader::Parse(std::move(bytes));
  SKL_CHECK(reader.ok());
  SnapshotWriter writer;
  for (uint32_t section : {kSnapshotSectionSpec, kSnapshotSectionScheme,
                           kSnapshotSectionEpochs, kSnapshotSectionRunIndex,
                           kSnapshotSectionColumns}) {
    auto payload = reader->Section(section);
    SKL_CHECK(payload.ok());
    std::vector<uint8_t> copy(payload->begin(), payload->end());
    edit(section, copy);
    if (section == kSnapshotSectionColumns) {
      writer.AddAlignedSection(section, std::move(copy));
    } else {
      writer.AddSection(section, std::move(copy));
    }
  }
  SKL_CHECK(std::move(writer).WriteFile(path).ok());
}

/// Both loaders refuse the snapshot at `path` with a ParseError saying
/// `refusal`.
void ExpectBothLoadersRefuse(const std::string& path,
                             const std::string& refusal) {
  for (bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap load" : "copying load");
    auto loaded =
        ProvenanceService::LoadSnapshot(path, {}, {.use_mmap = use_mmap});
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(refusal), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(SnapshotTest, RunWiderThanOneWordIsRefusedOnLoad) {
  // A one-run snapshot whose run index declares 3 x 21 context bits and 2
  // origin bits (65 in all). The index ends with the run's q_bits, o_bits,
  // tag length and tag ("TCM").
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(service->AddRun(ex.run).ok());
  auto bytes = service->SnapshotBytes();
  ASSERT_TRUE(bytes.ok());
  TempFile file("wider_than_a_word");
  WriteEdited(std::move(bytes).value(), file.path(),
              [](uint32_t section, std::vector<uint8_t>& payload) {
                if (section != kSnapshotSectionRunIndex) return;
                SKL_CHECK(std::string(payload.end() - 4, payload.end()) ==
                          "\x03TCM");
                payload[payload.size() - 6] = 21;
                payload[payload.size() - 5] = 2;
              });
  ExpectBothLoadersRefuse(file.path(), "64-bit label word");
}

TEST(SnapshotTest, OriginPastItsWidthIsRefusedOnLoad) {
  // Origins all 0 pack into one bit. A LABELS word whose origin field
  // reads 2, a vertex of the spec but past that bit, is refused: the run's
  // blob could not carry it.
  auto ex = testing_util::MakeRunningExample();
  ASSERT_GT(ex.spec.graph().num_vertices(), 2u);
  auto store = ProvenanceStore::Capture(
      std::vector<RunLabel>(4, RunLabel{1, 1, 1, 0}), nullptr, "TCM");
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store->packing().o_bits(), 1);
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(service->ImportRun(store->Serialize()).ok());
  auto bytes = service->SnapshotBytes();
  ASSERT_TRUE(bytes.ok());
  TempFile file("origin_past_its_width");
  const int shift = 3 * store->packing().q_bits();
  WriteEdited(std::move(bytes).value(), file.path(),
              [shift](uint32_t section, std::vector<uint8_t>& payload) {
                if (section != kSnapshotSectionColumns) return;
                // LABELS starts at the first 64-byte boundary past the
                // 16-byte header; its first word is little-endian.
                payload[kSnapshotSectionAlignment + shift / 8] |=
                    static_cast<uint8_t>(2 << (shift % 8));
              });
  ExpectBothLoadersRefuse(file.path(), "wider than its");
}

TEST(SnapshotTest, EpochThatDoesNotReplayIsRefusedOnLoad) {
  // The chain's third epoch is rewritten to an AddEdge that closes a cycle:
  // epoch 2 replays, epoch 3 cannot, and both loaders name it.
  auto service = testing_util::PinnedHistoryService();
  ASSERT_EQ(service.spec_epoch(), 3u);
  auto bytes = service.SnapshotBytes();
  ASSERT_TRUE(bytes.ok());
  SpecDelta grafted;
  grafted.kind = SpecDelta::Kind::kAddModule;
  grafted.module = "audit";
  grafted.from = {"a"};
  grafted.to = {"h"};
  SpecDelta cycle;
  cycle.kind = SpecDelta::Kind::kAddEdge;
  cycle.edge_from = "h";
  cycle.edge_to = "a";
  TempFile file("epoch_does_not_replay");
  WriteEdited(std::move(bytes).value(), file.path(),
              [&](uint32_t section, std::vector<uint8_t>& payload) {
                if (section != kSnapshotSectionEpochs) return;
                BitWriter chain;
                chain.WriteVarint(3);
                uint64_t number = 2;
                for (const SpecDelta* delta : {&grafted, &cycle}) {
                  const std::vector<uint8_t> blob = SerializeSpecDelta(*delta);
                  chain.WriteVarint(number++);
                  chain.WriteVarint(blob.size());
                  chain.WriteBytes(blob);
                }
                payload = chain.Finish();
              });
  ExpectBothLoadersRefuse(
      file.path(),
      "snapshot epoch 3 does not replay: spec delta AddEdge rejected: graph "
      "has a cycle");
}

TEST(SnapshotTest, LongEpochChainReplaysThroughBothLoaders) {
  // A 200-delta chain: a kept graft (a source -> keep -> sink module), 99
  // graft/ungraft pairs of par<i>, and a last graft, with runs frozen to
  // six epochs along it. A load replays the whole chain and must answer
  // like the live service.
  auto created = ProvenanceService::Create(
      testing_util::MakeRunningExample().spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(created.ok());
  ProvenanceService& live = *created;
  uint64_t seed = 70;
  const auto add_run = [&] {
    ASSERT_TRUE(live.AddRun(GenerateRun(live.spec(), 40, ++seed)).ok());
  };
  const auto graft = [](const std::string& module) {
    SpecDelta delta;
    delta.kind = SpecDelta::Kind::kAddModule;
    delta.module = module;
    delta.from = {"a"};
    delta.to = {"h"};
    return delta;
  };
  add_run();
  constexpr int kDeltas = 200;
  for (int i = 0; i < kDeltas; ++i) {
    SpecDelta delta;
    if (i == 0) {
      delta = graft("keep");
    } else if (i == kDeltas - 1) {
      delta = graft("last");
    } else if (i % 2 == 1) {
      delta = graft("par" + std::to_string(i / 2));
    } else {
      delta.kind = SpecDelta::Kind::kRemoveModule;
      delta.module = "par" + std::to_string(i / 2 - 1);
    }
    auto applied = live.ApplySpecDelta(delta);
    ASSERT_TRUE(applied.ok()) << i << ": " << applied.status().ToString();
    if (i == 0 || i == 50 || i == 120 || i == 150 || i == kDeltas - 1) {
      add_run();
    }
  }
  ASSERT_EQ(live.spec_epoch(), 1u + kDeltas);
  TempFile file("long_epoch_chain");
  ASSERT_TRUE(live.SaveSnapshot(file.path()).ok());
  for (bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap load" : "copying load");
    auto loaded = ProvenanceService::LoadSnapshot(file.path(), {},
                                                  {.use_mmap = use_mmap});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->spec_epoch(), live.spec_epoch());
    EXPECT_EQ(WriteSpecificationXml(loaded->spec()),
              WriteSpecificationXml(live.spec()));
    ExpectSameAnswers(live, *loaded);
  }
}

TEST(SnapshotTest, TrailingBytesAreRejected) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("trailing");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  std::vector<uint8_t> bytes = ReadAll(file.path());
  bytes.push_back('X');  // a torn second write / concatenated snapshot
  WriteAll(file.path(), bytes);
  auto restored = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("trailing bytes"),
            std::string::npos)
      << restored.status().ToString();
}

TEST(SnapshotTest, CorruptedPayloadFailsTheChecksum) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(service->AddRun(ex.run).ok());
  TempFile file("checksum");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  const std::vector<uint8_t> original = ReadAll(file.path());

  // Flip one byte in the last section's payload (the run registry): the
  // checksum must catch it before any registry bytes are interpreted.
  std::vector<uint8_t> corrupted = original;
  corrupted[corrupted.size() - 1] ^= 0x01;
  WriteAll(file.path(), corrupted);
  auto restored = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("checksum mismatch"),
            std::string::npos)
      << restored.status().ToString();
}

TEST(SnapshotTest, CustomSchemeIsNotSnapshotable) {
  class CustomScheme : public SpecLabelingScheme {
   public:
    std::string_view name() const override { return "custom-test"; }
    Status Build(const Digraph&) override { return Status::OK(); }
    bool Reaches(VertexId u, VertexId v) const override { return u == v; }
    size_t TotalLabelBits() const override { return 0; }
    size_t MaxLabelBits() const override { return 0; }
  };
  auto ex = testing_util::MakeRunningExample();
  auto service = ProvenanceService::Create(std::move(ex.spec),
                                           std::make_unique<CustomScheme>());
  ASSERT_TRUE(service.ok());
  TempFile file("custom");
  Status saved = service->SaveSnapshot(file.path());
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------- container plumbing --

TEST(SnapshotReaderTest, EmptyInputIsTruncated) {
  auto parsed = SnapshotReader::Parse({});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(SnapshotReaderTest, HugeSectionCountIsParseErrorNotBadAlloc) {
  // Crafted header claiming ~2^61 sections: must come back as a truncation
  // ParseError, not attempt the allocation (the reserve is capped by what
  // the file could physically hold).
  std::vector<uint8_t> bytes = {'S', 'K', 'L', 'S', 0x01};
  for (int i = 0; i < 8; ++i) bytes.push_back(0xFF);  // varint count
  bytes.push_back(0x1F);
  auto parsed = SnapshotReader::Parse(std::move(bytes));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(SnapshotReaderTest, SectionsRoundTripInMemory) {
  SnapshotWriter writer;
  writer.AddSection(7, {0xDE, 0xAD});
  writer.AddSection(9, {});
  writer.AddSection(11, std::vector<uint8_t>(300, 0x42));
  auto parsed = SnapshotReader::Parse(std::move(writer).Finish());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_sections(), 3u);
  EXPECT_TRUE(parsed->Has(7));
  EXPECT_FALSE(parsed->Has(8));
  auto section = parsed->Section(7);
  ASSERT_TRUE(section.ok());
  ASSERT_EQ(section->size(), 2u);
  EXPECT_EQ((*section)[0], 0xDE);
  auto empty = parsed->Section(9);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
  auto missing = parsed->Section(8);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotReaderTest, SaveLeavesNoTmpFileBehind) {
  auto ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("tmpfile");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  EXPECT_TRUE(std::filesystem::exists(file.path()));
  EXPECT_TRUE(file.TmpSiblings().empty());
}

}  // namespace
}  // namespace skl
