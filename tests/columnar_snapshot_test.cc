// The columnar snapshot format and its mmap zero-copy loader, proven
// differentially: for every bundled scheme, a service restored from a
// columnar snapshot (through the copying reader AND through the mapped
// reader) must answer bit-identically to the never-persisted original —
// module reachability and item-level dependency, single and batch. Plus
// the failure battery the container owes every new section:
// byte-exhaustive truncation and single-bit-flip fuzz through both
// loaders, trailing-byte rejection in the run index, scheme-tag mismatch
// rejection, the SKL_NO_MMAP fallback, and the mapping-outlives-the-
// directory-entry contract. Also the one stored-run path: copies of a
// captured, deserialized or mapped store share its columns, and one
// defective store is refused by every way into the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bit_codec.h"
#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/core/provenance_store.h"
#include "src/core/skeleton_labeler.h"
#include "src/io/snapshot.h"
#include "src/replication/replicator.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(PidQualifiedTempPath("skl_columnar_test_" + name, ".skls")) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using testing_util::ReadAll;
using testing_util::WriteAll;
using testing_util::GenerateRun;
using testing_util::ExpectSameAnswers;

/// Builds a service with two generated runs (one with a data catalog) and
/// returns it, for a given scheme over the running-example spec.
Result<ProvenanceService> BuildService(SpecSchemeKind kind) {
  auto ex = testing_util::MakeRunningExample();
  ::skl::Run generated = GenerateRun(ex.spec, 50, 11);
  ::skl::Run with_data = GenerateRun(ex.spec, 60, 13);
  DataGenOptions dopt;
  dopt.seed = 7;
  DataCatalog catalog = GenerateDataCatalog(with_data, dopt);
  SKL_ASSIGN_OR_RETURN(ProvenanceService service,
                       ProvenanceService::Create(std::move(ex.spec), kind));
  SKL_RETURN_NOT_OK(service.AddRun(ex.run).status());
  SKL_RETURN_NOT_OK(service.AddRun(generated).status());
  SKL_RETURN_NOT_OK(service.AddRun(with_data, &catalog).status());
  return service;
}

// ----------------------------- differential vs the never-persisted original --

TEST(ColumnarSnapshotTest, BitIdenticalToBlobTwinEveryBundledScheme) {
  // kInterval requires a tree-shaped spec and is covered below.
  for (SpecSchemeKind kind :
       {SpecSchemeKind::kTcm, SpecSchemeKind::kBfs, SpecSchemeKind::kDfs,
        SpecSchemeKind::kTreeCover, SpecSchemeKind::kChain,
        SpecSchemeKind::kTwoHop}) {
    SCOPED_TRACE(SpecSchemeKindName(kind));
    auto service = BuildService(kind);
    ASSERT_TRUE(service.ok()) << service.status().ToString();

    TempFile file(std::string("twin_") + SpecSchemeKindName(kind));
    ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());

    // Columnar through the copying reader...
    auto copied = ProvenanceService::LoadSnapshot(file.path());
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    EXPECT_FALSE(copied->loaded_via_mmap());
    ExpectSameAnswers(*service, *copied);

    // ... and through the zero-copy mapped reader.
    auto mapped =
        ProvenanceService::LoadSnapshot(file.path(), {}, {.use_mmap = true});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ExpectSameAnswers(*service, *mapped);
  }
}

TEST(ColumnarSnapshotTest, BitIdenticalToBlobTwinIntervalScheme) {
  Specification spec = testing_util::MakeTreeSpec();
  ::skl::Run run = GenerateRun(spec, 30, 5);
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kInterval);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(service->AddRun(run).ok());

  TempFile file("interval");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto copied = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  ExpectSameAnswers(*service, *copied);
  auto mapped =
      ProvenanceService::LoadSnapshot(file.path(), {}, {.use_mmap = true});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectSameAnswers(*service, *mapped);
}

// ------------------------------------------------- mmap path and fallback --

TEST(ColumnarSnapshotTest, MmapLoadIsZeroCopyAndFallbacksAreNot) {
  auto service = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("mmap_modes");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());

  auto mapped =
      ProvenanceService::LoadSnapshot(file.path(), {}, {.use_mmap = true});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->loaded_via_mmap());

  auto copied = ProvenanceService::LoadSnapshot(file.path());
  ASSERT_TRUE(copied.ok());
  EXPECT_FALSE(copied->loaded_via_mmap());

  // SKL_NO_MMAP forces the copying reader even when mmap was requested —
  // the operational kill switch the CI fallback leg exercises.
  ::setenv("SKL_NO_MMAP", "1", 1);
  auto forced =
      ProvenanceService::LoadSnapshot(file.path(), {}, {.use_mmap = true});
  ::unsetenv("SKL_NO_MMAP");
  ASSERT_TRUE(forced.ok());
  EXPECT_FALSE(forced->loaded_via_mmap());
  ExpectSameAnswers(*mapped, *forced);
}

TEST(ColumnarSnapshotTest, MappedServiceSurvivesFileUnlink) {
  // The mapping outlives the directory entry (POSIX): deleting the
  // snapshot file must not invalidate a service whose runs view the map.
  // (Truncating the file in place WOULD — that contract is documented in
  // docs/PERSISTENCE.md and is why the loader CRC-sweeps eagerly.)
  auto service = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("unlink");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto mapped =
      ProvenanceService::LoadSnapshot(file.path(), {}, {.use_mmap = true});
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped->loaded_via_mmap());
  std::error_code ec;
  ASSERT_TRUE(std::filesystem::remove(file.path(), ec));
  ExpectSameAnswers(*service, *mapped);
}

// ------------------------------------------------------- failure battery --

TEST(ColumnarSnapshotTest, TruncationAtEveryPrefixBothLoaders) {
  auto service = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("trunc");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  const std::vector<uint8_t> bytes = ReadAll(file.path());
  ASSERT_GT(bytes.size(), 0u);

  TempFile cut("trunc_cut");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(cut.path(),
             std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    auto copied = ProvenanceService::LoadSnapshot(cut.path());
    ASSERT_FALSE(copied.ok()) << "prefix " << len;
    EXPECT_EQ(copied.status().code(), StatusCode::kParseError)
        << "prefix " << len << ": " << copied.status().ToString();
    // The torn-mmap case: a fresh map of the truncated file must fail with
    // the same diagnosis, never SIGBUS at query time.
    auto mapped =
        ProvenanceService::LoadSnapshot(cut.path(), {}, {.use_mmap = true});
    ASSERT_FALSE(mapped.ok()) << "mmap prefix " << len;
    EXPECT_EQ(mapped.status().code(), StatusCode::kParseError)
        << "mmap prefix " << len << ": " << mapped.status().ToString();
  }
}

TEST(ColumnarSnapshotTest, BitFlipFuzzBothLoaders) {
  auto service = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("flip");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  const std::vector<uint8_t> bytes = ReadAll(file.path());

  TempFile flipped("flip_out");
  for (size_t i = 0; i < bytes.size(); ++i) {
    // One flip per byte (rotating bit position) keeps the sweep
    // byte-exhaustive at an eighth of the full bit-exhaustive cost.
    std::vector<uint8_t> mutated = bytes;
    mutated[i] ^= static_cast<uint8_t>(1u << (i % 8));
    WriteAll(flipped.path(), mutated);
    // Every single-bit flip must be either DETECTED (clean Status — CRC-32
    // catches all single-bit payload errors, header damage parses into
    // missing/garbled sections) or PROVABLY HARMLESS: the one survivable
    // flip class is a pad section's id byte, which turns the pad into a
    // duplicate-id decoy that nothing reads — so a load that succeeds
    // must answer bit-identically to the uncorrupted original. Never a
    // crash, never a silently different registry.
    auto copied = ProvenanceService::LoadSnapshot(flipped.path());
    if (copied.ok()) ExpectSameAnswers(*service, *copied);
    auto mapped = ProvenanceService::LoadSnapshot(flipped.path(), {},
                                                  {.use_mmap = true});
    ASSERT_EQ(copied.ok(), mapped.ok()) << "byte " << i;
    if (mapped.ok()) ExpectSameAnswers(*service, *mapped);
  }
}

TEST(ColumnarSnapshotTest, RunIndexTrailingBytesAreRejected) {
  // A CRC-valid run index with bytes past the declared runs means a writer
  // bug; those runs must not vanish silently.
  auto service = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("index_trailing");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto reader = SnapshotReader::ReadFile(file.path());
  ASSERT_TRUE(reader.ok());
  SnapshotWriter writer;
  for (uint32_t id : {kSnapshotSectionSpec, kSnapshotSectionScheme,
                      kSnapshotSectionEpochs, kSnapshotSectionRunIndex,
                      kSnapshotSectionColumns}) {
    auto section = reader->Section(id);
    ASSERT_TRUE(section.ok());
    std::vector<uint8_t> payload(section->begin(), section->end());
    if (id == kSnapshotSectionRunIndex) payload.push_back(0x00);
    if (id == kSnapshotSectionColumns) {
      writer.AddAlignedSection(id, std::move(payload));
    } else {
      writer.AddSection(id, std::move(payload));
    }
  }
  TempFile tampered("index_trailing_tampered");
  ASSERT_TRUE(std::move(writer).WriteFile(tampered.path()).ok());
  auto restored = ProvenanceService::LoadSnapshot(tampered.path());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("run registry has trailing"),
            std::string::npos)
      << restored.status().ToString();
}

TEST(ColumnarSnapshotTest, SchemeTagMismatchIsRejected) {
  // Rewrite the scheme section to a different bundled scheme: the run
  // index's per-run tags now disagree with the service's scheme and the
  // load must refuse (the tag is what ties labels to the scheme that can
  // interpret them).
  auto service = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("tag_mismatch");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto reader = SnapshotReader::ReadFile(file.path());
  ASSERT_TRUE(reader.ok());
  SnapshotWriter writer;
  for (uint32_t id : {kSnapshotSectionSpec, kSnapshotSectionScheme,
                      kSnapshotSectionEpochs, kSnapshotSectionRunIndex,
                      kSnapshotSectionColumns}) {
    auto section = reader->Section(id);
    ASSERT_TRUE(section.ok());
    std::vector<uint8_t> payload(section->begin(), section->end());
    if (id == kSnapshotSectionScheme) {
      const std::string other = "BFS";
      payload.assign(other.begin(), other.end());
    }
    if (id == kSnapshotSectionColumns) {
      writer.AddAlignedSection(id, std::move(payload));
    } else {
      writer.AddSection(id, std::move(payload));
    }
  }
  TempFile tampered("tag_mismatch_tampered");
  ASSERT_TRUE(std::move(writer).WriteFile(tampered.path()).ok());
  auto restored = ProvenanceService::LoadSnapshot(tampered.path());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("was labeled under scheme"),
            std::string::npos)
      << restored.status().ToString();
}

TEST(ColumnarSnapshotTest, UnalignedColumnsStillDecode) {
  // Re-adding the columns payload as a plain (unaligned) section breaks
  // the zero-copy precondition but not the format: the loader's decode
  // path must restore an equivalent service from the same bytes.
  auto service = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("unaligned");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  auto reader = SnapshotReader::ReadFile(file.path());
  ASSERT_TRUE(reader.ok());
  SnapshotWriter writer;
  for (uint32_t id : {kSnapshotSectionSpec, kSnapshotSectionScheme,
                      kSnapshotSectionEpochs, kSnapshotSectionRunIndex,
                      kSnapshotSectionColumns}) {
    auto section = reader->Section(id);
    ASSERT_TRUE(section.ok());
    writer.AddSection(id,
                      std::vector<uint8_t>(section->begin(), section->end()));
  }
  TempFile rebuilt("unaligned_rebuilt");
  ASSERT_TRUE(std::move(writer).WriteFile(rebuilt.path()).ok());
  auto restored = ProvenanceService::LoadSnapshot(rebuilt.path());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameAnswers(*service, *restored);
}

TEST(ColumnarSnapshotTest, ImportRejectsBlobFromAnotherScheme) {
  // The blob-level half of the scheme-tag contract (the header-comment
  // admission fixed in provenance_store.h): an exported run carries its
  // scheme tag and a service under a different scheme refuses it.
  auto tcm = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(tcm.ok());
  auto ex = testing_util::MakeRunningExample();
  auto bfs =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kBfs);
  ASSERT_TRUE(bfs.ok());
  auto blob = tcm->ExportRun(tcm->ListRuns()[0]);
  ASSERT_TRUE(blob.ok());
  auto imported = bfs->ImportRun(*blob);
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("was labeled under scheme"),
            std::string::npos)
      << imported.status().ToString();
}

// ------------------------------------------------ one stored-run path --

/// Byte offsets of the four columns inside a columns-section payload (u64
/// LABELS, then u32 WRITERS, OFFSETS, READERS), from its totals header: the
/// geometry docs/PERSISTENCE.md specifies, re-derived independently of the
/// loader.
std::vector<size_t> ColumnOffsets(std::span<const uint8_t> cols) {
  uint32_t totals[4];
  std::memcpy(totals, cols.data(), sizeof(totals));
  std::vector<size_t> offsets;
  size_t off = 16;
  for (int c = 0; c < 4; ++c) {
    off = (off + kSnapshotSectionAlignment - 1) /
          kSnapshotSectionAlignment * kSnapshotSectionAlignment;
    offsets.push_back(off);
    off += (c == 0 ? 8 : 4) * size_t{totals[c]};
  }
  return offsets;
}

TEST(ColumnarSnapshotTest, StoreCopiesShareTheirColumns) {
  // A stored run is immutable, so a copy is a refcount bump on the same
  // columns — whichever way the store was built.
  const auto expect_shared = [](const ProvenanceStore& store) {
    const ProvenanceStore copy = store;
    EXPECT_EQ(copy.label_words().data(), store.label_words().data());
    EXPECT_EQ(copy.reader_offset_column().data(),
              store.reader_offset_column().data());
    EXPECT_EQ(copy.num_vertices(), store.num_vertices());
    EXPECT_EQ(copy.num_items(), store.num_items());
  };
  auto ex = testing_util::MakeRunningExample();
  SkeletonLabeler labeler(&ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(ex.run);
  ASSERT_TRUE(labeling.ok());
  auto capture = ProvenanceStore::Capture(*labeling);
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  const ProvenanceStore& captured = *capture;
  expect_shared(captured);
  auto deserialized = ProvenanceStore::Deserialize(captured.Serialize());
  ASSERT_TRUE(deserialized.ok());
  expect_shared(*deserialized);

  // Bound into a mapped snapshot the way the loader binds it: the first
  // run (the running example, no catalog) viewed in place.
  auto service = BuildService(SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  TempFile file("shared_columns");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());
  std::optional<ProvenanceStore> mapped_copy;
  {
    auto reader = SnapshotReader::MapFile(file.path());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_TRUE(reader->is_mapped());
    auto cols = reader->Section(kSnapshotSectionColumns);
    ASSERT_TRUE(cols.ok());
    const std::vector<size_t> at = ColumnOffsets(*cols);
    const size_t n = ex.run.num_vertices();
    const std::span<const uint64_t> labels(
        reinterpret_cast<const uint64_t*>(cols->data() + at[0]), n);
    const auto column = [&](int c, size_t count) {
      return std::span<const uint32_t>(
          reinterpret_cast<const uint32_t*>(cols->data() + at[c]), count);
    };
    auto mapped = ProvenanceStore::FromColumns(
        labels, captured.packing(), column(1, 0), column(2, 1), column(3, 0),
        "TCM", reader->backing());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(mapped->label_words().data(), labels.data());
    expect_shared(*mapped);
    mapped_copy = *mapped;
  }
  // The copy alone keeps the mapping alive after the reader is gone.
  ASSERT_EQ(mapped_copy->num_vertices(), captured.num_vertices());
  for (VertexId v = 0; v < captured.num_vertices(); ++v) {
    EXPECT_EQ(mapped_copy->label(v).q1, captured.label(v).q1);
    EXPECT_EQ(mapped_copy->label(v).origin, captured.label(v).origin);
  }
}

/// The two defects a stored run can carry past the blob and column
/// decoders, which only the service's admission check can see.
enum class Defect { kForeignSchemeTag, kOriginPastTheSpec };

/// Every column of a store, owned, for rebuilding it with a defect.
struct OwnedColumns {
  std::vector<uint64_t> labels;
  std::vector<uint32_t> writers, offsets, readers;
};

TEST(ColumnarSnapshotTest, DefectiveStoreIsRefusedOnEveryAdmissionPath) {
  // One service holding one catalogued run; that run, rebuilt with a
  // defect, must be refused by ImportRun and by a replicated AddRun
  // (InvalidArgument), and by a snapshot whose columns carry it
  // (ParseError).
  auto ex = testing_util::MakeRunningExample();
  const VertexId n_g = ex.spec.graph().num_vertices();
  ::skl::Run run = GenerateRun(ex.spec, 60, 13);
  DataGenOptions dopt;
  dopt.seed = 7;
  const DataCatalog catalog = GenerateDataCatalog(run, dopt);
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(run, &catalog);
  ASSERT_TRUE(id.ok());
  auto stats = service->Stats(*id);
  ASSERT_TRUE(stats.ok());
  auto exported = service->ExportRun(*id);
  ASSERT_TRUE(exported.ok());
  auto good = ProvenanceStore::Deserialize(*exported);
  ASSERT_TRUE(good.ok());
  ASSERT_EQ(good->scheme_tag(), "TCM");
  ASSERT_GT(good->num_items(), 0u);
  TempFile file("admission");
  ASSERT_TRUE(service->SaveSnapshot(file.path()).ok());

  for (Defect defect :
       {Defect::kForeignSchemeTag, Defect::kOriginPastTheSpec}) {
    const bool foreign = defect == Defect::kForeignSchemeTag;
    SCOPED_TRACE(foreign ? "foreign scheme tag" : "origin past the spec");
    const char* refusal =
        foreign ? "was labeled under scheme" : "references spec vertex";
    // Widths that hold the defective origin n_G, the context fields where
    // the good store keeps them.
    auto packing = LabelPacking::Make(
        good->packing().q_bits(),
        std::max(good->packing().o_bits(), BitsForCount(n_g + 2)));
    ASSERT_TRUE(packing.ok());
    auto cols = std::make_shared<OwnedColumns>();
    for (VertexId v = 0; v < good->num_vertices(); ++v) {
      RunLabel label = good->label(v);
      if (!foreign && v == 0) label.origin = n_g;
      cols->labels.push_back(packing->Pack(label));
    }
    cols->offsets.push_back(0);
    for (DataItemId x = 0; x < good->num_items(); ++x) {
      cols->writers.push_back(good->item_writer(x));
      for (VertexId r : good->item_readers(x)) cols->readers.push_back(r);
      cols->offsets.push_back(static_cast<uint32_t>(cols->readers.size()));
    }
    auto defective = ProvenanceStore::FromColumns(
        cols->labels, *packing, cols->writers, cols->offsets, cols->readers,
        foreign ? "BFS" : "TCM", cols);
    ASSERT_TRUE(defective.ok()) << defective.status().ToString();
    const std::vector<uint8_t> blob = defective->Serialize();

    auto imported = service->ImportRun(blob);
    EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(imported.status().message().find(refusal), std::string::npos)
        << imported.status().ToString();

    LogOp op;
    op.kind = LogOp::Kind::kAddRun;
    op.run_id = 1000;
    op.stats = *stats;
    op.blob = blob;
    Status restored = ApplyLogOp(*service, op);
    EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(restored.message().find(refusal), std::string::npos)
        << restored.ToString();
    EXPECT_FALSE(service->Contains(RunId::FromValue(1000)));

    // The saved snapshot, with its one run's tag and LABELS column
    // replaced by the defective store's.
    auto reader = SnapshotReader::ReadFile(file.path());
    ASSERT_TRUE(reader.ok());
    SnapshotWriter writer;
    for (uint32_t section : {kSnapshotSectionSpec, kSnapshotSectionScheme,
                             kSnapshotSectionEpochs, kSnapshotSectionRunIndex,
                             kSnapshotSectionColumns}) {
      auto bytes = reader->Section(section);
      ASSERT_TRUE(bytes.ok());
      std::vector<uint8_t> payload(bytes->begin(), bytes->end());
      if (section == kSnapshotSectionRunIndex) {
        // The run's scheme tag is the last field of the index.
        const std::string& tag = defective->scheme_tag();
        ASSERT_EQ(tag.size(), good->scheme_tag().size());
        std::copy(tag.begin(), tag.end(), payload.end() - tag.size());
        writer.AddSection(section, std::move(payload));
      } else if (section == kSnapshotSectionColumns) {
        const size_t labels_at = ColumnOffsets(payload)[0];
        std::memcpy(payload.data() + labels_at, cols->labels.data(),
                    8 * cols->labels.size());
        writer.AddAlignedSection(section, std::move(payload));
      } else {
        writer.AddSection(section, std::move(payload));
      }
    }
    TempFile tampered("admission_tampered");
    ASSERT_TRUE(std::move(writer).WriteFile(tampered.path()).ok());
    for (bool use_mmap : {false, true}) {
      auto loaded = ProvenanceService::LoadSnapshot(tampered.path(), {},
                                                    {.use_mmap = use_mmap});
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
      EXPECT_NE(loaded.status().message().find(refusal), std::string::npos)
          << loaded.status().ToString();
    }
  }
}

}  // namespace
}  // namespace skl
