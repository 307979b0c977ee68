// The columnar snapshot format and its mmap zero-copy loader, proven
// differentially: for every bundled scheme, a service restored from a
// columnar snapshot (through the copying reader AND through the mapped
// reader) must answer bit-identically to the never-persisted original —
// module reachability and item-level dependency, single and batch. Plus
// the failure battery the container owes every new section:
// byte-exhaustive truncation and single-bit-flip fuzz through both
// loaders, trailing-byte rejection in the run index, scheme-tag mismatch
// rejection, the SKL_NO_MMAP fallback, and the mapping-outlives-the-
// directory-entry contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/io/snapshot.h"
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

}  // namespace
}  // namespace skl
