// Tests for bit-exact label serialization: round trips, width accounting
// against the Lemma 4.7 bound, and corrupt-input handling.
#include <gtest/gtest.h>

#include "src/core/label_codec.h"
#include "src/core/skeleton_labeler.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

TEST(LabelCodecTest, RoundTripRunningExample) {
  auto ex = testing_util::MakeRunningExample();
  SkeletonLabeler labeler(&ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(ex.run);
  ASSERT_TRUE(labeling.ok());

  EncodedLabels encoded = EncodeLabels(*labeling);
  EXPECT_EQ(encoded.num_labels, ex.run.num_vertices());
  EXPECT_EQ(encoded.bits_per_label, labeling->label_bits());

  auto decoded = DecodeLabels(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), ex.run.num_vertices());
  for (VertexId v = 0; v < ex.run.num_vertices(); ++v) {
    const RunLabel& a = labeling->label(v);
    const RunLabel& b = (*decoded)[v];
    EXPECT_EQ(a.q1, b.q1);
    EXPECT_EQ(a.q2, b.q2);
    EXPECT_EQ(a.q3, b.q3);
    EXPECT_EQ(a.origin, b.origin);
  }
}

TEST(LabelCodecTest, DecodedLabelsAnswerQueries) {
  auto ex = testing_util::MakeRunningExample();
  SkeletonLabeler labeler(&ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(ex.run);
  ASSERT_TRUE(labeling.ok());
  auto decoded = DecodeLabels(EncodeLabels(*labeling));
  ASSERT_TRUE(decoded.ok());
  for (VertexId u = 0; u < ex.run.num_vertices(); ++u) {
    for (VertexId v = 0; v < ex.run.num_vertices(); ++v) {
      EXPECT_EQ(RunLabeling::Decide((*decoded)[u], (*decoded)[v],
                                    labeler.scheme()),
                labeling->Reaches(u, v));
    }
  }
}

TEST(LabelCodecTest, StorageMatchesTheoreticalWidth) {
  auto ex = testing_util::MakeRunningExample();
  SkeletonLabeler labeler(&ex.spec, SpecSchemeKind::kBfs);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(ex.run);
  ASSERT_TRUE(labeling.ok());
  EncodedLabels encoded = EncodeLabels(*labeling);
  // Header (3 varints <= 5 bytes here) + ceil(n * bits / 8).
  size_t payload_bits =
      static_cast<size_t>(encoded.num_labels) * encoded.bits_per_label;
  EXPECT_LE(encoded.bytes.size(), 5 + (payload_bits + 7) / 8 + 1);
}

TEST(LabelCodecTest, CorruptHeaderRejected) {
  std::vector<uint8_t> junk{0xff};
  EXPECT_FALSE(DecodeLabels(junk).ok());
  std::vector<uint8_t> empty;
  EXPECT_FALSE(DecodeLabels(empty).ok());
}

TEST(LabelCodecTest, TruncatedPayloadRejected) {
  auto ex = testing_util::MakeRunningExample();
  SkeletonLabeler labeler(&ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(ex.run);
  ASSERT_TRUE(labeling.ok());
  EncodedLabels encoded = EncodeLabels(*labeling);
  encoded.bytes.resize(encoded.bytes.size() / 2);
  EXPECT_FALSE(DecodeLabels(encoded).ok());
}

TEST(LabelCodecTest, LargeRunRoundTrip) {
  auto ex = testing_util::MakeRunningExample();
  RunGenerator generator(&ex.spec);
  RunGenOptions opt;
  opt.target_vertices = 2000;
  opt.seed = 99;
  auto gen = generator.Generate(opt);
  ASSERT_TRUE(gen.ok());
  SkeletonLabeler labeler(&ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(gen->run);
  ASSERT_TRUE(labeling.ok()) << labeling.status().ToString();
  auto decoded = DecodeLabels(EncodeLabels(*labeling));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), gen->run.num_vertices());
  for (VertexId v = 0; v < gen->run.num_vertices(); ++v) {
    EXPECT_EQ((*decoded)[v].q1, labeling->label(v).q1);
    EXPECT_EQ((*decoded)[v].origin, labeling->label(v).origin);
  }
}

TEST(LabelCodecTest, EncodedBytesArePinned) {
  // Label codec bytes of a seeded run, pinned by digest.
  auto ex = testing_util::MakeRunningExample();
  ::skl::Run run = testing_util::GenerateRun(ex.spec, 1500, 31);
  SkeletonLabeler labeler(&ex.spec, SpecSchemeKind::kTcm);
  ASSERT_TRUE(labeler.Init().ok());
  auto labeling = labeler.LabelRun(run);
  ASSERT_TRUE(labeling.ok()) << labeling.status().ToString();
  EncodedLabels encoded = EncodeLabels(*labeling);
  EXPECT_EQ(encoded.bytes.size(), 6287u);
  EXPECT_EQ(testing_util::Fnv1a(encoded.bytes.data(), encoded.bytes.size()),
            0x14b51e96752a4187ULL);
}

}  // namespace
}  // namespace skl
