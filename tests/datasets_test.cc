#include <gtest/gtest.h>

#include <set>

#include "core/database.h"
#include "datasets/augment.h"
#include "datasets/generators.h"
#include "image/editor.h"

namespace mmdb {
namespace {

using datasets::DatasetKind;
using datasets::DatasetSpec;

TEST(GeneratorsTest, DeterministicFromSeed) {
  Rng a(5), b(5);
  const auto flags_a = datasets::MakeFlagImages(10, a);
  const auto flags_b = datasets::MakeFlagImages(10, b);
  ASSERT_EQ(flags_a.size(), flags_b.size());
  for (size_t i = 0; i < flags_a.size(); ++i) {
    EXPECT_EQ(flags_a[i].image, flags_b[i].image);
    EXPECT_EQ(flags_a[i].label, flags_b[i].label);
  }
}

TEST(GeneratorsTest, RequestedCountsAndDimensions) {
  Rng rng(6);
  const auto flags = datasets::MakeFlagImages(7, rng, 60, 40);
  EXPECT_EQ(flags.size(), 7u);
  for (const auto& flag : flags) {
    EXPECT_EQ(flag.image.width(), 60);
    EXPECT_EQ(flag.image.height(), 40);
  }
  const auto helmets = datasets::MakeHelmetImages(5, rng, 48);
  EXPECT_EQ(helmets.size(), 5u);
  const auto signs = datasets::MakeRoadSignImages(5, rng, 48);
  EXPECT_EQ(signs.size(), 5u);
}

TEST(GeneratorsTest, ImagesUsePaletteColorsHeavily) {
  // The datasets' defining property: most pixels are saturated palette
  // colors, so histogram bins discriminate.
  Rng rng(8);
  const ColorQuantizer quantizer(4);
  for (const auto& generated : datasets::MakeFlagImages(12, rng)) {
    int64_t palette_pixels = 0;
    for (const Rgb& color : datasets::FlagPalette()) {
      palette_pixels += generated.image.CountColor(color);
    }
    EXPECT_GE(palette_pixels, generated.image.PixelCount() * 9 / 10)
        << generated.label;
  }
}

TEST(GeneratorsTest, LabelsDescribeDesigns) {
  Rng rng(9);
  std::set<std::string> labels;
  for (const auto& generated : datasets::MakeFlagImages(40, rng)) {
    labels.insert(generated.label);
  }
  EXPECT_GE(labels.size(), 3u);  // Several designs appear in 40 draws.
}

TEST(AugmentTest, WideningScriptsContainOnlyWideningOps) {
  Rng rng(10);
  for (int trial = 0; trial < 40; ++trial) {
    const EditScript script = datasets::MakeRandomScript(
        1, 60, 40, /*all_widening=*/true, 6, datasets::FlagPalette(), {},
        rng);
    EXPECT_TRUE(RuleEngine::IsAllBoundWidening(script))
        << script.ToString();
    EXPECT_GE(script.ops.size(), 6u);
  }
}

TEST(AugmentTest, NonWideningScriptsContainAMergeTarget) {
  Rng rng(11);
  const std::vector<datasets::MergeTarget> targets = {{5, 60, 40}};
  int non_widening = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const EditScript script = datasets::MakeRandomScript(
        1, 60, 40, /*all_widening=*/false, 6, datasets::FlagPalette(),
        targets, rng);
    if (!RuleEngine::IsAllBoundWidening(script)) ++non_widening;
  }
  EXPECT_EQ(non_widening, 40);
}

TEST(AugmentTest, GeneratedScriptsAlwaysInstantiate) {
  // Validity property: every produced script must execute without error.
  auto db = MultimediaDatabase::Open().value();
  DatasetSpec spec;
  spec.kind = DatasetKind::kHelmets;
  spec.total_images = 40;
  spec.edited_fraction = 0.75;
  spec.seed = 12;
  const auto stats = datasets::BuildAugmentedDatabase(db.get(), spec);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (ObjectId id : stats->edited_ids) {
    const auto image = db->GetImage(id);
    EXPECT_TRUE(image.ok())
        << id << ": " << image.status().ToString() << "\n"
        << db->collection().FindEdited(id)->script.ToString();
  }
}

TEST(AugmentTest, BuildMatchesSpecShape) {
  auto db = MultimediaDatabase::Open().value();
  DatasetSpec spec;
  spec.kind = DatasetKind::kFlags;
  spec.total_images = 100;
  spec.edited_fraction = 0.8;
  spec.widening_probability = 0.5;
  spec.min_ops = 4;
  spec.max_ops = 8;
  spec.seed = 13;
  const auto stats = datasets::BuildAugmentedDatabase(db.get(), spec);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->binary_ids.size(), 20u);
  EXPECT_EQ(stats->edited_ids.size(), 80u);
  EXPECT_EQ(stats->widening_only + stats->non_widening, 80);
  // ~50% widening with generous slack for 80 draws.
  EXPECT_GT(stats->widening_only, 20);
  EXPECT_GT(stats->non_widening, 20);
  EXPECT_GE(stats->AvgOpsPerEdited(), 4.0);
  EXPECT_LE(stats->AvgOpsPerEdited(), 9.0);
  // Figure 1 classified exactly the widening-only scripts into Main.
  EXPECT_EQ(db->collection().MainEditedCount(),
            static_cast<size_t>(stats->widening_only));
  EXPECT_EQ(db->collection().unclassified().size(),
            static_cast<size_t>(stats->non_widening));
}

TEST(AugmentTest, RejectsBadSpecs) {
  auto db = MultimediaDatabase::Open().value();
  DatasetSpec spec;
  spec.total_images = 0;
  EXPECT_EQ(datasets::BuildAugmentedDatabase(db.get(), spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.total_images = 10;
  spec.edited_fraction = 1.0;
  EXPECT_EQ(datasets::BuildAugmentedDatabase(db.get(), spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AugmentTest, WorkloadTargetsPaletteBins) {
  const ColorQuantizer quantizer(4);
  Rng rng(14);
  const auto palette = datasets::FlagPalette();
  std::set<BinIndex> palette_bins;
  for (const Rgb& color : palette) palette_bins.insert(quantizer.BinOf(color));
  const auto workload =
      datasets::MakeRangeWorkload(quantizer, palette, 50, rng);
  EXPECT_EQ(workload.size(), 50u);
  for (const RangeQuery& query : workload) {
    EXPECT_TRUE(palette_bins.count(query.bin));
    EXPECT_GE(query.min_fraction, 0.0);
    EXPECT_LE(query.max_fraction, 1.0);
    EXPECT_LT(query.min_fraction, query.max_fraction);
  }
}

}  // namespace
}  // namespace mmdb
