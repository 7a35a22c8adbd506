#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "core/bounds.h"
#include "core/database.h"
#include "core/histogram.h"
#include "datasets/augment.h"
#include "image/editor.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::AsSet;
using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

TEST(HsvQuantizerTest, SpaceNames) {
  EXPECT_EQ(ColorSpaceName(ColorSpace::kRgb), "RGB");
  EXPECT_EQ(ColorSpaceName(ColorSpace::kHsv), "HSV");
}

TEST(HsvQuantizerTest, SeparatesHuesAtFullSaturation) {
  const ColorQuantizer hsv(4, ColorSpace::kHsv);
  const BinIndex red = hsv.BinOf(Rgb(255, 0, 0));      // h = 0.
  const BinIndex green = hsv.BinOf(Rgb(0, 255, 0));    // h = 120.
  const BinIndex blue = hsv.BinOf(Rgb(0, 0, 255));     // h = 240.
  EXPECT_NE(red, green);
  EXPECT_NE(green, blue);
  EXPECT_NE(red, blue);
}

TEST(HsvQuantizerTest, GroupsShadesOfOneHueAcrossValue) {
  // Unlike RGB, HSV with 2 value cells keeps a hue's bright shades
  // together even when RGB cells would split them.
  const ColorQuantizer hsv(2, ColorSpace::kHsv);
  const BinIndex bright_red = hsv.BinOf(Rgb(255, 0, 0));
  const BinIndex slightly_darker = hsv.BinOf(Rgb(200, 0, 0));
  EXPECT_EQ(bright_red, slightly_darker);  // Same hue/sat cell, v >= 0.5.
}

TEST(HsvQuantizerTest, GreysLandInLowSaturationCells) {
  const ColorQuantizer hsv(4, ColorSpace::kHsv);
  // s cell is the middle index: bin = (h*4 + s)*4 + v.
  auto s_cell = [&](Rgb c) { return (hsv.BinOf(c) / 4) % 4; };
  EXPECT_EQ(s_cell(Rgb(128, 128, 128)), 0);
  EXPECT_EQ(s_cell(Rgb(255, 255, 255)), 0);
  EXPECT_EQ(s_cell(Rgb(255, 0, 0)), 3);
}

TEST(HsvQuantizerTest, BinsInRangeForRandomColors) {
  const ColorQuantizer hsv(4, ColorSpace::kHsv);
  Rng rng(131);
  for (int i = 0; i < 2000; ++i) {
    const Rgb color(static_cast<uint8_t>(rng.Uniform(256)),
                    static_cast<uint8_t>(rng.Uniform(256)),
                    static_cast<uint8_t>(rng.Uniform(256)));
    const BinIndex bin = hsv.BinOf(color);
    EXPECT_GE(bin, 0);
    EXPECT_LT(bin, hsv.BinCount());
  }
}

TEST(HsvQuantizerTest, SaturatedBinCentersMapBack) {
  const ColorQuantizer hsv(4, ColorSpace::kHsv);
  for (int32_t h = 0; h < 4; ++h) {
    for (int32_t s = 2; s < 4; ++s) {    // Saturated cells only.
      for (int32_t v = 2; v < 4; ++v) {  // Bright cells only.
        const BinIndex bin = (h * 4 + s) * 4 + v;
        EXPECT_EQ(hsv.BinOf(hsv.BinCenter(bin)), bin) << bin;
      }
    }
  }
}

/// The soundness property must hold unchanged under an HSV quantizer —
/// the rules only consult BinOf, never the color space.
class HsvSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HsvSoundness, RuleBoundsContainExactCountsUnderHsv) {
  Rng rng(GetParam());
  const ColorQuantizer quantizer(4, ColorSpace::kHsv);
  const RuleEngine engine(quantizer);

  std::map<ObjectId, Image> pixels;
  AugmentedCollection collection;
  std::vector<datasets::MergeTarget> targets;
  for (int i = 0; i < 3; ++i) {
    const ObjectId id = static_cast<ObjectId>(10 + i);
    Image image = testing::RandomBlockImage(20, 16, 8, rng);
    BinaryImageInfo info;
    info.id = id;
    info.width = image.width();
    info.height = image.height();
    info.histogram = ExtractHistogram(image, quantizer);
    ASSERT_TRUE(collection.AddBinary(info).ok());
    targets.push_back({id, image.width(), image.height()});
    pixels.emplace(id, std::move(image));
  }
  const CollectionTargetResolver resolver(collection, engine);
  const Editor editor([&pixels](ObjectId id) -> Result<Image> {
    return pixels.at(id);
  });

  for (int trial = 0; trial < 6; ++trial) {
    const ObjectId base_id = targets[rng.Uniform(targets.size())].id;
    const BinaryImageInfo* base = collection.FindBinary(base_id);
    const EditScript script = testing::RandomScript(
        base_id, base->width, base->height,
        static_cast<int>(rng.UniformInt(1, 8)), targets, rng);
    const auto instantiated =
        editor.Instantiate(pixels.at(base_id), script);
    ASSERT_TRUE(instantiated.ok());
    const ColorHistogram exact = ExtractHistogram(*instantiated, quantizer);
    for (BinIndex bin = 0; bin < quantizer.BinCount(); bin += 3) {
      RuleState state;
      ASSERT_TRUE(FoldRules(engine, script, {bin}, base->histogram.counts(),
                            base->width, base->height, &resolver, &state)
                      .ok());
      EXPECT_LE(state.hb_min[0], exact.Count(bin)) << script.ToString();
      EXPECT_GE(state.hb_max[0], exact.Count(bin)) << script.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, HsvSoundness,
                         ::testing::Range(uint64_t{300}, uint64_t{308}));

TEST(HsvDatabaseTest, MethodsAgreeUnderHsv) {
  DatabaseOptions options;
  options.color_space = ColorSpace::kHsv;
  auto db = MultimediaDatabase::Open(options).value();
  EXPECT_EQ(db->quantizer().space(), ColorSpace::kHsv);
  datasets::DatasetSpec spec;
  spec.total_images = 30;
  spec.edited_fraction = 0.7;
  spec.seed = 311;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  Rng rng(313);
  for (const RangeQuery& query : datasets::MakeRangeWorkload(
           db->quantizer(), datasets::FlagPalette(), 8, rng)) {
    const auto rbm = db->RunRange(query, QueryMethod::kRbm).value();
    const auto bwm = db->RunRange(query, QueryMethod::kBwm).value();
    EXPECT_EQ(AsSet(rbm.ids), AsSet(bwm.ids));
  }
}

TEST(HsvDatabaseTest, ColorSpacePersistsAcrossReopen) {
  const std::string path = TempPath("mmdb_hsv_test.db");
  RemoveStoreFiles(path);
  {
    DatabaseOptions options;
    options.path = path;
    options.color_space = ColorSpace::kHsv;
    options.quantizer_divisions = 6;
    auto db = MultimediaDatabase::Open(options).value();
    ASSERT_TRUE(db->InsertBinaryImage(Image(4, 4, colors::kRed)).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  DatabaseOptions options;
  options.path = path;  // Defaults request RGB; persisted HSV must win.
  auto db = MultimediaDatabase::Open(options).value();
  EXPECT_EQ(db->quantizer().space(), ColorSpace::kHsv);
  EXPECT_EQ(db->quantizer().divisions(), 6);
  RemoveStoreFiles(path);
}

TEST(HsvDatabaseTest, MetaV1DecodesAsRgb) {
  // Backward compatibility: a version-1 meta record (no color byte).
  std::string v1;
  v1.push_back(1);  // version
  for (int i = 0; i < 8; ++i) v1.push_back(i == 0 ? 9 : 0);   // next_id 9
  for (int i = 0; i < 4; ++i) v1.push_back(i == 0 ? 4 : 0);   // divisions 4
  const auto meta = DecodeCatalogMeta(v1);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->color_space, 0);
  EXPECT_EQ(meta->next_id, 9u);
}

}  // namespace
}  // namespace mmdb
