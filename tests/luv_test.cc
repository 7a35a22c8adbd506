#include <gtest/gtest.h>

#include "core/database.h"
#include "core/quantizer.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::AsSet;
using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

TEST(LuvConversionTest, ReferenceValues) {
  // White: L = 100, u = v = 0.
  const Luv white = RgbToLuv(Rgb(255, 255, 255));
  EXPECT_NEAR(white.l, 100.0, 0.1);
  EXPECT_NEAR(white.u, 0.0, 0.2);
  EXPECT_NEAR(white.v, 0.0, 0.2);
  // Black: everything 0.
  const Luv black = RgbToLuv(Rgb(0, 0, 0));
  EXPECT_NEAR(black.l, 0.0, 1e-9);
  // sRGB red: L ~ 53.2, u ~ 175.0, v ~ 37.8 (standard tables).
  const Luv red = RgbToLuv(Rgb(255, 0, 0));
  EXPECT_NEAR(red.l, 53.2, 0.5);
  EXPECT_NEAR(red.u, 175.0, 1.5);
  EXPECT_NEAR(red.v, 37.8, 1.0);
}

TEST(LuvConversionTest, GreysHaveZeroChromaticity) {
  for (uint8_t v : {32, 96, 160, 224}) {
    const Luv grey = RgbToLuv(Rgb(v, v, v));
    EXPECT_NEAR(grey.u, 0.0, 0.3) << static_cast<int>(v);
    EXPECT_NEAR(grey.v, 0.0, 0.3) << static_cast<int>(v);
  }
}

TEST(LuvConversionTest, LightnessIsMonotoneInGrey) {
  double prev = -1.0;
  for (int v = 0; v <= 255; v += 15) {
    const double l = RgbToLuv(Rgb(static_cast<uint8_t>(v),
                                  static_cast<uint8_t>(v),
                                  static_cast<uint8_t>(v)))
                         .l;
    EXPECT_GT(l, prev);
    prev = l;
  }
}

TEST(LuvConversionTest, RoundTripIsNearlyLossless) {
  Rng rng(907);
  for (int trial = 0; trial < 300; ++trial) {
    const Rgb original(static_cast<uint8_t>(rng.Uniform(256)),
                       static_cast<uint8_t>(rng.Uniform(256)),
                       static_cast<uint8_t>(rng.Uniform(256)));
    const Rgb round = LuvToRgb(RgbToLuv(original));
    EXPECT_NEAR(round.r, original.r, 2);
    EXPECT_NEAR(round.g, original.g, 2);
    EXPECT_NEAR(round.b, original.b, 2);
  }
}

TEST(LuvConversionTest, RangesStayInQuantizationWindow) {
  Rng rng(911);
  for (int trial = 0; trial < 1000; ++trial) {
    const Luv luv = RgbToLuv(Rgb(static_cast<uint8_t>(rng.Uniform(256)),
                                 static_cast<uint8_t>(rng.Uniform(256)),
                                 static_cast<uint8_t>(rng.Uniform(256))));
    EXPECT_GE(luv.l, 0.0);
    EXPECT_LE(luv.l, 100.0 + 1e-9);
    EXPECT_GE(luv.u, -134.0);
    EXPECT_LE(luv.u, 220.0);
    EXPECT_GE(luv.v, -140.0);
    EXPECT_LE(luv.v, 122.0);
  }
}

TEST(LuvQuantizerTest, BinsInRangeAndDiscriminative) {
  const ColorQuantizer luv(4, ColorSpace::kLuv);
  Rng rng(913);
  for (int i = 0; i < 1000; ++i) {
    const BinIndex bin =
        luv.BinOf(Rgb(static_cast<uint8_t>(rng.Uniform(256)),
                      static_cast<uint8_t>(rng.Uniform(256)),
                      static_cast<uint8_t>(rng.Uniform(256))));
    EXPECT_GE(bin, 0);
    EXPECT_LT(bin, luv.BinCount());
  }
  // Primaries separate.
  EXPECT_NE(luv.BinOf(Rgb(255, 0, 0)), luv.BinOf(Rgb(0, 255, 0)));
  EXPECT_NE(luv.BinOf(Rgb(0, 255, 0)), luv.BinOf(Rgb(0, 0, 255)));
  // Black and white separate on lightness.
  EXPECT_NE(luv.BinOf(Rgb(0, 0, 0)), luv.BinOf(Rgb(255, 255, 255)));
}

TEST(LuvQuantizerTest, SmallPerturbationsMostlyStayInBin) {
  // Not every neighbor shares a bin (cell boundaries exist), but tiny
  // perturbations should usually stay put under a coarse quantizer.
  const ColorQuantizer luv(3, ColorSpace::kLuv);
  Rng rng(929);
  int same = 0, total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Rgb color(static_cast<uint8_t>(rng.UniformInt(4, 251)),
                    static_cast<uint8_t>(rng.UniformInt(4, 251)),
                    static_cast<uint8_t>(rng.UniformInt(4, 251)));
    const Rgb nudged(
        static_cast<uint8_t>(color.r + rng.UniformInt(-3, 3)),
        static_cast<uint8_t>(color.g + rng.UniformInt(-3, 3)),
        static_cast<uint8_t>(color.b + rng.UniformInt(-3, 3)));
    ++total;
    if (luv.BinOf(color) == luv.BinOf(nudged)) ++same;
  }
  EXPECT_GT(static_cast<double>(same) / total, 0.6);
}

TEST(LuvDatabaseTest, MethodsAgreeUnderLuv) {
  DatabaseOptions options;
  options.color_space = ColorSpace::kLuv;
  auto db = MultimediaDatabase::Open(options).value();
  EXPECT_EQ(db->quantizer().space(), ColorSpace::kLuv);
  datasets::DatasetSpec spec;
  spec.total_images = 24;
  spec.edited_fraction = 0.7;
  spec.seed = 917;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  Rng rng(919);
  for (const RangeQuery& query : datasets::MakeRangeWorkload(
           db->quantizer(), datasets::FlagPalette(), 6, rng)) {
    const auto exact =
        db->RunRange(query, QueryMethod::kInstantiate).value();
    const auto rbm = db->RunRange(query, QueryMethod::kRbm).value();
    const auto bwm = db->RunRange(query, QueryMethod::kBwm).value();
    EXPECT_EQ(AsSet(rbm.ids), AsSet(bwm.ids));
    const auto rbm_set = AsSet(rbm.ids);
    for (ObjectId id : exact.ids) {
      EXPECT_TRUE(rbm_set.count(id));
    }
  }
  EXPECT_TRUE(db->VerifyIntegrity(/*deep_pixels=*/true).ok());
}

TEST(LuvDatabaseTest, LuvPersistsAcrossReopen) {
  const std::string path = TempPath("mmdb_luv_test.db");
  RemoveStoreFiles(path);
  {
    DatabaseOptions options;
    options.path = path;
    options.color_space = ColorSpace::kLuv;
    auto db = MultimediaDatabase::Open(options).value();
    ASSERT_TRUE(db->InsertBinaryImage(Image(4, 4, colors::kGold)).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  EXPECT_EQ(db->quantizer().space(), ColorSpace::kLuv);
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
