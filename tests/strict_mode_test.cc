// Establishes where the paper's verbatim Table 1 rules
// (`RuleOptions::paper_strict`) are themselves sound: scripts restricted
// to Define / Modify / Merge(NULL) / integer translations / integer
// whole-image scales. Outside that domain (blur, arbitrary rotations,
// fractional scales) only the repo's default sound mode guarantees
// containment — rules_test.cc and bounds_property_test.cc cover that.

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/histogram.h"
#include "image/editor.h"
#include "test_util.h"

namespace mmdb {
namespace {

/// A random script drawn only from the paper-exact operation domain.
EditScript StrictDomainScript(ObjectId base_id, int32_t width,
                              int32_t height, int op_count, Rng& rng) {
  EditScript script;
  script.base_id = base_id;
  const std::vector<Rgb> palette = mmdb::testing::TestPalette();
  int32_t cur_w = width, cur_h = height;
  Rect dr = Rect::Full(cur_w, cur_h);
  while (static_cast<int>(script.ops.size()) < op_count) {
    switch (rng.Uniform(5)) {
      case 0: {
        const int32_t w = static_cast<int32_t>(rng.UniformInt(1, cur_w));
        const int32_t h = static_cast<int32_t>(rng.UniformInt(1, cur_h));
        const int32_t x = static_cast<int32_t>(rng.UniformInt(0, cur_w - w));
        const int32_t y = static_cast<int32_t>(rng.UniformInt(0, cur_h - h));
        const DefineOp op{Rect(x, y, x + w, y + h)};
        dr = op.region;
        script.ops.emplace_back(op);
        break;
      }
      case 1: {
        ModifyOp op;
        op.old_color = palette[rng.Uniform(palette.size())];
        op.new_color = palette[rng.Uniform(palette.size())];
        script.ops.emplace_back(op);
        break;
      }
      case 2:  // Integer translation (rigid body, exact rasterization).
        script.ops.emplace_back(MutateOp::Translation(
            static_cast<double>(rng.UniformInt(-cur_w / 2, cur_w / 2)),
            static_cast<double>(rng.UniformInt(-cur_h / 2, cur_h / 2))));
        break;
      case 3: {  // Integer whole-image upscale.
        if (cur_w > 60 || cur_h > 60) break;
        script.ops.emplace_back(DefineOp{Rect::Full(cur_w, cur_h)});
        script.ops.emplace_back(MutateOp::Scale(2.0, 2.0));
        cur_w *= 2;
        cur_h *= 2;
        dr = Rect::Full(cur_w, cur_h);
        break;
      }
      default: {  // Merge(NULL) crop.
        const Rect clipped = dr.Intersect(Rect::Full(cur_w, cur_h));
        if (clipped.Empty()) break;
        script.ops.emplace_back(MergeOp{});
        cur_w = clipped.Width();
        cur_h = clipped.Height();
        dr = Rect::Full(cur_w, cur_h);
        break;
      }
    }
  }
  return script;
}

class StrictModeSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrictModeSoundness, VerbatimTableOneIsSoundOnItsDomain) {
  Rng rng(GetParam());
  const ColorQuantizer quantizer(4);
  const RuleEngine strict(quantizer, RuleOptions{.paper_strict = true});
  const Editor editor;

  for (int trial = 0; trial < 8; ++trial) {
    const int32_t w = static_cast<int32_t>(rng.UniformInt(10, 30));
    const int32_t h = static_cast<int32_t>(rng.UniformInt(10, 30));
    const Image base = mmdb::testing::RandomBlockImage(w, h, 8, rng);
    const ColorHistogram base_hist = ExtractHistogram(base, quantizer);
    const EditScript script = StrictDomainScript(
        1, w, h, static_cast<int>(rng.UniformInt(1, 8)), rng);

    const auto instantiated = editor.Instantiate(base, script);
    ASSERT_TRUE(instantiated.ok()) << script.ToString();
    const ColorHistogram exact = ExtractHistogram(*instantiated, quantizer);

    for (BinIndex bin = 0; bin < quantizer.BinCount(); bin += 2) {
      RuleState state;
      ASSERT_TRUE(FoldRules(strict, script, {bin}, base_hist.counts(), w, h,
                            nullptr, &state)
                      .ok());
      EXPECT_LE(state.hb_min[0], exact.Count(bin))
          << "bin " << bin << "\n" << script.ToString();
      EXPECT_GE(state.hb_max[0], exact.Count(bin))
          << "bin " << bin << "\n" << script.ToString();
      EXPECT_EQ(state.size, instantiated->PixelCount());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, StrictModeSoundness,
                         ::testing::Range(uint64_t{500}, uint64_t{512}));

TEST(StrictModeTest, CombineIsTheDocumentedUnsoundness) {
  // The known counterexample motivating the default sound mode: blurring
  // a checkerboard empties its bins, which "no change" cannot admit.
  const ColorQuantizer quantizer(4);
  const RuleEngine strict(quantizer, RuleOptions{.paper_strict = true});
  Image checker(8, 8);
  for (int32_t y = 0; y < 8; ++y) {
    for (int32_t x = 0; x < 8; ++x) {
      checker.At(x, y) =
          ((x + y) % 2 == 0) ? colors::kBlack : colors::kWhite;
    }
  }
  const ColorHistogram base_hist = ExtractHistogram(checker, quantizer);
  const BinIndex black_bin = quantizer.BinOf(colors::kBlack);
  EditScript script;
  script.base_id = 1;
  script.ops.emplace_back(CombineOp::BoxBlur());

  const Editor editor;
  const ColorHistogram exact =
      ExtractHistogram(*editor.Instantiate(checker, script), quantizer);
  RuleState state;
  ASSERT_TRUE(FoldRules(strict, script, {black_bin}, base_hist.counts(), 8, 8,
                        nullptr, &state)
                  .ok());
  // Strict says "no change" (32 black pixels); blurring actually drains
  // the bin — the strict bounds exclude the true value.
  EXPECT_GT(state.hb_min[0], exact.Count(black_bin));
}

}  // namespace
}  // namespace mmdb
