// Edge-of-domain behaviour of the instantiation engine and its agreement
// with the rule engine on the same edges.

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/histogram.h"
#include <set>

#include "datasets/generators.h"
#include "image/editor.h"
#include "test_util.h"

namespace mmdb {
namespace {

TEST(EditorEdgeTest, OnePixelImageSurvivesEveryWideningOp) {
  const Editor editor;
  Image base(1, 1, colors::kRed);
  EditScript script;
  script.base_id = 1;
  script.ops.emplace_back(CombineOp::BoxBlur());
  script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  script.ops.emplace_back(MutateOp::Translation(0, 0));
  script.ops.emplace_back(DefineOp{Rect(0, 0, 1, 1)});
  script.ops.emplace_back(MergeOp{});
  const auto out = editor.Instantiate(base, script);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->width(), 1);
  EXPECT_EQ(out->height(), 1);
}

TEST(EditorEdgeTest, EmptyDefinedRegionMakesOpsNoOps) {
  const Editor editor;
  Editor::State state = Editor::InitialState(Image(4, 4, colors::kRed));
  ASSERT_TRUE(editor.ApplyOp(DefineOp{Rect(2, 2, 2, 2)}, &state).ok());
  EXPECT_TRUE(state.defined_region.Empty());
  const Image before = state.canvas;
  ASSERT_TRUE(editor.ApplyOp(CombineOp::BoxBlur(), &state).ok());
  ASSERT_TRUE(
      editor.ApplyOp(ModifyOp{colors::kRed, colors::kBlue}, &state).ok());
  ASSERT_TRUE(editor.ApplyOp(MutateOp::Translation(1, 1), &state).ok());
  EXPECT_EQ(state.canvas, before);
}

TEST(EditorEdgeTest, RulesAgreeOnEmptyDefinedRegion) {
  const ColorQuantizer quantizer(4);
  const RuleEngine engine(quantizer);
  EditScript script;
  script.base_id = 1;
  script.ops.emplace_back(DefineOp{Rect(2, 2, 2, 2)});  // Empty.
  script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  script.ops.emplace_back(CombineOp::BoxBlur());
  const BinIndex red = quantizer.BinOf(colors::kRed);
  std::vector<int64_t> base_counts(static_cast<size_t>(quantizer.BinCount()));
  base_counts[static_cast<size_t>(red)] = 16;  // A 4x4 all-red base.
  RuleState state;
  ASSERT_TRUE(
      FoldRules(engine, script, {red}, base_counts, 4, 4, nullptr, &state)
          .ok());
  const FractionBounds bounds = ToFractionBounds(state, 0);
  // |DR| = 0: bounds stay the exact base point.
  EXPECT_DOUBLE_EQ(bounds.min_fraction, 1.0);
  EXPECT_DOUBLE_EQ(bounds.max_fraction, 1.0);
}

TEST(EditorEdgeTest, ScaleDownToOnePixel) {
  const Editor editor;
  Image base(4, 4, colors::kGold);
  EditScript script;
  script.base_id = 1;
  script.ops.emplace_back(MutateOp::Scale(0.25, 0.25));
  const auto out = editor.Instantiate(base, script);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->width(), 1);
  EXPECT_EQ(out->height(), 1);
  EXPECT_EQ(out->At(0, 0), colors::kGold);
}

TEST(EditorEdgeTest, ReflectionIsRigidBody) {
  // Horizontal mirror about the canvas midline: |det| = 1, orthonormal.
  MutateOp mirror;
  mirror.m = {-1, 0, 8, 0, 1, 0, 0, 0, 1};  // x' = 8 - x.
  EXPECT_TRUE(mirror.IsRigidBody());

  const Editor editor;
  Image base(8, 4, colors::kWhite);
  base.Fill(Rect(0, 0, 2, 4), colors::kNavy);
  Editor::State state = Editor::InitialState(base);
  ASSERT_TRUE(editor.ApplyOp(DefineOp{Rect(0, 0, 2, 4)}, &state).ok());
  ASSERT_TRUE(editor.ApplyOp(mirror, &state).ok());
  // The band's mirror image lands on the right edge.
  EXPECT_EQ(state.canvas.CountColor(colors::kNavy, Rect(6, 0, 8, 4)), 8);
}

TEST(EditorEdgeTest, ChainedCropsToMinimumSize) {
  const Editor editor;
  Rng rng(1701);
  Image base = testing::RandomBlockImage(16, 16, 6, rng);
  EditScript script;
  script.base_id = 1;
  int32_t w = 16, h = 16;
  while (w > 1 && h > 1) {
    w = (w + 1) / 2;
    h = (h + 1) / 2;
    script.ops.emplace_back(DefineOp{Rect(0, 0, w, h)});
    script.ops.emplace_back(MergeOp{});
  }
  const auto out = editor.Instantiate(base, script);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->width(), 1);
  EXPECT_EQ(out->height(), 1);
}

TEST(WorldFlagsTest, RecognizableAndDistinct) {
  const auto flags = datasets::MakeWorldFlags();
  ASSERT_GE(flags.size(), 10u);
  const ColorQuantizer quantizer(4);
  // France is 1/3 blue; Japan is mostly white with a red disc.
  const auto find = [&](const std::string& name) -> const Image& {
    for (const auto& flag : flags) {
      if (flag.label == "flag:" + name) return flag.image;
    }
    ADD_FAILURE() << name << " missing";
    return flags[0].image;
  };
  const ColorHistogram france = ExtractHistogram(find("france"), quantizer);
  EXPECT_NEAR(france.Fraction(quantizer.BinOf(colors::kBlue)), 1.0 / 3,
              0.05);
  const ColorHistogram japan = ExtractHistogram(find("japan"), quantizer);
  EXPECT_GT(japan.Fraction(quantizer.BinOf(colors::kWhite)), 0.6);
  EXPECT_GT(japan.Fraction(quantizer.BinOf(colors::kRed)), 0.1);
  // All labels distinct.
  std::set<std::string> labels;
  for (const auto& flag : flags) labels.insert(flag.label);
  EXPECT_EQ(labels.size(), flags.size());
  // Deterministic.
  const auto again = datasets::MakeWorldFlags();
  for (size_t i = 0; i < flags.size(); ++i) {
    EXPECT_EQ(flags[i].image, again[i].image);
  }
}

}  // namespace
}  // namespace mmdb
