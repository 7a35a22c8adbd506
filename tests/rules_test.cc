#include <gtest/gtest.h>

#include "core/rules.h"

namespace mmdb {
namespace {

constexpr double kPi = 3.14159265358979323846;

class RulesTest : public ::testing::Test {
 protected:
  ColorQuantizer quantizer_{4};
  RuleEngine engine_{quantizer_};
  RuleEngine strict_engine_{quantizer_, RuleOptions{.paper_strict = true}};
  const MergeTargetResolver* no_resolver_ = nullptr;
};

TEST_F(RulesTest, InitialStateIsExactPoint) {
  const RuleState state = RuleEngine::InitialState({30}, 10, 8);
  EXPECT_EQ(state.hb_min[0], 30);
  EXPECT_EQ(state.hb_max[0], 30);
  EXPECT_EQ(state.size, 80);
  EXPECT_EQ(state.defined_region, Rect(0, 0, 10, 8));
}

TEST_F(RulesTest, DefineSetsAndClipsRegionWithoutBoundChange) {
  RuleState state = RuleEngine::InitialState({30}, 10, 8);
  ASSERT_TRUE(engine_
                  .ApplyRule(DefineOp{Rect(5, 5, 100, 100)}, {0}, no_resolver_,
                             &state)
                  .ok());
  EXPECT_EQ(state.defined_region, Rect(5, 5, 10, 8));
  EXPECT_EQ(state.hb_min[0], 30);
  EXPECT_EQ(state.hb_max[0], 30);
  EXPECT_EQ(state.size, 80);
}

TEST_F(RulesTest, ModifyNewColorInBinRaisesOnlyMax) {
  // Table 1 row 1.
  const Rgb target = colors::kBlue;
  const BinIndex hb = quantizer_.BinOf(target);
  RuleState state = RuleEngine::InitialState({10}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(DefineOp{Rect(0, 0, 5, 5)}, {hb}, no_resolver_,
                             &state)
                  .ok());
  ASSERT_TRUE(engine_
                  .ApplyRule(ModifyOp{colors::kRed, target}, {hb},
                             no_resolver_, &state)
                  .ok());
  EXPECT_EQ(state.hb_min[0], 10);       // Unchanged.
  EXPECT_EQ(state.hb_max[0], 10 + 25);  // +|DR|.
  EXPECT_EQ(state.size, 100);
}

TEST_F(RulesTest, ModifyOldColorInBinLowersOnlyMin) {
  // Table 1 row 2.
  const Rgb source = colors::kRed;
  const BinIndex hb = quantizer_.BinOf(source);
  RuleState state = RuleEngine::InitialState({40}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(DefineOp{Rect(0, 0, 5, 2)}, {hb}, no_resolver_,
                             &state)
                  .ok());
  ASSERT_TRUE(engine_
                  .ApplyRule(ModifyOp{source, colors::kGreen}, {hb},
                             no_resolver_, &state)
                  .ok());
  EXPECT_EQ(state.hb_min[0], 30);  // -|DR| = -10.
  EXPECT_EQ(state.hb_max[0], 40);
}

TEST_F(RulesTest, ModifyUnrelatedColorsNoChange) {
  // Table 1 row 3.
  const BinIndex hb = quantizer_.BinOf(colors::kBlue);
  RuleState state = RuleEngine::InitialState({12}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(ModifyOp{colors::kRed, colors::kGreen}, {hb},
                             no_resolver_, &state)
                  .ok());
  EXPECT_EQ(state.hb_min[0], 12);
  EXPECT_EQ(state.hb_max[0], 12);
}

TEST_F(RulesTest, ModifyMinIsClampedAtZero) {
  const Rgb source = colors::kRed;
  const BinIndex hb = quantizer_.BinOf(source);
  RuleState state = RuleEngine::InitialState({5}, 10, 10);  // |DR| > HBmin.
  ASSERT_TRUE(engine_
                  .ApplyRule(ModifyOp{source, colors::kGreen}, {hb},
                             no_resolver_, &state)
                  .ok());
  EXPECT_EQ(state.hb_min[0], 0);
}

TEST_F(RulesTest, CombineWidensInSoundMode) {
  RuleState state = RuleEngine::InitialState({50}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(DefineOp{Rect(0, 0, 4, 5)}, {0}, no_resolver_,
                             &state)
                  .ok());
  ASSERT_TRUE(
      engine_.ApplyRule(CombineOp::BoxBlur(), {0}, no_resolver_, &state).ok());
  EXPECT_EQ(state.hb_min[0], 30);  // -20.
  EXPECT_EQ(state.hb_max[0], 70);  // +20.
  EXPECT_EQ(state.size, 100);
}

TEST_F(RulesTest, CombineNoChangeInStrictMode) {
  // Table 1 literally says "No change" for Combine.
  RuleState state = RuleEngine::InitialState({50}, 10, 10);
  ASSERT_TRUE(strict_engine_
                  .ApplyRule(CombineOp::BoxBlur(), {0}, no_resolver_, &state)
                  .ok());
  EXPECT_EQ(state.hb_min[0], 50);
  EXPECT_EQ(state.hb_max[0], 50);
}

TEST_F(RulesTest, CombineZeroWeightsIsNoOpEvenInSoundMode) {
  RuleState state = RuleEngine::InitialState({50}, 10, 10);
  CombineOp zero;
  zero.weights.fill(0.0);
  ASSERT_TRUE(engine_.ApplyRule(zero, {0}, no_resolver_, &state).ok());
  EXPECT_EQ(state.hb_min[0], 50);
  EXPECT_EQ(state.hb_max[0], 50);
}

TEST_F(RulesTest, FullCanvasIntegerScaleMultipliesEverything) {
  // Table 1 "DR contains image".
  RuleState state = RuleEngine::InitialState({25}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(MutateOp::Scale(2.0, 2.0), {0}, no_resolver_,
                             &state)
                  .ok());
  EXPECT_EQ(state.hb_min[0], 100);
  EXPECT_EQ(state.hb_max[0], 100);
  EXPECT_EQ(state.size, 400);
  EXPECT_EQ(state.width, 20);
  EXPECT_EQ(state.height, 20);
  EXPECT_EQ(state.defined_region, Rect(0, 0, 20, 20));
}

TEST_F(RulesTest, StrictScaleUsesM11TimesM22) {
  RuleState state = RuleEngine::InitialState({25}, 10, 10);
  ASSERT_TRUE(strict_engine_
                  .ApplyRule(MutateOp::Scale(2.0, 2.0), {0}, no_resolver_,
                             &state)
                  .ok());
  EXPECT_EQ(state.hb_min[0], 100);
  EXPECT_EQ(state.hb_max[0], 100);
  EXPECT_EQ(state.size, 400);
}

TEST_F(RulesTest, PartialDrScaleIsNotTheScalingRule) {
  // With the DR a strict subregion, the stamp fallback applies: size is
  // unchanged and bounds widen.
  RuleState state = RuleEngine::InitialState({25}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(DefineOp{Rect(0, 0, 2, 2)}, {0}, no_resolver_,
                             &state)
                  .ok());
  ASSERT_TRUE(engine_
                  .ApplyRule(MutateOp::Scale(2.0, 2.0), {0}, no_resolver_,
                             &state)
                  .ok());
  EXPECT_EQ(state.size, 100);
  EXPECT_LE(state.hb_min[0], 25);
  EXPECT_GE(state.hb_max[0], 25);
}

TEST_F(RulesTest, RigidBodyWidensByDrInStrictMode) {
  // Table 1 "Rigid Body": +-|DR| exactly.
  RuleState state = RuleEngine::InitialState({50}, 10, 10);
  ASSERT_TRUE(strict_engine_
                  .ApplyRule(DefineOp{Rect(0, 0, 3, 4)}, {0}, no_resolver_,
                             &state)
                  .ok());
  ASSERT_TRUE(strict_engine_
                  .ApplyRule(MutateOp::Translation(2, 2), {0}, no_resolver_,
                             &state)
                  .ok());
  EXPECT_EQ(state.hb_min[0], 50 - 12);
  EXPECT_EQ(state.hb_max[0], 50 + 12);
  EXPECT_EQ(state.size, 100);
}

TEST_F(RulesTest, RigidBodySoundModeIsAtLeastAsWide) {
  RuleState strict = RuleEngine::InitialState({50}, 10, 10);
  RuleState sound = strict;
  const DefineOp define{Rect(2, 2, 6, 6)};
  const MutateOp rotate = MutateOp::Rotation(kPi / 4, 4.0, 4.0);
  ASSERT_TRUE(
      strict_engine_.ApplyRule(define, {0}, no_resolver_, &strict).ok());
  ASSERT_TRUE(
      strict_engine_.ApplyRule(rotate, {0}, no_resolver_, &strict).ok());
  ASSERT_TRUE(engine_.ApplyRule(define, {0}, no_resolver_, &sound).ok());
  ASSERT_TRUE(engine_.ApplyRule(rotate, {0}, no_resolver_, &sound).ok());
  EXPECT_LE(sound.hb_min[0], strict.hb_min[0]);
  EXPECT_GE(sound.hb_max[0], strict.hb_max[0]);
  EXPECT_EQ(sound.size, strict.size);
}

TEST_F(RulesTest, MergeNullUsesTableOneFormulas) {
  // E = 100, HBmin = HBmax = 70, |DR| = 50:
  //   min' = max(0, 50 - (100 - 70)) = 20, max' = min(70, 50) = 50.
  RuleState state = RuleEngine::InitialState({70}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(DefineOp{Rect(0, 0, 10, 5)}, {0}, no_resolver_,
                             &state)
                  .ok());
  ASSERT_TRUE(engine_.ApplyRule(MergeOp{}, {0}, no_resolver_, &state).ok());
  EXPECT_EQ(state.hb_min[0], 20);
  EXPECT_EQ(state.hb_max[0], 50);
  EXPECT_EQ(state.size, 50);
  EXPECT_EQ(state.width, 10);
  EXPECT_EQ(state.height, 5);
}

TEST_F(RulesTest, MergeNullClampsMinAtZero) {
  RuleState state = RuleEngine::InitialState({10}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(DefineOp{Rect(0, 0, 5, 5)}, {0}, no_resolver_,
                             &state)
                  .ok());
  ASSERT_TRUE(engine_.ApplyRule(MergeOp{}, {0}, no_resolver_, &state).ok());
  EXPECT_EQ(state.hb_min[0], 0);           // 25 - 90 clamps.
  EXPECT_EQ(state.hb_max[0], 10);          // min(10, 25).
  EXPECT_EQ(state.size, 25);
}

TEST_F(RulesTest, MergeTargetCombinesBothContributions) {
  // Base: 10x10, HB = 40. DR = 4x5 = 20 pasted fully inside a 20x20
  // target with T_HB = 100.
  struct Target final : MergeTargetResolver {
    Result<const RuleState*> Resolve(
        ObjectId id, const std::vector<BinIndex>&) const override {
      EXPECT_EQ(id, 7u);
      return &state;
    }
    RuleState state = RuleEngine::InitialState({100}, 20, 20);
  } target;
  const MergeTargetResolver* resolver = &target;
  RuleState state = RuleEngine::InitialState({40}, 10, 10);
  ASSERT_TRUE(engine_
                  .ApplyRule(DefineOp{Rect(0, 0, 4, 5)}, {0}, resolver, &state)
                  .ok());
  MergeOp merge;
  merge.target = 7;
  merge.x = 2;
  merge.y = 2;
  ASSERT_TRUE(engine_.ApplyRule(merge, {0}, resolver, &state).ok());
  // overlap = 20. paste in [max(0,40-100+20), min(40,20)] = [0, 20];
  // kept target in [max(0,100-20), min(100, 380)] = [80, 100].
  EXPECT_EQ(state.hb_min[0], 80);
  EXPECT_EQ(state.hb_max[0], 120);
  EXPECT_EQ(state.size, 400);
  EXPECT_EQ(state.width, 20);
  EXPECT_EQ(state.height, 20);
}

TEST_F(RulesTest, MergeTargetWithoutResolverFails) {
  RuleState state = RuleEngine::InitialState({1}, 4, 4);
  MergeOp merge;
  merge.target = 3;
  EXPECT_EQ(engine_.ApplyRule(merge, {0}, no_resolver_, &state).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RulesTest, BoundWideningClassificationMatchesPaper) {
  // Section 4: Define/Combine/Modify/Mutate always; Merge iff NULL target.
  EXPECT_TRUE(RuleEngine::IsBoundWidening(EditOp(DefineOp{})));
  EXPECT_TRUE(RuleEngine::IsBoundWidening(EditOp(CombineOp::BoxBlur())));
  EXPECT_TRUE(RuleEngine::IsBoundWidening(
      EditOp(ModifyOp{colors::kRed, colors::kBlue})));
  EXPECT_TRUE(
      RuleEngine::IsBoundWidening(EditOp(MutateOp::Translation(1, 1))));
  EXPECT_TRUE(RuleEngine::IsBoundWidening(EditOp(MutateOp::Scale(2, 2))));
  EXPECT_TRUE(RuleEngine::IsBoundWidening(EditOp(MergeOp{})));
  MergeOp with_target;
  with_target.target = 5;
  EXPECT_FALSE(RuleEngine::IsBoundWidening(EditOp(with_target)));
}

TEST_F(RulesTest, IsAllBoundWideningScansEveryOp) {
  EditScript script;
  script.base_id = 1;
  script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  script.ops.emplace_back(MergeOp{});
  EXPECT_TRUE(RuleEngine::IsAllBoundWidening(script));
  MergeOp with_target;
  with_target.target = 5;
  script.ops.emplace_back(with_target);
  EXPECT_FALSE(RuleEngine::IsAllBoundWidening(script));
}

}  // namespace
}  // namespace mmdb
