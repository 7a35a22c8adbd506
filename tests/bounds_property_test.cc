#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <thread>

#include "core/bounds.h"
#include "core/collection.h"
#include "core/histogram.h"
#include "core/scan.h"
#include "image/editor.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

/// A small universe of stored binary images (pixels + catalog info) that
/// scripts can reference and Merge into.
struct Universe {
  ColorQuantizer quantizer{4};
  AugmentedCollection collection;
  std::map<ObjectId, Image> pixels;
  std::vector<datasets::MergeTarget> targets;

  ImageResolver Resolver() const {
    return [this](ObjectId id) -> Result<Image> {
      const auto it = pixels.find(id);
      if (it == pixels.end()) return Status::NotFound("image");
      return it->second;
    };
  }
};

Universe MakeUniverse(Rng& rng, int binary_count = 3) {
  Universe u;
  for (int i = 0; i < binary_count; ++i) {
    const ObjectId id = static_cast<ObjectId>(10 + i);
    const int32_t w = static_cast<int32_t>(rng.UniformInt(12, 28));
    const int32_t h = static_cast<int32_t>(rng.UniformInt(12, 28));
    Image image = mmdb::testing::RandomBlockImage(w, h, 8, rng);
    BinaryImageInfo info;
    info.id = id;
    info.width = w;
    info.height = h;
    info.histogram = ExtractHistogram(image, u.quantizer);
    EXPECT_TRUE(u.collection.AddBinary(info).ok());
    u.targets.push_back({id, w, h});
    u.pixels.emplace(id, std::move(image));
  }
  return u;
}

/// The paper's core guarantee, checked against the pixel engine: for any
/// edit script and any histogram bin, the rule-computed range
/// [BOUNDmin, BOUNDmax] contains the instantiated image's exact count —
/// hence range queries never produce false negatives.
class BoundsSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundsSoundness, RuleBoundsContainExactCounts) {
  Rng rng(GetParam());
  Universe u = MakeUniverse(rng);
  const RuleEngine engine(u.quantizer);
  const CollectionTargetResolver target_resolver(u.collection, engine);
  const Editor editor(u.Resolver());

  for (int trial = 0; trial < 8; ++trial) {
    const ObjectId base_id = u.targets[rng.Uniform(u.targets.size())].id;
    const BinaryImageInfo* base = u.collection.FindBinary(base_id);
    const EditScript script = mmdb::testing::RandomScript(
        base_id, base->width, base->height,
        static_cast<int>(rng.UniformInt(1, 10)), u.targets, rng);

    Result<Image> instantiated =
        editor.Instantiate(u.pixels.at(base_id), script);
    ASSERT_TRUE(instantiated.ok())
        << instantiated.status().ToString() << "\n" << script.ToString();
    const ColorHistogram exact =
        ExtractHistogram(*instantiated, u.quantizer);

    for (BinIndex bin = 0; bin < u.quantizer.BinCount(); ++bin) {
      RuleState state;
      const Status folded =
          FoldRules(engine, script, {bin}, base->histogram.counts(),
                    base->width, base->height, &target_resolver, &state);
      ASSERT_TRUE(folded.ok()) << folded.ToString();
      // Exact structural tracking:
      EXPECT_EQ(state.width, instantiated->width()) << script.ToString();
      EXPECT_EQ(state.height, instantiated->height()) << script.ToString();
      EXPECT_EQ(state.size, instantiated->PixelCount());
      // Soundness:
      EXPECT_LE(state.hb_min[0], exact.Count(bin))
          << "bin " << bin << "\n" << script.ToString();
      EXPECT_GE(state.hb_max[0], exact.Count(bin))
          << "bin " << bin << "\n" << script.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, BoundsSoundness,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

/// The Section 4 widening property: for operations classified as
/// bound-widening, applying the rule can only widen (never narrow) the
/// fraction range.
class WideningProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WideningProperty, WideningRulesOnlyWidenFractionRange) {
  Rng rng(GetParam());
  Universe u = MakeUniverse(rng);
  const RuleEngine engine(u.quantizer);
  const CollectionTargetResolver target_resolver(u.collection, engine);

  for (int trial = 0; trial < 10; ++trial) {
    const ObjectId base_id = u.targets[rng.Uniform(u.targets.size())].id;
    const BinaryImageInfo* base = u.collection.FindBinary(base_id);
    // Widening-only scripts: no merge targets allowed.
    const EditScript script = mmdb::testing::RandomScript(
        base_id, base->width, base->height,
        static_cast<int>(rng.UniformInt(1, 10)), {}, rng);
    ASSERT_TRUE(RuleEngine::IsAllBoundWidening(script));

    for (BinIndex bin : {0, 21, 42, 63}) {
      RuleState state = RuleEngine::InitialState(
          {base->histogram.Count(bin)}, base->width, base->height);
      FractionBounds prev = ToFractionBounds(state, 0);
      for (const EditOp& op : script.ops) {
        ASSERT_TRUE(
            engine.ApplyRule(op, {bin}, &target_resolver, &state).ok());
        const FractionBounds next = ToFractionBounds(state, 0);
        EXPECT_LE(next.min_fraction, prev.min_fraction + 1e-12)
            << EditOpToString(op);
        EXPECT_GE(next.max_fraction, prev.max_fraction - 1e-12)
            << EditOpToString(op);
        prev = next;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, WideningProperty,
                         ::testing::Range(uint64_t{100}, uint64_t{112}));

TEST(FractionBoundsTest, OverlapSemantics) {
  const FractionBounds bounds{0.2, 0.5};
  EXPECT_TRUE(bounds.Overlaps(0.1, 0.3));
  EXPECT_TRUE(bounds.Overlaps(0.5, 1.0));   // Touching endpoints overlap.
  EXPECT_TRUE(bounds.Overlaps(0.0, 0.2));
  EXPECT_TRUE(bounds.Overlaps(0.3, 0.4));   // Query inside bounds.
  EXPECT_TRUE(bounds.Overlaps(0.0, 1.0));   // Bounds inside query.
  EXPECT_FALSE(bounds.Overlaps(0.51, 1.0));
  EXPECT_FALSE(bounds.Overlaps(0.0, 0.19));
}

TEST(BoundsTest, MergeTargetCycleIsRejected) {
  // An edited image whose merge target is itself (via the collection's
  // recursive resolver) must fail cleanly, not loop.
  const ColorQuantizer quantizer(4);
  AugmentedCollection collection;
  BinaryImageInfo base;
  base.id = 1;
  base.width = 4;
  base.height = 4;
  base.histogram = ExtractHistogram(Image(4, 4, colors::kRed), quantizer);
  ASSERT_TRUE(collection.AddBinary(base).ok());

  EditedImageInfo edited;
  edited.id = 2;
  edited.script.base_id = 1;
  MergeOp self_merge;
  self_merge.target = 2;  // Itself.
  edited.script.ops.emplace_back(self_merge);
  // Only resolved, never scored: an empty bounds row does.
  ASSERT_TRUE(collection.AddEdited(edited, {}).ok());

  const RuleEngine engine(quantizer);
  const CollectionTargetResolver resolver(collection, engine);
  RuleState state;
  const Status folded =
      FoldRules(engine, edited.script, {0}, {16}, 4, 4, &resolver, &state);
  EXPECT_FALSE(folded.ok());
  EXPECT_EQ(folded.code(), StatusCode::kInvalidArgument);
}

/// White-box lockstep check: the rule engine's structural tracking
/// (canvas dimensions and Defined Region) must match the editor's after
/// every single operation — this equality is what makes |DR| and size
/// arithmetic exact, and any drift would silently loosen or break the
/// bounds.
class StructuralLockstep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StructuralLockstep, EditorAndRulesAgreeAfterEveryOp) {
  Rng rng(GetParam());
  Universe u = MakeUniverse(rng);
  const RuleEngine engine(u.quantizer);
  const CollectionTargetResolver target_resolver(u.collection, engine);
  const Editor editor(u.Resolver());

  for (int trial = 0; trial < 6; ++trial) {
    const ObjectId base_id = u.targets[rng.Uniform(u.targets.size())].id;
    const BinaryImageInfo* base = u.collection.FindBinary(base_id);
    const EditScript script = mmdb::testing::RandomScript(
        base_id, base->width, base->height,
        static_cast<int>(rng.UniformInt(1, 12)), u.targets, rng);

    Editor::State editor_state =
        Editor::InitialState(u.pixels.at(base_id));
    RuleState rule_state = RuleEngine::InitialState(
        {base->histogram.Count(0)}, base->width, base->height);
    for (const EditOp& op : script.ops) {
      ASSERT_TRUE(editor.ApplyOp(op, &editor_state).ok())
          << EditOpToString(op);
      ASSERT_TRUE(
          engine.ApplyRule(op, {0}, &target_resolver, &rule_state).ok())
          << EditOpToString(op);
      EXPECT_EQ(rule_state.width, editor_state.canvas.width())
          << EditOpToString(op) << "\n" << script.ToString();
      EXPECT_EQ(rule_state.height, editor_state.canvas.height())
          << EditOpToString(op);
      EXPECT_EQ(rule_state.defined_region, editor_state.defined_region)
          << EditOpToString(op) << "\n" << script.ToString();
      EXPECT_EQ(rule_state.size, editor_state.canvas.PixelCount());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, StructuralLockstep,
                         ::testing::Range(uint64_t{200}, uint64_t{212}));

/// Folds `script` over every bin (as top-k does), then over each bin
/// alone (as a range query does) and over random bin lists that repeat a
/// bin (as a conjunction may), drawn from `lists_rng`. Expects entry i
/// of every list's fold to equal the all-bin fold's entry for bin
/// `bins[i]`, with the same geometry, or the same failure from both;
/// returns the all-bin fold's status.
Status FoldsAgree(const RuleEngine& engine,
                  const AugmentedCollection& collection,
                  const EditScript& script, Rng& lists_rng) {
  const BinaryImageInfo* base = collection.FindBinary(script.base_id);
  if (base == nullptr) return Status::NotFound("base of the test script");
  const CollectionTargetResolver resolver(collection, engine);
  const auto fold = [&](const std::vector<BinIndex>& bins, RuleState* state) {
    return FoldRules(engine, script, bins, base->histogram.counts(),
                     base->width, base->height, &resolver, state);
  };
  const BinIndex bin_count = engine.quantizer().BinCount();
  std::vector<BinIndex> every_bin(static_cast<size_t>(bin_count));
  std::iota(every_bin.begin(), every_bin.end(), BinIndex{0});
  RuleState all;
  const Status all_status = fold(every_bin, &all);

  std::vector<std::vector<BinIndex>> lists;
  for (BinIndex bin : every_bin) lists.push_back({bin});
  for (int list = 0; list < 4; ++list) {
    std::vector<BinIndex> bins;
    const int64_t distinct = lists_rng.UniformInt(1, 4);
    for (int64_t i = 0; i < distinct; ++i) {
      bins.push_back(static_cast<BinIndex>(lists_rng.Uniform(
          static_cast<uint64_t>(bin_count))));
    }
    const BinIndex repeated = bins[lists_rng.Uniform(bins.size())];
    bins.insert(bins.begin() + static_cast<ptrdiff_t>(
                                   lists_rng.Uniform(bins.size() + 1)),
                repeated);
    lists.push_back(std::move(bins));
  }

  for (const std::vector<BinIndex>& bins : lists) {
    RuleState some;
    const Status status = fold(bins, &some);
    EXPECT_EQ(status.ToString(), all_status.ToString())
        << "bins " << ::testing::PrintToString(bins) << "\n"
        << script.ToString();
    if (!status.ok() || !all_status.ok()) continue;
    const bool sized = some.hb_min.size() == bins.size() &&
                       some.hb_max.size() == bins.size();
    EXPECT_TRUE(sized) << "bins " << ::testing::PrintToString(bins);
    if (!sized) continue;
    for (size_t i = 0; i < bins.size(); ++i) {
      const size_t bin = static_cast<size_t>(bins[i]);
      EXPECT_EQ(some.hb_min[i], all.hb_min[bin])
          << "bin " << bin << "\n" << script.ToString();
      EXPECT_EQ(some.hb_max[i], all.hb_max[bin])
          << "bin " << bin << "\n" << script.ToString();
    }
    EXPECT_EQ(some.size, all.size);
    EXPECT_EQ(some.width, all.width);
    EXPECT_EQ(some.height, all.height);
    EXPECT_EQ(some.defined_region, all.defined_region);
  }
  return all_status;
}

/// The fold over every bin (as top-k uses it) against the fold over each
/// bin alone and over random lists with a repeated bin: random scripts
/// with Merges into binary targets, one Merge into an edited target, a
/// Merge cycle and a missing target, in sound and paper-strict mode.
class AllBinFold : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllBinFold, EqualsOneBinFoldForEveryBin) {
  Rng rng(GetParam());
  Rng lists_rng(1000 + GetParam());  // Bin lists; `rng` draws scripts.
  Universe u = MakeUniverse(rng);
  const datasets::MergeTarget& first = u.targets.front();

  // A stored edited image to merge into, itself merging into binaries.
  EditedImageInfo edited_target;
  edited_target.id = 50;
  edited_target.script = mmdb::testing::RandomScript(
      first.id, first.width, first.height, 6, u.targets, rng);
  ASSERT_TRUE(u.collection.AddEdited(edited_target, {}).ok());
  // A cycle: an edited image that merges into itself.
  EditedImageInfo self_merge;
  self_merge.id = 51;
  self_merge.script.base_id = first.id;
  self_merge.script.ops.emplace_back(MergeOp{ObjectId{51}, 0, 0});
  ASSERT_TRUE(u.collection.AddEdited(self_merge, {}).ok());

  const ObjectId base_id = u.targets.back().id;
  const EditScript into_edited{
      base_id,
      {DefineOp{Rect(1, 2, 9, 8)}, CombineOp::BoxBlur(),
       MergeOp{ObjectId{50}, 3, 1}, ModifyOp{colors::kRed, colors::kBlue}}};
  const EditScript into_cycle{base_id, {MergeOp{ObjectId{51}, 0, 0}}};
  const EditScript into_missing{
      base_id, {DefineOp{Rect(0, 0, 4, 4)}, MergeOp{ObjectId{999}, 0, 0}}};

  RuleOptions strict;
  strict.paper_strict = true;
  for (const RuleOptions& options : {RuleOptions{}, strict}) {
    const RuleEngine engine(u.quantizer, options);
    for (int trial = 0; trial < 8; ++trial) {
      const datasets::MergeTarget& base =
          u.targets[rng.Uniform(u.targets.size())];
      EXPECT_TRUE(FoldsAgree(engine, u.collection,
                             mmdb::testing::RandomScript(
                                 base.id, base.width, base.height,
                                 static_cast<int>(rng.UniformInt(1, 10)),
                                 u.targets, rng),
                             lists_rng)
                      .ok());
    }
    EXPECT_TRUE(FoldsAgree(engine, u.collection, edited_target.script,
                           lists_rng).ok());
    EXPECT_TRUE(FoldsAgree(engine, u.collection, into_edited, lists_rng).ok());
    EXPECT_EQ(FoldsAgree(engine, u.collection, into_cycle, lists_rng).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(FoldsAgree(engine, u.collection, into_missing, lists_rng).code(),
              StatusCode::kNotFound);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, AllBinFold,
                         ::testing::Range(uint64_t{300}, uint64_t{316}));

/// One bounder bounds images in turn, as a scan does, reusing its walk's
/// bins and state; a fresh bounder per image, and a walk per conjunct
/// (the counting the one walk keeps), must agree with it on ids and
/// every counter. The images take 3, then 1, then 2 conjuncts, one list
/// repeats a bin, and some scripts Merge into a stored edited image.
TEST(EditedImageBounderTest, ReusedBounderMatchesFreshBounderPerImage) {
  Rng rng(400);
  Universe u = MakeUniverse(rng);
  const RuleEngine engine(u.quantizer);
  const datasets::MergeTarget& first = u.targets.front();
  EditedImageInfo edited_target;
  edited_target.id = 50;
  edited_target.script = mmdb::testing::RandomScript(
      first.id, first.width, first.height, 6, u.targets, rng);
  ASSERT_TRUE(u.collection.AddEdited(edited_target, {}).ok());

  // Narrow windows over bins the bases hold, on short scripts, so each
  // conjunct passes some images and fails others.
  std::vector<BinIndex> held;
  for (BinIndex bin = 0; bin < u.quantizer.BinCount(); ++bin) {
    if (u.collection.FindBinary(first.id)->histogram.Count(bin) > 0) {
      held.push_back(bin);
    }
  }
  ASSERT_GE(held.size(), 4u);
  const std::vector<std::vector<RangeQuery>> lists = {
      {{held[0], 0.0, 0.10}, {held[1], 0.2, 1.0}, {held[2], 0.0, 0.12}},
      {{held[3], 0.25, 1.0}},
      {{held[1], 0.0, 0.2}, {held[1], 0.15, 1.0}},
  };

  const CollectionTargetResolver resolver(u.collection, engine);
  const EditedImageBounder reused(u.collection, engine);
  QueryResult reused_out, fresh_out, sequential_out;
  for (int i = 0; i < 30; ++i) {
    const datasets::MergeTarget& base =
        u.targets[rng.Uniform(u.targets.size())];
    EditedImageInfo image;
    image.id = static_cast<ObjectId>(100 + i);
    image.script = mmdb::testing::RandomScript(
        base.id, base.width, base.height,
        static_cast<int>(rng.UniformInt(1, 4)), u.targets, rng);
    if (i % 3 == 1) {
      image.script.ops.emplace_back(MergeOp{ObjectId{50}, 2, 1});
    }
    const std::vector<RangeQuery>& conjuncts = lists[i % lists.size()];

    ASSERT_TRUE(reused.Bound(image, conjuncts, nullptr, &reused_out).ok());
    ASSERT_TRUE(EditedImageBounder(u.collection, engine)
                    .Bound(image, conjuncts, nullptr, &fresh_out)
                    .ok());
    const BinaryImageInfo* image_base = u.collection.FindBinary(base.id);
    bool candidate = true;
    for (const RangeQuery& conjunct : conjuncts) {
      RuleState state;
      ASSERT_TRUE(FoldRules(engine, image.script, {conjunct.bin},
                            image_base->histogram.counts(),
                            image_base->width, image_base->height,
                            &resolver, &state)
                      .ok());
      sequential_out.stats.rules_applied +=
          static_cast<int64_t>(image.script.ops.size());
      if (!ToFractionBounds(state, 0).Overlaps(conjunct.min_fraction,
                                               conjunct.max_fraction)) {
        candidate = false;
        break;
      }
    }
    ++sequential_out.stats.edited_images_bounded;
    if (candidate) sequential_out.ids.push_back(image.id);
  }

  for (const QueryResult* other : {&fresh_out, &sequential_out}) {
    EXPECT_EQ(reused_out.ids, other->ids);
    EXPECT_EQ(reused_out.stats.binary_images_checked,
              other->stats.binary_images_checked);
    EXPECT_EQ(reused_out.stats.edited_images_bounded,
              other->stats.edited_images_bounded);
    EXPECT_EQ(reused_out.stats.edited_images_skipped,
              other->stats.edited_images_skipped);
    EXPECT_EQ(reused_out.stats.rules_applied, other->stats.rules_applied);
    EXPECT_EQ(reused_out.stats.images_instantiated,
              other->stats.images_instantiated);
    EXPECT_EQ(reused_out.stats.corrupt_images_skipped,
              other->stats.corrupt_images_skipped);
  }
  // Not vacuous: some images pass and some fail.
  EXPECT_GT(reused_out.ids.size(), 0u);
  EXPECT_LT(reused_out.ids.size(), 30u);
}

/// The sound Mutate rule's memoized scale bracket against a reference
/// loop: cold (a fresh thread's empty memo), warm (the same keys again),
/// and over more keys than the memo holds, so entries are evicted and
/// recomputed.
TEST(ScaleBracketTest, MemoMatchesReferenceColdWarmAndOverfull) {
  const RuleEngine engine(ColorQuantizer(4));
  constexpr int32_t kFits = 100;      // 7 scales x 100 extents = 700 keys.
  constexpr int32_t kOverfull = 600;  // 4200 keys.
  static_assert(7 * kFits < kScaleBracketSlots);
  static_assert(7 * kOverfull > kScaleBracketSlots);
  std::string cold, warm, overfull, overfull_again;
  std::thread([&] {
    cold = mmdb::testing::ScaleBracketMismatch(engine, kFits);
    warm = mmdb::testing::ScaleBracketMismatch(engine, kFits);
    overfull = mmdb::testing::ScaleBracketMismatch(engine, kOverfull);
    overfull_again = mmdb::testing::ScaleBracketMismatch(engine, kOverfull);
  }).join();
  EXPECT_EQ(cold, "");
  EXPECT_EQ(warm, "");
  EXPECT_EQ(overfull, "");
  EXPECT_EQ(overfull_again, "");
}

TEST(BoundsTest, EmptyScriptYieldsExactBaseFraction) {
  const ColorQuantizer quantizer(4);
  const RuleEngine engine(quantizer);
  EditScript script;
  script.base_id = 1;
  RuleState state;
  ASSERT_TRUE(
      FoldRules(engine, script, {0}, {25}, 10, 10, nullptr, &state).ok());
  const FractionBounds bounds = ToFractionBounds(state, 0);
  EXPECT_DOUBLE_EQ(bounds.min_fraction, 0.25);
  EXPECT_DOUBLE_EQ(bounds.max_fraction, 0.25);
}

}  // namespace
}  // namespace mmdb
