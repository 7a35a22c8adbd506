#include <gtest/gtest.h>

#include "core/collection.h"
#include "core/database.h"
#include "core/instantiate.h"
#include "datasets/augment.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using mmdb::testing::AsSet;

/// Builds an in-memory augmented database with a mix of widening-only and
/// unclassified edited images.
std::unique_ptr<MultimediaDatabase> MakeDatabase(uint64_t seed,
                                                 int binary_count,
                                                 int edited_count,
                                                 double widening_probability) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.kind = datasets::DatasetKind::kFlags;
  spec.total_images = binary_count + edited_count;
  spec.edited_fraction =
      static_cast<double>(edited_count) / spec.total_images;
  spec.widening_probability = widening_probability;
  spec.seed = seed;
  const auto stats = datasets::BuildAugmentedDatabase(db.get(), spec);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return db;
}

class RbmBwmEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RbmBwmEquivalence, IdenticalResultSetsOnRandomWorkloads) {
  auto db = MakeDatabase(GetParam(), 6, 40, 0.7);
  Rng rng(GetParam() * 31 + 7);
  const auto workload = datasets::MakeRangeWorkload(
      db->quantizer(), datasets::FlagPalette(), 12, rng);
  for (const RangeQuery& query : workload) {
    const auto rbm = db->RunRange(query, QueryMethod::kRbm);
    const auto bwm = db->RunRange(query, QueryMethod::kBwm);
    ASSERT_TRUE(rbm.ok()) << rbm.status().ToString();
    ASSERT_TRUE(bwm.ok()) << bwm.status().ToString();
    EXPECT_EQ(AsSet(rbm->ids), AsSet(bwm->ids)) << query.ToString();
  }
}

TEST_P(RbmBwmEquivalence, NoFalseNegativesAgainstInstantiation) {
  auto db = MakeDatabase(GetParam() + 500, 4, 24, 0.6);
  Rng rng(GetParam() * 17 + 3);
  const auto workload = datasets::MakeRangeWorkload(
      db->quantizer(), datasets::FlagPalette(), 6, rng);
  for (const RangeQuery& query : workload) {
    const auto exact = db->RunRange(query, QueryMethod::kInstantiate);
    const auto rbm = db->RunRange(query, QueryMethod::kRbm);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ASSERT_TRUE(rbm.ok()) << rbm.status().ToString();
    // Every true match must be in the RBM result (superset: conservative
    // bounds may add false positives, never false negatives).
    const auto rbm_set = AsSet(rbm->ids);
    for (ObjectId id : exact->ids) {
      EXPECT_TRUE(rbm_set.count(id))
          << "false negative for object " << id << " on "
          << query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RbmBwmEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

/// A binary image of `id` for the classification tests.
BinaryImageInfo Binary(ObjectId id) {
  BinaryImageInfo info;
  info.id = id;
  return info;
}

// The scans read no bounds row, so these images carry empty ones, `{}`.
TEST(BwmClusterTest, InsertionClassifiesPerFigure1) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(Binary(10)).ok());
  ASSERT_TRUE(collection.AddBinary(Binary(20)).ok());

  EditedImageInfo widening;
  widening.id = 11;
  widening.script.base_id = 10;
  widening.script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  ASSERT_TRUE(collection.AddEdited(widening, {}).ok());

  EditedImageInfo unclassified;
  unclassified.id = 12;
  unclassified.script.base_id = 10;
  MergeOp merge;
  merge.target = 20;
  unclassified.script.ops.emplace_back(merge);
  ASSERT_TRUE(collection.AddEdited(unclassified, {}).ok());

  EXPECT_EQ(collection.binary_ids(), (std::vector<ObjectId>{10, 20}));
  EXPECT_EQ(collection.FindBinary(10)->cluster, std::vector<ObjectId>{11});
  EXPECT_TRUE(collection.FindBinary(20)->cluster.empty());
  EXPECT_EQ(collection.unclassified(), std::vector<ObjectId>{12});
  EXPECT_EQ(collection.MainEditedCount(), 1u);
}

TEST(BwmClusterTest, ClusterIdsStaySorted) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(Binary(1)).ok());
  for (ObjectId id : {9, 3, 7, 5}) {
    EditedImageInfo info;
    info.id = id;
    info.script.base_id = 1;
    ASSERT_TRUE(collection.AddEdited(info, {}).ok());
  }
  EXPECT_EQ(collection.binary_ids(), std::vector<ObjectId>{1});
  EXPECT_EQ(collection.FindBinary(1)->cluster,
            (std::vector<ObjectId>{3, 5, 7, 9}));
  EXPECT_EQ(collection.MainEditedCount(), 4u);
  EXPECT_TRUE(collection.unclassified().empty());
}

TEST(BwmStatsTest, SkipsRulesWhenBaseSatisfies) {
  // One base that trivially satisfies the query (100% red) with widening
  // edits: BWM must accept the whole cluster without applying any rules.
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base_id =
      db->InsertBinaryImage(Image(10, 10, colors::kRed)).value();
  for (int i = 0; i < 5; ++i) {
    EditScript script;
    script.base_id = base_id;
    script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
    ASSERT_TRUE(db->InsertEditedImage(script).ok());
  }
  RangeQuery query;
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.5;
  query.max_fraction = 1.0;

  const auto bwm = db->RunRange(query, QueryMethod::kBwm);
  ASSERT_TRUE(bwm.ok());
  EXPECT_EQ(bwm->ids.size(), 6u);  // Base + 5 edits.
  EXPECT_EQ(bwm->stats.edited_images_skipped, 5);
  EXPECT_EQ(bwm->stats.rules_applied, 0);

  const auto rbm = db->RunRange(query, QueryMethod::kRbm);
  ASSERT_TRUE(rbm.ok());
  EXPECT_EQ(AsSet(rbm->ids), AsSet(bwm->ids));
  EXPECT_EQ(rbm->stats.rules_applied, 5);  // One Modify per script.
  EXPECT_EQ(rbm->stats.edited_images_skipped, 0);
}

TEST(BwmStatsTest, FallsBackToRulesWhenBaseFails) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base_id =
      db->InsertBinaryImage(Image(10, 10, colors::kBlue)).value();
  EditScript script;
  script.base_id = base_id;
  script.ops.emplace_back(ModifyOp{colors::kBlue, colors::kRed});
  ASSERT_TRUE(db->InsertEditedImage(script).ok());

  RangeQuery query;
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.5;
  query.max_fraction = 1.0;
  const auto bwm = db->RunRange(query, QueryMethod::kBwm);
  ASSERT_TRUE(bwm.ok());
  // Base (0% red) fails; the edit may be up to 100% red, so the bounds
  // must keep it.
  EXPECT_EQ(bwm->stats.edited_images_skipped, 0);
  EXPECT_EQ(bwm->stats.rules_applied, 1);
  EXPECT_EQ(AsSet(bwm->ids), AsSet({db->collection().edited_ids().front()}));
}

TEST(BwmStatsTest, UnclassifiedAlwaysPaysFullPrice) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId red =
      db->InsertBinaryImage(Image(10, 10, colors::kRed)).value();
  const ObjectId white =
      db->InsertBinaryImage(Image(10, 10, colors::kWhite)).value();
  // A non-widening script over the satisfying base: merge into white.
  EditScript script;
  script.base_id = red;
  MergeOp merge;
  merge.target = white;
  script.ops.emplace_back(merge);
  ASSERT_TRUE(db->InsertEditedImage(script).ok());

  RangeQuery query;
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.5;
  query.max_fraction = 1.0;
  const auto bwm = db->RunRange(query, QueryMethod::kBwm);
  ASSERT_TRUE(bwm.ok());
  // Even though the base satisfies, the unclassified edit needs rules.
  EXPECT_EQ(bwm->stats.edited_images_skipped, 0);
  EXPECT_EQ(bwm->stats.rules_applied, 1);
}

TEST(QueryStatsTest, AggregationOperator) {
  QueryStats a;
  a.rules_applied = 3;
  a.edited_images_skipped = 1;
  QueryStats b;
  b.rules_applied = 4;
  b.binary_images_checked = 2;
  a += b;
  EXPECT_EQ(a.rules_applied, 7);
  EXPECT_EQ(a.edited_images_skipped, 1);
  EXPECT_EQ(a.binary_images_checked, 2);
}

}  // namespace
}  // namespace mmdb
