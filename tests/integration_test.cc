#include <gtest/gtest.h>

#include "core/database.h"
#include "core/similarity.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::AsSet;

/// End-to-end scenario over every dataset kind: build an augmented
/// database, run a realistic workload through all three query methods,
/// and check the paper's cross-method relationships hold.
class EndToEnd : public ::testing::TestWithParam<datasets::DatasetKind> {};

TEST_P(EndToEnd, FullWorkloadAllMethodsConsistent) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.kind = GetParam();
  spec.total_images = 80;
  spec.edited_fraction = 0.75;
  spec.widening_probability = 0.7;
  spec.seed = 97;
  const auto stats = datasets::BuildAugmentedDatabase(db.get(), spec);
  ASSERT_TRUE(stats.ok());

  Rng rng(101);
  const auto workload = datasets::MakeRangeWorkload(
      db->quantizer(), datasets::PaletteFor(spec.kind), 10, rng);

  QueryStats rbm_total, bwm_total;
  for (const RangeQuery& query : workload) {
    const auto exact = db->RunRange(query, QueryMethod::kInstantiate);
    const auto rbm = db->RunRange(query, QueryMethod::kRbm);
    const auto bwm = db->RunRange(query, QueryMethod::kBwm);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(rbm.ok());
    ASSERT_TRUE(bwm.ok());
    // BWM == RBM exactly; both are supersets of the exact result.
    EXPECT_EQ(AsSet(rbm->ids), AsSet(bwm->ids));
    const auto rbm_set = AsSet(rbm->ids);
    for (ObjectId id : exact->ids) {
      EXPECT_TRUE(rbm_set.count(id)) << query.ToString();
    }
    rbm_total += rbm->stats;
    bwm_total += bwm->stats;
  }
  // BWM applies no more rules than RBM, ever.
  EXPECT_LE(bwm_total.rules_applied, rbm_total.rules_applied);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EndToEnd,
                         ::testing::Values(datasets::DatasetKind::kFlags,
                                           datasets::DatasetKind::kHelmets,
                                           datasets::DatasetKind::kRoadSigns));

TEST(IntegrationTest, ConventionalIndexAgreesWithProcessorsOnBinaries) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 50;
  spec.edited_fraction = 0.5;
  spec.seed = 103;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());

  Rng rng(107);
  const auto workload = datasets::MakeRangeWorkload(
      db->quantizer(), datasets::FlagPalette(), 8, rng);
  for (const RangeQuery& query : workload) {
    // The conventional access path: each binary image's stored
    // histogram answers the predicate exactly.
    std::set<ObjectId> expected;
    for (ObjectId id : db->collection().binary_ids()) {
      if (query.Satisfies(
              db->collection().FindBinary(id)->histogram.Fraction(query.bin))) {
        expected.insert(id);
      }
    }
    for (QueryMethod method :
         {QueryMethod::kRbm, QueryMethod::kBwm, QueryMethod::kBwmIndexed}) {
      const QueryResult result = db->RunRange(query, method).value();
      std::set<ObjectId> binaries;
      for (ObjectId id : result.ids) {
        if (db->collection().FindBinary(id) != nullptr) binaries.insert(id);
      }
      EXPECT_EQ(binaries, expected)
          << QueryMethodName(method) << " " << query.ToString();
    }
  }
}

TEST(IntegrationTest, AugmentationRecoversLightingVariants) {
  // The Section 1/2 motivation: a query shaped like a darkened variant of
  // a stored image fails against the original's histogram but matches the
  // augmented (recolored) variant — and the connection returns the
  // original too.
  auto db = MultimediaDatabase::Open().value();

  // Stored image: a red-dominated "sign".
  Image original(40, 40, colors::kWhite);
  original.Fill(Rect(5, 5, 35, 35), colors::kRed);
  const ObjectId stored = db->InsertBinaryImage(original).value();

  // Augmentation: a "dusk" variant with red darkened to maroon.
  EditScript dusk;
  dusk.base_id = stored;
  dusk.ops.emplace_back(ModifyOp{colors::kRed, colors::kMaroon});
  const ObjectId variant = db->InsertEditedImage(dusk).value();

  // Query: at least 30% maroon-ish pixels (what the camera saw at dusk).
  RangeQuery query;
  query.bin = db->BinOf(colors::kMaroon);
  query.min_fraction = 0.3;
  query.max_fraction = 1.0;

  const auto result = db->RunRange(query, QueryMethod::kBwm).value();
  const auto expanded = db->ExpandWithConnections(result.ids);
  EXPECT_TRUE(AsSet(expanded).count(variant));
  EXPECT_TRUE(AsSet(expanded).count(stored))
      << "connection must surface the original image";
  // Without augmentation the original alone would NOT match.
  EXPECT_FALSE(
      query.Satisfies(db->collection().FindBinary(stored)->histogram.Fraction(
          query.bin)));
}

TEST(IntegrationTest, StrictPaperModeStillEquivalentAcrossMethods) {
  // paper_strict changes bound tightness, not the BWM/RBM relationship.
  DatabaseOptions options;
  options.rule_options.paper_strict = true;
  auto db = MultimediaDatabase::Open(options).value();
  datasets::DatasetSpec spec;
  spec.total_images = 40;
  spec.edited_fraction = 0.7;
  spec.seed = 109;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  Rng rng(113);
  for (const RangeQuery& query : datasets::MakeRangeWorkload(
           db->quantizer(), datasets::FlagPalette(), 8, rng)) {
    const auto rbm = db->RunRange(query, QueryMethod::kRbm).value();
    const auto bwm = db->RunRange(query, QueryMethod::kBwm).value();
    EXPECT_EQ(AsSet(rbm.ids), AsSet(bwm.ids));
  }
}

TEST(IntegrationTest, EditedStorageIsSmallerThanRasterStorage) {
  // The premise of edit-sequence storage (Section 2): scripts are orders
  // of magnitude smaller than rasters.
  auto db = MultimediaDatabase::Open().value();
  Rng rng(127);
  const auto flags = datasets::MakeFlagImages(1, rng);
  const ObjectId base = db->InsertBinaryImage(flags[0].image).value();
  EditScript script = datasets::MakeRandomScript(
      base, flags[0].image.width(), flags[0].image.height(),
      /*all_widening=*/true, 8, datasets::FlagPalette(), {}, rng);
  const size_t raster_bytes =
      db->object_store().Get(catalog_keys::RasterKey(base)).value().size();
  const ObjectId edited = db->InsertEditedImage(script).value();
  const size_t script_bytes =
      db->object_store().Get(catalog_keys::ScriptKey(edited)).value().size();
  EXPECT_LT(script_bytes * 20, raster_bytes)
      << "script=" << script_bytes << " raster=" << raster_bytes;
}

}  // namespace
}  // namespace mmdb
