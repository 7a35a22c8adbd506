// Scale smoke test: a database an order of magnitude larger than the
// unit-test fixtures, exercising every query method, deletion churn, and
// a deep integrity scan in one pass.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/similarity.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::AsSet;

TEST(ScaleTest, FifteenHundredImagesEndToEnd) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.kind = datasets::DatasetKind::kHelmets;
  spec.total_images = 1500;
  spec.edited_fraction = 0.8;
  spec.widening_probability = 0.75;
  spec.seed = 20061;
  datasets::DatasetStats stats;
  {
    auto built = datasets::BuildAugmentedDatabase(db.get(), spec);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    stats = std::move(built).value();
  }
  ASSERT_EQ(db->collection().BinaryCount() + db->collection().EditedCount(),
            1500u);

  // Method agreement on a workload (instantiation baseline only on the
  // first query to keep runtime sane).
  Rng rng(20063);
  const auto workload = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::HelmetPalette(), 5, rng);
  bool checked_exact = false;
  for (const RangeQuery& query : workload) {
    const auto rbm = db->RunRange(query, QueryMethod::kRbm).value();
    const auto bwm = db->RunRange(query, QueryMethod::kBwm).value();
    const auto indexed =
        db->RunRange(query, QueryMethod::kBwmIndexed).value();
    EXPECT_EQ(AsSet(rbm.ids), AsSet(bwm.ids));
    EXPECT_EQ(AsSet(bwm.ids), AsSet(indexed.ids));
    EXPECT_LE(bwm.stats.rules_applied, rbm.stats.rules_applied);
    if (!checked_exact) {
      checked_exact = true;
      const auto exact =
          db->RunRange(query, QueryMethod::kInstantiate).value();
      const auto rbm_set = AsSet(rbm.ids);
      for (ObjectId id : exact.ids) {
        EXPECT_TRUE(rbm_set.count(id));
      }
    }
  }

  // Deletion churn: drop 100 edited images, everything stays coherent.
  for (size_t i = 0; i < 100 && i < stats.edited_ids.size(); ++i) {
    ASSERT_TRUE(db->DeleteImage(stats.edited_ids[i * 3]).ok());
  }
  EXPECT_EQ(db->collection().EditedCount(), stats.edited_ids.size() - 100);
  const auto report = db->VerifyIntegrity();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Similarity search still answers over the churned database.
  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  const ColorHistogram probe = ExtractHistogram(
      testing::RandomBlockImage(24, 24, 6, rng), db->quantizer());
  const auto knn = searcher.Knn(probe, 10);
  ASSERT_TRUE(knn.ok());
  EXPECT_GE(knn->size(), 10u);
}

}  // namespace
}  // namespace mmdb
