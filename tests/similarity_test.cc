#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/database.h"
#include "core/instantiate.h"
#include "core/similarity.h"
#include "datasets/augment.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

TEST(SimilarityTest, DistanceIntervalDegeneratesToExact) {
  // When lo == hi per bin, the interval is the exact L1 distance.
  const std::vector<double> query = {0.5, 0.5, 0.0};
  const std::vector<int32_t> point = {1, 2, 1};  // {0.25, 0.5, 0.25} of 4.
  const SimilarityMatch match = SimilaritySearcher::DistanceInterval(
      1, query, BoundsRow{point.data(), point.data(), 3, 4, 0});
  EXPECT_NEAR(match.distance_lo, 0.5, 1e-12);
  EXPECT_NEAR(match.distance_hi, 0.5, 1e-12);
}

TEST(SimilarityTest, DistanceIntervalBracketsAnyRealization) {
  const std::vector<double> query = {0.4, 0.6};
  const std::vector<int32_t> hb_min = {2, 1};  // {0.2, 0.1} of 10.
  const std::vector<int32_t> hb_max = {6, 9};  // {0.6, 0.9} of 10.
  const BoundsRow bounds{hb_min.data(), hb_max.data(), 2, 10, 0};
  const SimilarityMatch match =
      SimilaritySearcher::DistanceInterval(1, query, bounds);
  // Any realization x with lo <= x <= hi must fall inside.
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    double dist = 0;
    for (size_t d = 0; d < query.size(); ++d) {
      const FractionBounds bin = bounds.Fraction(d);
      const double x = rng.UniformDouble(bin.min_fraction, bin.max_fraction);
      dist += std::fabs(x - query[d]);
    }
    EXPECT_GE(dist, match.distance_lo - 1e-12);
    EXPECT_LE(dist, match.distance_hi + 1e-12);
  }
}

class SimilarityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityProperty, IntervalContainsExactDistance) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 30;
  spec.edited_fraction = 0.7;
  spec.seed = GetParam();
  const auto stats = datasets::BuildAugmentedDatabase(db.get(), spec);
  ASSERT_TRUE(stats.ok());

  const InstantiationQueryProcessor exact_processor(
      &db->collection(), &db->quantizer(), db->MakePixelResolver());

  Rng rng(GetParam() * 3 + 1);
  const ColorHistogram query = ExtractHistogram(
      testing::RandomBlockImage(24, 24, 6, rng), db->quantizer());
  const std::vector<double> query_fractions = query.Normalized();

  const std::vector<ObjectId>& ids = db->collection().edited_ids();
  for (size_t i = 0; i < ids.size(); ++i) {
    const ObjectId id = ids[i];
    const EditedImageInfo* edited = db->collection().FindEdited(id);
    const SimilarityMatch match = SimilaritySearcher::DistanceInterval(
        id, query_fractions, db->collection().edited_bounds()[i]);
    const auto exact_hist = exact_processor.ExactHistogram(*edited);
    ASSERT_TRUE(exact_hist.ok());
    const double exact = L1Distance(query, *exact_hist);
    EXPECT_GE(exact, match.distance_lo - 1e-9) << "object " << id;
    EXPECT_LE(exact, match.distance_hi + 1e-9) << "object " << id;
  }
}

TEST_P(SimilarityProperty, KnnCandidatesContainTrueTopK) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 24;
  spec.edited_fraction = 0.6;
  spec.seed = GetParam() + 77;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());

  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  const InstantiationQueryProcessor exact_processor(
      &db->collection(), &db->quantizer(), db->MakePixelResolver());

  Rng rng(GetParam() * 5 + 2);
  const ColorHistogram query = ExtractHistogram(
      testing::RandomBlockImage(20, 20, 6, rng), db->quantizer());

  constexpr size_t kK = 5;
  const auto candidates = searcher.Knn(query, kK);
  ASSERT_TRUE(candidates.ok());

  // Brute-force true distances over everything.
  std::vector<std::pair<double, ObjectId>> truth;
  for (ObjectId id : db->collection().binary_ids()) {
    truth.emplace_back(
        L1Distance(query, db->collection().FindBinary(id)->histogram), id);
  }
  for (ObjectId id : db->collection().edited_ids()) {
    const auto hist =
        exact_processor.ExactHistogram(*db->collection().FindEdited(id));
    ASSERT_TRUE(hist.ok());
    truth.emplace_back(L1Distance(query, *hist), id);
  }
  std::sort(truth.begin(), truth.end());

  std::set<ObjectId> candidate_ids;
  for (const SimilarityMatch& match : *candidates) {
    candidate_ids.insert(match.id);
  }
  for (size_t i = 0; i < std::min(kK, truth.size()); ++i) {
    EXPECT_TRUE(candidate_ids.count(truth[i].second))
        << "true rank-" << i << " neighbor " << truth[i].second
        << " missing from candidate set";
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, SimilarityProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

TEST(SimilarityTest, KnnStatsCountWork) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base =
      db->InsertBinaryImage(Image(8, 8, colors::kRed)).value();
  EditScript script;
  script.base_id = base;
  script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  ASSERT_TRUE(db->InsertEditedImage(script).ok());

  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  QueryStats stats;
  const ColorHistogram query =
      ExtractHistogram(Image(8, 8, colors::kRed), db->quantizer());
  ASSERT_TRUE(searcher.Knn(query, 1, &stats).ok());
  EXPECT_EQ(stats.binary_images_checked, 1);
  EXPECT_EQ(stats.edited_images_bounded, 1);
  // One op folded once per bin.
  EXPECT_EQ(stats.rules_applied, db->quantizer().BinCount());
}

TEST(SimilarityTest, ExactMatchRanksFirst) {
  auto db = MultimediaDatabase::Open().value();
  Rng rng(19);
  ObjectId wanted = kInvalidObjectId;
  Image wanted_image;
  for (int i = 0; i < 10; ++i) {
    const Image image = testing::RandomBlockImage(16, 16, 6, rng);
    const ObjectId id = db->InsertBinaryImage(image).value();
    if (i == 4) {
      wanted = id;
      wanted_image = image;
    }
  }
  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  const ColorHistogram query =
      ExtractHistogram(wanted_image, db->quantizer());
  const auto matches = searcher.Knn(query, 1);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ(matches->front().id, wanted);
  EXPECT_NEAR(matches->front().distance_lo, 0.0, 1e-12);
}

}  // namespace
}  // namespace mmdb
