#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/database.h"
#include "core/instantiate.h"
#include "core/similarity.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

TEST(SimilarityRangeTest, RejectsNegativeRadius) {
  auto db = MultimediaDatabase::Open().value();
  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  const ColorHistogram query(db->quantizer().BinCount());
  EXPECT_FALSE(searcher.WithinDistance(query, -0.1).ok());
}

TEST(SimilarityRangeTest, RejectsNaNRadius) {
  // NaN fails every comparison, so a plain `radius < 0` test lets it in
  // and the answer comes back empty instead of an error.
  auto db = MultimediaDatabase::Open().value();
  Rng rng(1402);
  const Image image = testing::RandomBlockImage(16, 16, 6, rng);
  db->InsertBinaryImage(image).value();
  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  const auto answer =
      searcher.WithinDistance(ExtractHistogram(image, db->quantizer()),
                              std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimilarityRangeTest, ExactSelfMatchIsCertainAtRadiusZero) {
  auto db = MultimediaDatabase::Open().value();
  Rng rng(1401);
  const Image image = testing::RandomBlockImage(16, 16, 6, rng);
  const ObjectId id = db->InsertBinaryImage(image).value();
  db->InsertBinaryImage(testing::RandomBlockImage(16, 16, 6, rng)).value();

  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  const ColorHistogram query = ExtractHistogram(image, db->quantizer());
  const auto answer = searcher.WithinDistance(query, 0.0).value();
  ASSERT_GE(answer.certain.size(), 1u);
  EXPECT_EQ(answer.certain.front().id, id);
}

TEST(SimilarityRangeTest, RadiusTwoIsCertainForEverything) {
  // L1 over distributions never exceeds 2; even maximally widened
  // edited-image intervals are clamped there.
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 20;
  spec.edited_fraction = 0.6;
  spec.seed = 1403;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  const ColorHistogram query =
      ExtractHistogram(Image(8, 8, colors::kRed), db->quantizer());
  const auto answer = searcher.WithinDistance(query, 2.0).value();
  EXPECT_EQ(answer.certain.size() + answer.candidates.size(),
            db->collection().BinaryCount() + db->collection().EditedCount());
  EXPECT_TRUE(answer.candidates.empty());
}

class SimilarityRangeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityRangeProperty, CertainAndCandidatesBracketTruth) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 24;
  spec.edited_fraction = 0.65;
  spec.seed = GetParam();
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());

  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  const InstantiationQueryProcessor exact_processor(
      &db->collection(), &db->quantizer(), db->MakePixelResolver());
  Rng rng(GetParam() * 7 + 3);
  const ColorHistogram query = ExtractHistogram(
      testing::RandomBlockImage(20, 20, 6, rng), db->quantizer());

  for (double radius : {0.2, 0.5, 1.0}) {
    const auto answer = searcher.WithinDistance(query, radius).value();
    std::set<ObjectId> certain, candidates;
    for (const auto& match : answer.certain) certain.insert(match.id);
    for (const auto& match : answer.candidates) {
      candidates.insert(match.id);
    }
    // Disjoint by construction.
    for (ObjectId id : certain) {
      EXPECT_FALSE(candidates.count(id));
    }
    // Ground truth via exact distances.
    auto exact_distance = [&](ObjectId id) -> double {
      if (const BinaryImageInfo* binary = db->collection().FindBinary(id)) {
        return L1Distance(query, binary->histogram);
      }
      return L1Distance(query, exact_processor
                                   .ExactHistogram(
                                       *db->collection().FindEdited(id))
                                   .value());
    };
    auto all_ids = db->collection().binary_ids();
    all_ids.insert(all_ids.end(), db->collection().edited_ids().begin(),
                   db->collection().edited_ids().end());
    for (ObjectId id : all_ids) {
      const double d = exact_distance(id);
      if (d <= radius) {
        // Every true match is certain or candidate (no false negatives).
        EXPECT_TRUE(certain.count(id) || candidates.count(id))
            << "radius " << radius << " object " << id << " d=" << d;
      }
      if (certain.count(id)) {
        // Certain answers are never wrong.
        EXPECT_LE(d, radius + 1e-9) << "object " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, SimilarityRangeProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

}  // namespace
}  // namespace mmdb
