#include <gtest/gtest.h>

#include "core/database.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::AnswerOf;
using mmdb::testing::AsSet;
using mmdb::testing::TempPath;

class IndexedBwmEquivalence : public ::testing::TestWithParam<uint64_t> {};

// kBwmIndexed runs kBwm's scan: the same ids in the same order and the
// same counters, for ranges and for 2- and 3-conjunct conjunctions.
TEST_P(IndexedBwmEquivalence, IdenticalResultSetsToPlainBwm) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 60;
  spec.edited_fraction = 0.7;
  spec.seed = GetParam();
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());

  Rng rng(GetParam() * 11 + 1);
  const auto workload = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 10, rng);
  for (const RangeQuery& query : workload) {
    const auto bwm = db->RunRange(query, QueryMethod::kBwm).value();
    const auto indexed =
        db->RunRange(query, QueryMethod::kBwmIndexed).value();
    EXPECT_EQ(AnswerOf(bwm), AnswerOf(indexed)) << query.ToString();
  }
  for (size_t i = 0; i + 2 < workload.size(); ++i) {
    for (const ConjunctiveQuery& query :
         {ConjunctiveQuery{{workload[i], workload[i + 1]}},
          ConjunctiveQuery{{workload[i], workload[i + 1], workload[i + 2]}}}) {
      const auto bwm = db->RunConjunctive(query, QueryMethod::kBwm).value();
      const auto indexed =
          db->RunConjunctive(query, QueryMethod::kBwmIndexed).value();
      EXPECT_EQ(AnswerOf(bwm), AnswerOf(indexed)) << query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, IndexedBwmEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

TEST(IndexedBwmTest, IndexStaysInSyncThroughInsertAndDelete) {
  auto db = MultimediaDatabase::Open().value();
  Rng rng(1601);
  std::vector<ObjectId> binaries;
  for (int i = 0; i < 10; ++i) {
    binaries.push_back(
        db->InsertBinaryImage(testing::RandomBlockImage(14, 14, 6, rng))
            .value());
  }
  ASSERT_TRUE(db->DeleteImage(binaries[3]).ok());
  ASSERT_TRUE(db->DeleteImage(binaries[7]).ok());

  RangeQuery query;
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.0;
  query.max_fraction = 1.0;  // Matches everything left.
  const auto result = db->RunRange(query, QueryMethod::kBwmIndexed).value();
  EXPECT_EQ(result.ids.size(), 8u);
  EXPECT_FALSE(AsSet(result.ids).count(binaries[3]));
}

TEST(IndexedBwmTest, ReopenedDatabaseRebuildsIndex) {
  const std::string path = TempPath("mmdb_ibwm_test.db");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  RangeQuery query;
  std::set<ObjectId> before;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    datasets::DatasetSpec spec;
    spec.total_images = 24;
    spec.edited_fraction = 0.6;
    spec.seed = 1603;
    ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
    query.bin = db->BinOf(colors::kRed);
    query.min_fraction = 0.1;
    query.max_fraction = 0.9;
    before =
        AsSet(db->RunRange(query, QueryMethod::kBwmIndexed).value().ids);
    ASSERT_TRUE(db->Flush().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  EXPECT_EQ(AsSet(db->RunRange(query, QueryMethod::kBwmIndexed).value().ids),
            before);
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

TEST(IndexedBwmTest, ConjunctiveFallsBackToPlainBwm) {
  auto db = MultimediaDatabase::Open().value();
  ASSERT_TRUE(db->InsertBinaryImage(Image(8, 8, colors::kRed)).ok());
  ConjunctiveQuery query;
  query.conjuncts.push_back({db->BinOf(colors::kRed), 0.5, 1.0});
  const auto a = db->RunConjunctive(query, QueryMethod::kBwm).value();
  const auto b =
      db->RunConjunctive(query, QueryMethod::kBwmIndexed).value();
  EXPECT_EQ(AsSet(a.ids), AsSet(b.ids));
}

}  // namespace
}  // namespace mmdb
