#include <gtest/gtest.h>

#include "core/database.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

/// Runs queries through `db`'s facade with one fixed method, so the
/// serial and parallel scans are compared side by side.
struct FacadeRunner {
  const MultimediaDatabase* db;
  QueryMethod method;

  Result<QueryResult> RunRange(const RangeQuery& query) const {
    return db->RunRange(query, method);
  }
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query) const {
    return db->RunConjunctive(query, method);
  }
};

/// A database whose shared pool runs kParallelRbm `threads`-way.
DatabaseOptions WithThreads(int threads) {
  DatabaseOptions options;
  options.query_threads = threads;
  return options;
}

class ParallelScan : public ::testing::TestWithParam<int> {};

TEST_P(ParallelScan, IdenticalToSerialIncludingOrder) {
  auto db = MultimediaDatabase::Open(WithThreads(GetParam())).value();
  datasets::DatasetSpec spec;
  spec.total_images = 60;
  spec.edited_fraction = 0.75;
  spec.seed = 811;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());

  const FacadeRunner serial{db.get(), QueryMethod::kRbm};
  const FacadeRunner parallel{db.get(), QueryMethod::kParallelRbm};
  Rng rng(813);
  const auto workload = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 10, rng);
  for (const RangeQuery& query : workload) {
    const auto a = serial.RunRange(query);
    const auto b = parallel.RunRange(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Chunk-ordered concatenation reproduces the serial order exactly.
    EXPECT_EQ(a->ids, b->ids) << query.ToString();
    EXPECT_EQ(a->stats.rules_applied, b->stats.rules_applied);
    EXPECT_EQ(a->stats.edited_images_bounded,
              b->stats.edited_images_bounded);
  }
}

TEST_P(ParallelScan, ConjunctiveIdenticalToSerialIncludingOrder) {
  auto db = MultimediaDatabase::Open(WithThreads(GetParam())).value();
  datasets::DatasetSpec spec;
  spec.total_images = 60;
  spec.edited_fraction = 0.75;
  spec.seed = 821;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());

  const FacadeRunner serial{db.get(), QueryMethod::kRbm};
  const FacadeRunner parallel{db.get(), QueryMethod::kParallelRbm};
  Rng rng(823);
  const auto windows = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 12, rng);
  for (size_t i = 0; i + 1 < windows.size(); i += 2) {
    ConjunctiveQuery query;
    query.conjuncts.push_back(windows[i]);
    query.conjuncts.push_back(windows[i + 1]);
    const auto a = serial.RunConjunctive(query);
    const auto b = parallel.RunConjunctive(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->ids, b->ids) << query.ToString();
    EXPECT_EQ(a->stats.rules_applied, b->stats.rules_applied);
    EXPECT_EQ(a->stats.edited_images_bounded,
              b->stats.edited_images_bounded);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelScan,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelScanTest, HandlesEmptyAndTinyCollections) {
  auto db = MultimediaDatabase::Open(WithThreads(4)).value();
  const FacadeRunner parallel{db.get(), QueryMethod::kParallelRbm};
  RangeQuery query;
  query.bin = 0;
  EXPECT_TRUE(parallel.RunRange(query).value().ids.empty());

  const ObjectId base =
      db->InsertBinaryImage(Image(4, 4, colors::kRed)).value();
  EditScript script;
  script.base_id = base;
  script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  ASSERT_TRUE(db->InsertEditedImage(script).ok());
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.5;
  query.max_fraction = 1.0;
  // More threads than edited images.
  const auto result = parallel.RunRange(query).value();
  EXPECT_EQ(result.ids.size(), 2u);
}

TEST(ParallelScanTest, MergeTargetsResolveAcrossThreads) {
  // Scripts whose merge targets are other edited images exercise the
  // per-thread recursive resolvers.
  auto db = MultimediaDatabase::Open(WithThreads(4)).value();
  const ObjectId red =
      db->InsertBinaryImage(Image(8, 8, colors::kRed)).value();
  const ObjectId white =
      db->InsertBinaryImage(Image(8, 8, colors::kWhite)).value();
  std::vector<ObjectId> chain = {white};
  for (int i = 0; i < 12; ++i) {
    EditScript script;
    script.base_id = red;
    MergeOp merge;
    merge.target = chain.back();
    merge.x = 0;
    merge.y = 0;
    script.ops.emplace_back(merge);
    chain.push_back(db->InsertEditedImage(script).value());
  }
  const FacadeRunner serial{db.get(), QueryMethod::kRbm};
  const FacadeRunner parallel{db.get(), QueryMethod::kParallelRbm};
  RangeQuery query;
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.3;
  query.max_fraction = 1.0;
  const auto a = serial.RunRange(query);
  const auto b = parallel.RunRange(query);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->ids, b->ids);
}

}  // namespace
}  // namespace mmdb
