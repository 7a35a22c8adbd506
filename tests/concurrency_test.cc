// Read-side thread-safety contract: the query processors over an
// in-memory database mutate nothing, so any number of threads may query
// the same `MultimediaDatabase` concurrently (each call builds its own
// processor and resolver state). Disk-backed retrieval goes through the
// buffer pool, which is NOT thread-safe — that boundary is documented on
// the facade; these tests cover the supported read paths.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/similarity.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::AsSet;

TEST(ConcurrencyTest, ParallelRangeQueriesAgreeWithSerialAnswers) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 50;
  spec.edited_fraction = 0.7;
  spec.seed = 1801;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());

  Rng rng(1803);
  const auto workload = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 12, rng);

  // Serial ground truth.
  std::vector<std::set<ObjectId>> expected;
  for (const RangeQuery& query : workload) {
    expected.push_back(
        AsSet(db->RunRange(query, QueryMethod::kBwm).value().ids));
  }

  // Hammer the same workload from several threads, all methods.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      const QueryMethod method =
          t % 3 == 0   ? QueryMethod::kRbm
          : t % 3 == 1 ? QueryMethod::kBwm
                       : QueryMethod::kBwmIndexed;
      for (int round = 0; round < 5; ++round) {
        for (size_t q = 0; q < workload.size(); ++q) {
          const auto result = db->RunRange(workload[q], method);
          if (!result.ok() || AsSet(result->ids) != expected[q]) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ScaleBracketMemoIsPerThread) {
  // Each thread fills and evicts its own memo of the Mutate scale
  // bracket; 4200 keys overflow it, so every thread also recomputes.
  const RuleEngine engine(ColorQuantizer(4));
  std::vector<std::string> mismatches(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&engine, &mismatches, t] {
      mismatches[t] = mmdb::testing::ScaleBracketMismatch(engine, 600);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& mismatch : mismatches) EXPECT_EQ(mismatch, "");
}

TEST(ConcurrencyTest, ParallelSimilaritySearches) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 30;
  spec.edited_fraction = 0.6;
  spec.seed = 1805;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());

  Rng rng(1807);
  const ColorHistogram query = ExtractHistogram(
      testing::RandomBlockImage(16, 16, 6, rng), db->quantizer());

  // Serial answer first.
  const SimilaritySearcher serial(&db->collection(), &db->rule_engine());
  const std::vector<SimilarityMatch> serial_matches =
      serial.Knn(query, 5).value();
  std::set<ObjectId> expected;
  for (const auto& match : serial_matches) {
    expected.insert(match.id);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      const SimilaritySearcher searcher(&db->collection(),
                                        &db->rule_engine());
      for (int round = 0; round < 3; ++round) {
        const auto matches = searcher.Knn(query, 5);
        if (!matches.ok()) {
          ++failures;
          return;
        }
        std::set<ObjectId> got;
        for (const auto& match : *matches) got.insert(match.id);
        if (got != expected) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mmdb
