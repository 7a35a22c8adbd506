// Read-side thread-safety contract: any number of threads may query the
// same `MultimediaDatabase` concurrently. The rule-based processors
// mutate nothing (each call builds its own processor and resolver
// state); paths that read pixels go through the object store, which
// serializes its own I/O.

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
using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

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

// Pixel reads share one disk store's buffer pool: two threads run
// kInstantiate ranges (every edited image instantiated from its base's
// raster) while two fetch every image, through a pool far smaller than
// the page file, so frames are evicted and refilled under each other.
TEST(ConcurrencyTest, DiskStoreServesConcurrentPixelReads) {
  const std::string path = TempPath("mmdb_concurrent_reads.db");
  RemoveStoreFiles(path);
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 8;
  auto db = MultimediaDatabase::Open(options).value();
  datasets::DatasetSpec spec;
  spec.total_images = 24;
  spec.edited_fraction = 0.6;
  spec.seed = 1809;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  ASSERT_TRUE(db->Flush().ok());

  Rng rng(1811);
  const auto workload = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 4, rng);
  std::vector<std::vector<ObjectId>> expected;
  for (const RangeQuery& query : workload) {
    expected.push_back(
        db->RunRange(query, QueryMethod::kInstantiate).value().ids);
  }
  std::vector<ObjectId> ids = db->collection().binary_ids();
  ids.insert(ids.end(), db->collection().edited_ids().begin(),
             db->collection().edited_ids().end());

  std::atomic<int> wrong_answers{0};
  std::atomic<int> failed_fetches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        if (t % 2 == 0) {
          for (size_t q = 0; q < workload.size(); ++q) {
            const auto result =
                db->RunRange(workload[q], QueryMethod::kInstantiate);
            if (!result.ok() || result->ids != expected[q]) ++wrong_answers;
          }
        } else {
          for (ObjectId id : ids) {
            if (!db->GetImage(id).ok()) ++failed_fetches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong_answers.load(), 0);
  EXPECT_EQ(failed_fetches.load(), 0);
  EXPECT_TRUE(db->QuarantinedImages().empty());
  db.reset();
  RemoveStoreFiles(path);
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
