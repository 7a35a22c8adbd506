#include <gtest/gtest.h>

#include "core/database.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

TEST(IntegrityTest, FreshDatabasePassesDeepScan) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 30;
  spec.edited_fraction = 0.7;
  spec.seed = 701;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  const auto report = db->VerifyIntegrity(/*deep_pixels=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->binary_images_checked,
            static_cast<int64_t>(db->collection().BinaryCount()));
  EXPECT_EQ(report->edited_images_checked,
            static_cast<int64_t>(db->collection().EditedCount()));
  EXPECT_EQ(report->rasters_verified, report->binary_images_checked);
  EXPECT_EQ(report->scripts_verified, report->edited_images_checked);
}

// Every insert and delete keeps Figure 1's classification (each edited
// image in its base's Main cluster exactly when its script is
// all-widening), and BWM keeps RBM's answer set.
TEST(IntegrityTest, SurvivesInsertDeleteChurn) {
  auto db = MultimediaDatabase::Open().value();
  Rng rng(703);
  std::vector<ObjectId> bases, edits;
  for (int round = 0; round < 40; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.4 || bases.empty()) {
      bases.push_back(
          db->InsertBinaryImage(testing::RandomBlockImage(12, 12, 6, rng))
              .value());
    } else if (action < 0.8) {
      EditScript script = testing::RandomScript(
          bases[rng.Uniform(bases.size())], 12, 12,
          static_cast<int>(rng.UniformInt(1, 5)), {}, rng);
      edits.push_back(db->InsertEditedImage(script).value());
    } else if (action < 0.9 && !edits.empty()) {
      const size_t pick = rng.Uniform(edits.size());
      ASSERT_TRUE(db->DeleteImage(edits[pick]).ok());
      edits.erase(edits.begin() + static_cast<ptrdiff_t>(pick));
    } else if (bases.size() > 1) {
      // A binary image goes only once nothing derives from it.
      const size_t pick = rng.Uniform(bases.size());
      bool referenced = false;
      for (ObjectId id : edits) {
        referenced |= db->collection().FindEdited(id)->script.base_id ==
                      bases[pick];
      }
      const Status deleted = db->DeleteImage(bases[pick]);
      ASSERT_EQ(deleted.ok(), !referenced) << deleted.ToString();
      if (deleted.ok()) {
        bases.erase(bases.begin() + static_cast<ptrdiff_t>(pick));
      }
    }
    const auto report = db->VerifyIntegrity();
    ASSERT_TRUE(report.ok()) << "round " << round << ": "
                             << report.status().ToString();
    const RangeQuery window = datasets::MakeGroundedRangeWorkload(
        db->collection(), db->quantizer(), testing::TestPalette(), 1, rng)[0];
    EXPECT_EQ(testing::AsSet(db->RunRange(window, QueryMethod::kBwm)->ids),
              testing::AsSet(db->RunRange(window, QueryMethod::kRbm)->ids))
        << "round " << round << ": " << window.ToString();
  }
}

TEST(IntegrityTest, ReopenedDiskDatabasePasses) {
  const std::string path = TempPath("mmdb_integrity.db");
  RemoveStoreFiles(path);
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    datasets::DatasetSpec spec;
    spec.total_images = 20;
    spec.edited_fraction = 0.6;
    spec.seed = 705;
    ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  const auto report = db->VerifyIntegrity(/*deep_pixels=*/true);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
