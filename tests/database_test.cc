#include <gtest/gtest.h>

#include <cstdio>

#include "core/database.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::AsSet;
using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

TEST(DatabaseTest, InsertAndRetrieveBinaryImage) {
  auto db = MultimediaDatabase::Open().value();
  Rng rng(21);
  const Image image = testing::RandomBlockImage(20, 15, 6, rng);
  const ObjectId id = db->InsertBinaryImage(image).value();
  const auto loaded = db->GetImage(id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, image);
}

TEST(DatabaseTest, RejectsEmptyImage) {
  auto db = MultimediaDatabase::Open().value();
  EXPECT_EQ(db->InsertBinaryImage(Image()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, EditedImageInstantiatesOnRetrieval) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base =
      db->InsertBinaryImage(Image(10, 10, colors::kRed)).value();
  EditScript script;
  script.base_id = base;
  script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  const ObjectId edited = db->InsertEditedImage(script).value();
  const auto image = db->GetImage(edited);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->CountColor(colors::kBlue), 100);
}

TEST(DatabaseTest, EditedImageValidation) {
  auto db = MultimediaDatabase::Open().value();
  EditScript script;
  script.base_id = 999;  // Missing base.
  EXPECT_EQ(db->InsertEditedImage(script).status().code(),
            StatusCode::kNotFound);

  const ObjectId base =
      db->InsertBinaryImage(Image(4, 4, colors::kRed)).value();
  script.base_id = base;
  MergeOp merge;
  merge.target = 888;  // Missing merge target.
  script.ops.emplace_back(merge);
  EXPECT_EQ(db->InsertEditedImage(script).status().code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, GetMissingImageFails) {
  auto db = MultimediaDatabase::Open().value();
  EXPECT_EQ(db->GetImage(12345).status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, RunRangeValidatesQuery) {
  auto db = MultimediaDatabase::Open().value();
  RangeQuery query;
  query.bin = -1;
  EXPECT_FALSE(db->RunRange(query, QueryMethod::kRbm).ok());
  query.bin = 100000;
  EXPECT_FALSE(db->RunRange(query, QueryMethod::kRbm).ok());
  query.bin = 0;
  query.min_fraction = 0.9;
  query.max_fraction = 0.1;
  EXPECT_FALSE(db->RunRange(query, QueryMethod::kRbm).ok());
}

TEST(DatabaseTest, ExpandWithConnectionsAddsBases) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base =
      db->InsertBinaryImage(Image(8, 8, colors::kGreen)).value();
  EditScript script;
  script.base_id = base;
  script.ops.emplace_back(ModifyOp{colors::kGreen, colors::kRed});
  const ObjectId edited = db->InsertEditedImage(script).value();
  const auto expanded = db->ExpandWithConnections({edited});
  EXPECT_EQ(AsSet(expanded), AsSet({base, edited}));
  // Already-expanded sets are stable.
  EXPECT_EQ(AsSet(db->ExpandWithConnections(expanded)),
            AsSet({base, edited}));
}

TEST(DatabaseTest, ThreeMethodsAgreeOnBinaryOnlyDatabase) {
  auto db = MultimediaDatabase::Open().value();
  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db->InsertBinaryImage(testing::RandomBlockImage(12, 12, 6, rng))
            .ok());
  }
  RangeQuery query;
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.1;
  query.max_fraction = 0.9;
  const auto a = db->RunRange(query, QueryMethod::kInstantiate).value();
  const auto b = db->RunRange(query, QueryMethod::kRbm).value();
  const auto c = db->RunRange(query, QueryMethod::kBwm).value();
  EXPECT_EQ(AsSet(a.ids), AsSet(b.ids));
  EXPECT_EQ(AsSet(b.ids), AsSet(c.ids));
}

TEST(DatabaseTest, DiskDatabasePersistsAcrossReopen) {
  const std::string path = TempPath("mmdb_db_test.db");
  RemoveStoreFiles(path);

  std::vector<ObjectId> binary_ids;
  ObjectId edited_id;
  Image original;
  {
    DatabaseOptions options;
    options.path = path;
    options.quantizer_divisions = 4;
    auto db = MultimediaDatabase::Open(options).value();
    Rng rng(29);
    original = testing::RandomBlockImage(16, 12, 6, rng);
    binary_ids.push_back(db->InsertBinaryImage(original).value());
    binary_ids.push_back(
        db->InsertBinaryImage(Image(8, 8, colors::kNavy)).value());
    EditScript script;
    script.base_id = binary_ids[0];
    script.ops.emplace_back(ModifyOp{colors::kRed, colors::kGold});
    edited_id = db->InsertEditedImage(script).value();
    ASSERT_TRUE(db->Flush().ok());
  }

  DatabaseOptions options;
  options.path = path;
  options.quantizer_divisions = 8;  // Must be overridden by persisted value.
  auto db = MultimediaDatabase::Open(options).value();
  EXPECT_EQ(db->quantizer().divisions(), 4);
  EXPECT_EQ(db->collection().BinaryCount(), 2u);
  EXPECT_EQ(db->collection().EditedCount(), 1u);
  // Raster round-trips byte-exactly.
  EXPECT_EQ(db->GetImage(binary_ids[0]).value(), original);
  // The edited image reloads with its script and classification.
  const EditedImageInfo* edited = db->collection().FindEdited(edited_id);
  ASSERT_NE(edited, nullptr);
  EXPECT_EQ(edited->script.base_id, binary_ids[0]);
  EXPECT_EQ(db->collection().MainEditedCount(), 1u);
  // New inserts continue from the persisted id counter.
  const ObjectId next =
      db->InsertBinaryImage(Image(4, 4, colors::kRed)).value();
  EXPECT_GT(next, edited_id);
  RemoveStoreFiles(path);
}

TEST(DatabaseTest, ReopenedDatabaseAnswersQueriesIdentically) {
  const std::string path = TempPath("mmdb_db_requery.db");
  RemoveStoreFiles(path);
  RangeQuery query;
  std::set<ObjectId> before;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    datasets::DatasetSpec spec;
    spec.total_images = 30;
    spec.edited_fraction = 0.7;
    spec.seed = 31;
    ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
    query.bin = db->BinOf(colors::kRed);
    query.min_fraction = 0.2;
    query.max_fraction = 0.8;
    before = AsSet(db->RunRange(query, QueryMethod::kBwm).value().ids);
    ASSERT_TRUE(db->Flush().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  const auto after = AsSet(db->RunRange(query, QueryMethod::kBwm).value().ids);
  EXPECT_EQ(before, after);
  RemoveStoreFiles(path);
}

TEST(DatabaseTest, MergeTargetChainsInstantiate) {
  // Edited image whose merge target is itself an edited image.
  auto db = MultimediaDatabase::Open().value();
  const ObjectId red =
      db->InsertBinaryImage(Image(6, 6, colors::kRed)).value();
  const ObjectId white =
      db->InsertBinaryImage(Image(6, 6, colors::kWhite)).value();

  EditScript to_blue;  // Edited target: white -> blue.
  to_blue.base_id = white;
  to_blue.ops.emplace_back(ModifyOp{colors::kWhite, colors::kBlue});
  const ObjectId blue_edit = db->InsertEditedImage(to_blue).value();

  EditScript paste;  // Paste red's top half onto the blue edit.
  paste.base_id = red;
  paste.ops.emplace_back(DefineOp{Rect(0, 0, 6, 3)});
  MergeOp merge;
  merge.target = blue_edit;
  merge.x = 0;
  merge.y = 0;
  paste.ops.emplace_back(merge);
  const ObjectId combined = db->InsertEditedImage(paste).value();

  const auto image = db->GetImage(combined);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->CountColor(colors::kRed), 18);
  EXPECT_EQ(image->CountColor(colors::kBlue), 18);

  // And the rule engine bounds it correctly through the recursion.
  RangeQuery query;
  query.bin = db->BinOf(colors::kBlue);
  query.min_fraction = 0.4;
  query.max_fraction = 0.6;
  const auto rbm = db->RunRange(query, QueryMethod::kRbm);
  ASSERT_TRUE(rbm.ok());
  EXPECT_TRUE(AsSet(rbm->ids).count(combined));
}

}  // namespace
}  // namespace mmdb
