#include <gtest/gtest.h>

#include <cstdio>

#include "core/database.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::AsSet;
using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

struct Fixture {
  std::unique_ptr<MultimediaDatabase> db;
  ObjectId base;
  ObjectId edited;

  static Fixture Make() {
    Fixture f;
    f.db = MultimediaDatabase::Open().value();
    f.base = f.db->InsertBinaryImage(Image(8, 8, colors::kRed)).value();
    EditScript script;
    script.base_id = f.base;
    script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
    f.edited = f.db->InsertEditedImage(script).value();
    return f;
  }
};

TEST(DeletionTest, DeleteEditedImage) {
  Fixture f = Fixture::Make();
  ASSERT_TRUE(f.db->DeleteImage(f.edited).ok());
  EXPECT_EQ(f.db->collection().EditedCount(), 0u);
  EXPECT_EQ(f.db->GetImage(f.edited).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(f.db->collection().MainEditedCount(), 0u);
  // The script blob is gone from the object store.
  EXPECT_FALSE(f.db->object_store().Contains(
      catalog_keys::ScriptKey(f.edited)));
  // The base remains queryable.
  EXPECT_TRUE(f.db->GetImage(f.base).ok());
}

TEST(DeletionTest, BinaryWithDependentsIsProtected) {
  Fixture f = Fixture::Make();
  EXPECT_EQ(f.db->DeleteImage(f.base).code(), StatusCode::kInvalidArgument);
  // Remove the dependent first, then the base deletes fine.
  ASSERT_TRUE(f.db->DeleteImage(f.edited).ok());
  ASSERT_TRUE(f.db->DeleteImage(f.base).ok());
  EXPECT_EQ(f.db->collection().BinaryCount(), 0u);
  EXPECT_FALSE(
      f.db->object_store().Contains(catalog_keys::RasterKey(f.base)));
}

TEST(DeletionTest, MergeTargetIsProtected) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId red =
      db->InsertBinaryImage(Image(6, 6, colors::kRed)).value();
  const ObjectId white =
      db->InsertBinaryImage(Image(6, 6, colors::kWhite)).value();
  EditScript script;
  script.base_id = red;
  MergeOp merge;
  merge.target = white;
  script.ops.emplace_back(merge);
  const ObjectId edited = db->InsertEditedImage(script).value();

  // `white` is only a merge target, not a base — still protected.
  EXPECT_EQ(db->DeleteImage(white).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db->DeleteImage(edited).ok());
  EXPECT_TRUE(db->DeleteImage(white).ok());
}

TEST(DeletionTest, EditedMergeTargetIsProtected) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base =
      db->InsertBinaryImage(Image(6, 6, colors::kRed)).value();
  EditScript inner;
  inner.base_id = base;
  inner.ops.emplace_back(ModifyOp{colors::kRed, colors::kGold});
  const ObjectId inner_id = db->InsertEditedImage(inner).value();

  EditScript outer;
  outer.base_id = base;
  MergeOp merge;
  merge.target = inner_id;
  outer.ops.emplace_back(merge);
  const ObjectId outer_id = db->InsertEditedImage(outer).value();

  EXPECT_EQ(db->DeleteImage(inner_id).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db->DeleteImage(outer_id).ok());
  EXPECT_TRUE(db->DeleteImage(inner_id).ok());
}

TEST(DeletionTest, MissingImage) {
  auto db = MultimediaDatabase::Open().value();
  EXPECT_EQ(db->DeleteImage(424242).code(), StatusCode::kNotFound);
}

TEST(DeletionTest, QueriesReflectDeletion) {
  Fixture f = Fixture::Make();
  RangeQuery query;
  query.bin = f.db->BinOf(colors::kRed);
  query.min_fraction = 0.5;
  query.max_fraction = 1.0;
  auto before = f.db->RunRange(query, QueryMethod::kBwm).value();
  EXPECT_TRUE(AsSet(before.ids).count(f.edited));
  ASSERT_TRUE(f.db->DeleteImage(f.edited).ok());
  auto after = f.db->RunRange(query, QueryMethod::kBwm).value();
  EXPECT_FALSE(AsSet(after.ids).count(f.edited));
  EXPECT_TRUE(AsSet(after.ids).count(f.base));
  // RBM and the instantiation baseline agree post-deletion.
  EXPECT_EQ(AsSet(f.db->RunRange(query, QueryMethod::kRbm).value().ids),
            AsSet(after.ids));
}

TEST(DeletionTest, UnclassifiedRemovalUpdatesBwmIndex) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId red =
      db->InsertBinaryImage(Image(6, 6, colors::kRed)).value();
  const ObjectId white =
      db->InsertBinaryImage(Image(6, 6, colors::kWhite)).value();
  EditScript script;
  script.base_id = red;
  MergeOp merge;
  merge.target = white;
  script.ops.emplace_back(merge);
  const ObjectId edited = db->InsertEditedImage(script).value();
  EXPECT_EQ(db->collection().unclassified().size(), 1u);
  ASSERT_TRUE(db->DeleteImage(edited).ok());
  EXPECT_TRUE(db->collection().unclassified().empty());
}

TEST(DeletionTest, DiskDatabaseReflectsDeletionAfterReopen) {
  const std::string path = TempPath("mmdb_delete_test.db");
  RemoveStoreFiles(path);
  ObjectId base, edited;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    base = db->InsertBinaryImage(Image(8, 8, colors::kNavy)).value();
    EditScript script;
    script.base_id = base;
    script.ops.emplace_back(ModifyOp{colors::kNavy, colors::kGold});
    edited = db->InsertEditedImage(script).value();
    ASSERT_TRUE(db->DeleteImage(edited).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  EXPECT_EQ(db->collection().EditedCount(), 0u);
  EXPECT_EQ(db->collection().BinaryCount(), 1u);
  EXPECT_TRUE(db->GetImage(base).ok());
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
