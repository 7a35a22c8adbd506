#include <gtest/gtest.h>

#include "core/collection.h"
#include "core/histogram.h"

namespace mmdb {
namespace {

BinaryImageInfo MakeBinary(ObjectId id, Rgb color, int32_t side = 4) {
  BinaryImageInfo info;
  info.id = id;
  info.width = side;
  info.height = side;
  info.histogram = ExtractHistogram(Image(side, side, color),
                                    ColorQuantizer(4));
  return info;
}

// Tests that never score an edited image add it with an empty bounds
// row, `{}`.
EditedImageInfo MakeEdited(ObjectId id, ObjectId base_id) {
  EditedImageInfo info;
  info.id = id;
  info.script.base_id = base_id;
  info.script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  return info;
}

TEST(CollectionTest, AddAndFind) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  ASSERT_TRUE(collection.AddEdited(MakeEdited(2, 1), {}).ok());
  EXPECT_NE(collection.FindBinary(1), nullptr);
  EXPECT_EQ(collection.FindBinary(2), nullptr);
  EXPECT_NE(collection.FindEdited(2), nullptr);
  EXPECT_EQ(collection.FindEdited(1), nullptr);
  EXPECT_EQ(collection.BinaryCount(), 1u);
  EXPECT_EQ(collection.EditedCount(), 1u);
}

TEST(CollectionTest, RejectsZeroIds) {
  AugmentedCollection collection;
  EXPECT_EQ(collection.AddBinary(MakeBinary(0, colors::kRed)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(collection.AddEdited(MakeEdited(0, 1), {}).code(),
            StatusCode::kInvalidArgument);
}

TEST(CollectionTest, RejectsDuplicateIdsAcrossKinds) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  EXPECT_EQ(collection.AddBinary(MakeBinary(1, colors::kBlue)).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(collection.AddEdited(MakeEdited(2, 1), {}).ok());
  EXPECT_EQ(collection.AddEdited(MakeEdited(2, 1), {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(collection.AddBinary(MakeBinary(2, colors::kRed)).code(),
            StatusCode::kAlreadyExists);
}

TEST(CollectionTest, EditedRequiresStoredBase) {
  AugmentedCollection collection;
  EXPECT_EQ(collection.AddEdited(MakeEdited(2, 1), {}).code(),
            StatusCode::kNotFound);
}

TEST(CollectionTest, MaintainsConnections) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  ASSERT_TRUE(collection.AddBinary(MakeBinary(2, colors::kBlue)).ok());
  ASSERT_TRUE(collection.AddEdited(MakeEdited(3, 1), {}).ok());
  ASSERT_TRUE(collection.AddEdited(MakeEdited(4, 1), {}).ok());
  ASSERT_TRUE(collection.AddEdited(MakeEdited(5, 2), {}).ok());
  EditedImageInfo unclassified = MakeEdited(6, 2);
  unclassified.script.ops.emplace_back(MergeOp{ObjectId{1}, 0, 0});
  ASSERT_TRUE(collection.AddEdited(unclassified, {}).ok());
  EXPECT_EQ(collection.FindBinary(1)->cluster,
            (std::vector<ObjectId>{3, 4}));
  EXPECT_EQ(collection.FindBinary(2)->cluster, std::vector<ObjectId>{5});
  EXPECT_EQ(collection.unclassified(), std::vector<ObjectId>{6});

  // A base stays while any edited image, clustered or not, derives from it.
  EXPECT_EQ(collection.RemoveBinary(1).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(collection.RemoveEdited(3).ok());
  ASSERT_TRUE(collection.RemoveEdited(4).ok());
  EXPECT_TRUE(collection.FindBinary(1)->cluster.empty());
  ASSERT_TRUE(collection.RemoveEdited(5).ok());
  EXPECT_EQ(collection.RemoveBinary(2).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(collection.RemoveEdited(6).ok());
  EXPECT_TRUE(collection.unclassified().empty());
  EXPECT_EQ(collection.MainEditedCount(), 0u);
  EXPECT_TRUE(collection.RemoveBinary(2).ok());
  EXPECT_TRUE(collection.RemoveBinary(1).ok());
  EXPECT_TRUE(collection.binary_ids().empty());
}

TEST(CollectionTest, BoundsRowsFollowEditedIdsThroughRemovals) {
  // Image `id` gets the two-bin row [id, 2 id], [id + 1, 2 id + 1] of
  // 3 id pixels after id operations; the rows span several blocks.
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  const auto row_of = [](ObjectId id, std::vector<int32_t>* counts) {
    const auto v = static_cast<int32_t>(id);
    *counts = {v, v + 1, 2 * v, 2 * v + 1};
    return BoundsRow{counts->data(), counts->data() + 2, 2,
                     3 * static_cast<int64_t>(id), static_cast<int64_t>(id)};
  };
  std::vector<int32_t> counts;
  const ObjectId last = 2 + 3 * BoundsColumn::kRowsPerBlock + 4;
  for (ObjectId id = 2; id <= last; ++id) {
    ASSERT_TRUE(collection.AddEdited(MakeEdited(id, 1), row_of(id, &counts))
                    .ok());
  }
  // From the first block, across a block boundary, and the last row.
  for (ObjectId id : {ObjectId{7}, ObjectId{2}, ObjectId{130}, last}) {
    ASSERT_TRUE(collection.RemoveEdited(id).ok());
  }
  const std::vector<ObjectId>& ids = collection.edited_ids();
  ASSERT_EQ(collection.edited_bounds().size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(collection.edited_bounds()[i], row_of(ids[i], &counts))
        << "row " << i;
    EXPECT_EQ(collection.FindEdited(ids[i])->position, i);
  }

  // A row of another width is refused; once every row is gone, the next
  // row sets the width.
  std::vector<int32_t> one = {1, 1};
  const BoundsRow narrow{one.data(), one.data() + 1, 1, 1, 0};
  EXPECT_EQ(collection.AddEdited(MakeEdited(last + 1, 1), narrow).code(),
            StatusCode::kInvalidArgument);
  const std::vector<ObjectId> remaining = ids;
  for (ObjectId id : remaining) ASSERT_TRUE(collection.RemoveEdited(id).ok());
  EXPECT_EQ(collection.edited_bounds().size(), 0u);
  ASSERT_TRUE(collection.AddEdited(MakeEdited(last + 1, 1), narrow).ok());
  EXPECT_EQ(collection.edited_bounds()[0], narrow);
}

TEST(CollectionTest, PreservesInsertionOrder) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(5, colors::kRed)).ok());
  ASSERT_TRUE(collection.AddBinary(MakeBinary(3, colors::kBlue)).ok());
  EXPECT_EQ(collection.binary_ids(), (std::vector<ObjectId>{5, 3}));
}

TEST(CollectionTest, TargetResolverBinaryIsExact) {
  const ColorQuantizer quantizer(4);
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed, 6)).ok());
  const RuleEngine engine(quantizer);
  const CollectionTargetResolver resolver(collection, engine);
  const BinIndex red_bin = quantizer.BinOf(colors::kRed);
  Result<const RuleState*> bounds = resolver.Resolve(1, {red_bin});
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ((*bounds)->hb_min[0], 36);
  EXPECT_EQ((*bounds)->hb_max[0], 36);
  EXPECT_EQ((*bounds)->size, 36);
  EXPECT_EQ((*bounds)->width, 6);
}

TEST(CollectionTest, TargetResolverRecursesThroughEditedTargets) {
  const ColorQuantizer quantizer(4);
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed, 6)).ok());
  // Edited image 2: recolors red -> blue over the whole canvas.
  EditedImageInfo edited;
  edited.id = 2;
  edited.script.base_id = 1;
  edited.script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  ASSERT_TRUE(collection.AddEdited(edited, {}).ok());

  const RuleEngine engine(quantizer);
  const CollectionTargetResolver resolver(collection, engine);
  const BinIndex red_bin = quantizer.BinOf(colors::kRed);
  Result<const RuleState*> bounds = resolver.Resolve(2, {red_bin});
  ASSERT_TRUE(bounds.ok());
  // All 36 red pixels may have left the bin.
  EXPECT_EQ((*bounds)->hb_min[0], 0);
  EXPECT_EQ((*bounds)->hb_max[0], 36);
  EXPECT_EQ((*bounds)->size, 36);
}

TEST(CollectionTest, TargetResolverReportsMissingTarget) {
  const ColorQuantizer quantizer(4);
  AugmentedCollection collection;
  const RuleEngine engine(quantizer);
  const CollectionTargetResolver resolver(collection, engine);
  EXPECT_EQ(resolver.Resolve(42, {0}).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mmdb
