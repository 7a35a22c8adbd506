#include <gtest/gtest.h>

#include <set>

#include "core/database.h"
#include "datasets/generators.h"
#include "datasets/recipes.h"

namespace mmdb {
namespace {

TEST(RecipesTest, AllRecipesAreBoundWidening) {
  const auto recipes = datasets::StandardAugmentations(
      1, 96, 96, datasets::DefaultDarkenPairs());
  EXPECT_GE(recipes.size(), 5u);
  std::set<std::string> names;
  for (const auto& recipe : recipes) {
    EXPECT_TRUE(RuleEngine::IsAllBoundWidening(recipe.script))
        << recipe.name;
    EXPECT_EQ(recipe.script.base_id, 1u);
    EXPECT_FALSE(recipe.script.ops.empty()) << recipe.name;
    names.insert(recipe.name);
  }
  EXPECT_EQ(names.size(), recipes.size());  // Distinct names.
}

TEST(RecipesTest, RecipesInstantiateOverRealImages) {
  auto db = MultimediaDatabase::Open().value();
  Rng rng(601);
  const auto signs = datasets::MakeRoadSignImages(3, rng);
  for (const auto& generated : signs) {
    const ObjectId base = db->InsertBinaryImage(generated.image).value();
    for (const auto& recipe : datasets::StandardAugmentations(
             base, generated.image.width(), generated.image.height(),
             datasets::DefaultDarkenPairs())) {
      const auto id = db->InsertEditedImage(recipe.script);
      ASSERT_TRUE(id.ok()) << recipe.name;
      const auto image = db->GetImage(*id);
      ASSERT_TRUE(image.ok()) << recipe.name << ": "
                              << image.status().ToString();
      EXPECT_FALSE(image->Empty());
    }
  }
  // Every augmented image lands in the Main component (all widening).
  EXPECT_EQ(db->collection().MainEditedCount(),
            db->collection().EditedCount());
  EXPECT_TRUE(db->collection().unclassified().empty());
}

TEST(RecipesTest, ThumbnailHalvesDimensions) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base =
      db->InsertBinaryImage(Image(64, 48, colors::kRed)).value();
  for (const auto& recipe : datasets::StandardAugmentations(
           base, 64, 48, datasets::DefaultDarkenPairs())) {
    if (recipe.name != "thumbnail") continue;
    const ObjectId id = db->InsertEditedImage(recipe.script).value();
    const Image image = db->GetImage(id).value();
    EXPECT_EQ(image.width(), 32);
    EXPECT_EQ(image.height(), 24);
  }
}

TEST(RecipesTest, DuskRecipeShiftsQueriedBin) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base =
      db->InsertBinaryImage(Image(10, 10, colors::kRed)).value();
  for (const auto& recipe : datasets::StandardAugmentations(
           base, 10, 10, datasets::DefaultDarkenPairs())) {
    if (recipe.name != "dusk") continue;
    const ObjectId id = db->InsertEditedImage(recipe.script).value();
    const Image image = db->GetImage(id).value();
    EXPECT_EQ(image.CountColor(colors::kMaroon), 100);
    EXPECT_EQ(image.CountColor(colors::kRed), 0);
  }
}

TEST(RecipesTest, CenterCropExtractsInterior) {
  auto db = MultimediaDatabase::Open().value();
  Image image(50, 50, colors::kWhite);
  image.Fill(Rect(20, 20, 30, 30), colors::kNavy);
  const ObjectId base = db->InsertBinaryImage(image).value();
  for (const auto& recipe : datasets::StandardAugmentations(
           base, 50, 50, datasets::DefaultDarkenPairs())) {
    if (recipe.name != "center-crop") continue;
    const ObjectId id = db->InsertEditedImage(recipe.script).value();
    const Image cropped = db->GetImage(id).value();
    EXPECT_EQ(cropped.width(), 30);
    EXPECT_EQ(cropped.height(), 30);
    EXPECT_EQ(cropped.CountColor(colors::kNavy), 100);
  }
}

}  // namespace
}  // namespace mmdb
