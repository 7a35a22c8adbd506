// Bounds rows: the fold of each edited image's script over every bin,
// made once when the facade adds the image to memory and read by top-k,
// `WithinDistance` and `ClassifyDominantBins`. Every row must equal a
// fresh fold bit for bit after inserts (with Merges into binary and
// edited targets), deletes, a reopen and sharding, in sound and
// paper-strict mode; an image whose counts do not fit a row is refused
// at insert and quarantined at reload.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/bounds.h"
#include "core/database.h"
#include "datasets/augment.h"
#include "editops/serialize.h"
#include "shard/sharded_db.h"
#include "storage/catalog.h"
#include "storage/object_store.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using testing::BoundsRowMismatch;
using testing::RemoveStoreFiles;
using testing::TempPath;

DatabaseOptions Options(bool paper_strict, const std::string& path = "") {
  DatabaseOptions options;
  options.path = path;
  options.rule_options.paper_strict = paper_strict;
  return options;
}

/// A seeded augmented corpus, whose scripts Merge into binary images,
/// plus random scripts that Merge into binary and, when `into_edited`
/// is set, stored edited images (a sharded corpus takes only the
/// former).
void BuildWithMerges(MultimediaDatabase* db, uint64_t seed,
                     bool into_edited = true) {
  datasets::DatasetSpec spec;
  spec.total_images = 48;
  spec.edited_fraction = 0.7;
  spec.seed = seed;
  const Result<datasets::DatasetStats> stats =
      datasets::BuildAugmentedDatabase(db, spec);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GE(stats->edited_ids.size(), 4u);

  const AugmentedCollection& collection = db->collection();
  std::vector<datasets::MergeTarget> targets;
  for (ObjectId id : collection.binary_ids()) {
    const BinaryImageInfo* binary = collection.FindBinary(id);
    targets.push_back({id, binary->width, binary->height});
  }
  // Edited targets, with the canvas their fold ends on.
  const RuleEngine& engine = db->rule_engine();
  const CollectionTargetResolver resolver(collection, engine);
  const size_t edited_targets = into_edited ? 4 : 0;
  for (size_t i = 0; i < edited_targets; ++i) {
    const ObjectId id = collection.edited_ids()[i];
    const EditScript& script = collection.FindEdited(id)->script;
    const BinaryImageInfo* base = collection.FindBinary(script.base_id);
    RuleState state;
    ASSERT_TRUE(FoldRules(engine, script, {0}, base->histogram.counts(),
                          base->width, base->height, &resolver, &state)
                    .ok());
    targets.push_back({id, state.width, state.height});
  }
  if (into_edited) {
    ASSERT_TRUE(db->InsertEditedImage({collection.binary_ids().front(),
                                       {DefineOp{Rect(1, 1, 6, 5)},
                                        MergeOp{targets.back().id, 2, 3},
                                        ModifyOp{colors::kRed, colors::kBlue}}})
                    .ok());
  }
  Rng rng(seed * 31 + 5);
  for (int n = 0; n < 16; ++n) {
    const datasets::MergeTarget& base =
        targets[rng.Uniform(collection.BinaryCount())];
    const Result<ObjectId> id = db->InsertEditedImage(testing::RandomScript(
        base.id, base.width, base.height,
        static_cast<int>(rng.UniformInt(1, 8)), targets, rng));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
}

class BoundsRowSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  bool paper_strict() const { return std::get<1>(GetParam()); }
};

TEST_P(BoundsRowSweep, RowsEqualFreshFoldsAfterInsertsAndDeletes) {
  auto db = MultimediaDatabase::Open(Options(paper_strict())).value();
  ASSERT_NO_FATAL_FAILURE(BuildWithMerges(db.get(), seed()));
  EXPECT_EQ(BoundsRowMismatch(*db), "");

  // Every third edited image goes, unless another one references it.
  const std::vector<ObjectId> edited = db->collection().edited_ids();
  size_t deleted = 0;
  for (size_t i = 0; i < edited.size(); i += 3) {
    const Status status = db->DeleteImage(edited[i]);
    if (status.code() == StatusCode::kInvalidArgument) continue;
    ASSERT_TRUE(status.ok()) << status.ToString();
    ++deleted;
    ASSERT_EQ(BoundsRowMismatch(*db), "") << "after deleting " << edited[i];
  }
  EXPECT_GT(deleted, 0u);
  EXPECT_EQ(db->collection().edited_bounds().size(), edited.size() - deleted);
  const auto report = db->VerifyIntegrity();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

TEST_P(BoundsRowSweep, ReopenedDiskDatabaseRefoldsTheSameRows) {
  const std::string path = TempPath("mmdb_bounds_rows.db");
  RemoveStoreFiles(path);
  size_t edited = 0;
  {
    auto db = MultimediaDatabase::Open(Options(paper_strict(), path)).value();
    ASSERT_NO_FATAL_FAILURE(BuildWithMerges(db.get(), seed()));
    edited = db->collection().EditedCount();
    ASSERT_TRUE(db->Flush().ok());
  }
  auto db = MultimediaDatabase::Open(Options(paper_strict(), path)).value();
  EXPECT_TRUE(db->QuarantinedImages().empty());
  EXPECT_EQ(db->collection().edited_bounds().size(), edited);
  EXPECT_EQ(BoundsRowMismatch(*db), "");
  db.reset();
  RemoveStoreFiles(path);
}

TEST_P(BoundsRowSweep, EveryShardHoldsRowsForItsImages) {
  auto source = MultimediaDatabase::Open(Options(paper_strict())).value();
  ASSERT_NO_FATAL_FAILURE(
      BuildWithMerges(source.get(), seed(), /*into_edited=*/false));
  shard::ShardedDatabaseOptions options;
  options.shards = 3;
  options.shard_options = Options(paper_strict());
  auto sharded = shard::ShardedDatabase::Open(options).value();
  ASSERT_TRUE(shard::MirrorDatabase(*source, sharded.get()).ok());
  size_t edited = 0;
  for (size_t s = 0; s < sharded->shard_count(); ++s) {
    EXPECT_EQ(BoundsRowMismatch(*sharded->shard(s)), "") << "shard " << s;
    edited += sharded->shard(s)->collection().EditedCount();
  }
  EXPECT_EQ(edited, source->collection().EditedCount());
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, BoundsRowSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Bool()));

/// A 64 x 64 one-color image scaled 1000 x 1000: 4.1e9 pixels, all in
/// one bin, more than an int32 count holds.
EditScript OversizedScale(ObjectId base) {
  return {base, {MutateOp::Scale(1000.0, 1000.0)}};
}

TEST(BoundsRowTest, InsertRefusesACountPastInt32) {
  for (const bool paper_strict : {false, true}) {
    const std::string path = TempPath("mmdb_oversized_insert.db");
    RemoveStoreFiles(path);
    ObjectId base = kInvalidObjectId, kept = kInvalidObjectId;
    {
      auto db = MultimediaDatabase::Open(Options(paper_strict, path)).value();
      base = db->InsertBinaryImage(Image(64, 64, colors::kRed)).value();
      const Result<ObjectId> refused =
          db->InsertEditedImage(OversizedScale(base));
      EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
          << refused.status().ToString();
      EXPECT_EQ(db->collection().EditedCount(), 0u);
      // Nothing was stored: the refused image took no id.
      kept = db->InsertEditedImage({base, {MutateOp::Scale(2.0, 2.0)}})
                 .value();
      EXPECT_EQ(kept, base + 1);
      EXPECT_EQ(BoundsRowMismatch(*db), "");
      ASSERT_TRUE(db->Flush().ok());
    }
    auto db = MultimediaDatabase::Open(Options(paper_strict, path)).value();
    EXPECT_TRUE(db->QuarantinedImages().empty());
    EXPECT_EQ(db->collection().edited_ids(), std::vector<ObjectId>{kept});
    EXPECT_EQ(BoundsRowMismatch(*db), "");
    db.reset();
    RemoveStoreFiles(path);
  }
}

// A store written before inserts refused such an image still opens: the
// image is quarantined and the rest answers.
TEST(BoundsRowTest, ReloadQuarantinesACountPastInt32) {
  const std::string path = TempPath("mmdb_oversized_reload.db");
  RemoveStoreFiles(path);
  ObjectId base = kInvalidObjectId, kept = kInvalidObjectId;
  {
    auto db = MultimediaDatabase::Open(Options(false, path)).value();
    base = db->InsertBinaryImage(Image(64, 64, colors::kRed)).value();
    kept = db->InsertEditedImage({base, {ModifyOp{colors::kRed, colors::kBlue}}})
               .value();
    ASSERT_TRUE(db->Flush().ok());
  }
  ObjectId oversized = kInvalidObjectId;
  {
    auto store = DiskObjectStore::Open(path).value();
    CatalogMeta meta =
        DecodeCatalogMeta(store->Get(catalog_keys::kMetaKey).value()).value();
    oversized = static_cast<ObjectId>(meta.next_id++);
    CatalogRow row;
    row.id = oversized;
    row.kind = ImageKind::kEdited;
    ASSERT_TRUE(store->Put(catalog_keys::ScriptKey(oversized),
                           EncodeEditScript(OversizedScale(base)))
                    .ok());
    ASSERT_TRUE(
        store->Put(catalog_keys::RowKey(oversized), EncodeCatalogRow(row))
            .ok());
    ASSERT_TRUE(
        store->Upsert(catalog_keys::kMetaKey, EncodeCatalogMeta(meta)).ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  auto db = MultimediaDatabase::Open(Options(false, path)).value();
  EXPECT_EQ(db->QuarantinedImages(), std::vector<ObjectId>{oversized});
  EXPECT_EQ(db->collection().edited_ids(), std::vector<ObjectId>{kept});
  EXPECT_EQ(BoundsRowMismatch(*db), "");
  const auto report = db->VerifyIntegrity();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  SimilarityQuery nearest;
  nearest.histogram = db->collection().FindBinary(base)->histogram;
  nearest.k = 2;
  const Result<QueryResult> result = db->RunSimilarity(nearest);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(testing::AsSet(result->ids), (std::set<ObjectId>{base, kept}));
  db.reset();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
