#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/query_service.h"
#include "image/image.h"
#include "storage/blob_store.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/object_store.h"
#include "storage/page.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

/// Flips one bit of the byte at `offset` in `path`, in place.
void FlipBitOnDisk(const std::string& path, uint64_t offset, int bit) {
  Result<std::unique_ptr<File>> file = Env::Default()->OpenFile(path);
  ASSERT_TRUE(file.ok());
  unsigned char byte = 0;
  ASSERT_TRUE((*file)->ReadAt(offset, &byte, 1).ok());
  byte ^= static_cast<unsigned char>(1u << bit);
  ASSERT_TRUE((*file)->WriteAt(offset, &byte, 1).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
}

/// Finds the first page of `path` whose blob payload (page offset 8)
/// starts with `prefix`. Returns kInvalidPageId when absent.
PageId FindPageWithPayloadPrefix(const std::string& path,
                                 const std::string& prefix) {
  Result<std::unique_ptr<File>> file = Env::Default()->OpenFile(path);
  if (!file.ok()) return kInvalidPageId;
  Result<uint64_t> size = (*file)->Size();
  if (!size.ok()) return kInvalidPageId;
  Page page;
  for (PageId id = 1; id < *size / kPageSize; ++id) {
    if (!(*file)->ReadAt(static_cast<uint64_t>(id) * kPageSize, page.data(),
                         kPageSize)
             .ok()) {
      break;
    }
    std::string payload(prefix.size(), '\0');
    page.ReadBytes(8, payload.data(), payload.size());
    if (payload == prefix) {
      (*file)->Close().ok();
      return id;
    }
  }
  (*file)->Close().ok();
  return kInvalidPageId;
}

TEST(DiskManagerChecksumTest, BitFlipSurfacesAsCorruptionNamingThePage) {
  const std::string path = TempPath("mmdb_dm_bitflip.db");
  std::remove(path.c_str());
  {
    DiskManager disk;
    ASSERT_TRUE(disk.Open(path).ok());
    ASSERT_TRUE(disk.AllocatePage().ok());  // Page 0.
    ASSERT_TRUE(disk.AllocatePage().ok());  // Page 1, the victim.
    ASSERT_TRUE(disk.AllocatePage().ok());  // Page 2, stays clean.
    Page page;
    page.WriteU64(16, 0xfeedfacecafebeefULL);
    ASSERT_TRUE(disk.WritePage(1, page).ok());
    ASSERT_TRUE(disk.Sync().ok());
  }
  // Flip one payload bit of page 1.
  FlipBitOnDisk(path, 1 * kPageSize + 100, 3);

  DiskManager disk;
  ASSERT_TRUE(disk.Open(path).ok());
  Page page;
  const Status read = disk.ReadPage(1, &page);
  EXPECT_EQ(read.code(), StatusCode::kCorruption);
  EXPECT_NE(read.message().find("page 1"), std::string::npos)
      << read.message();
  // The raw read path (version probing, Scrub diagnostics) still works.
  EXPECT_TRUE(disk.ReadPageRaw(1, &page).ok());
  // The untouched page is still valid.
  EXPECT_TRUE(disk.ReadPage(2, &page).ok());
  std::remove(path.c_str());
}

TEST(DiskManagerChecksumTest, TornWriteDetectedOnNextRead) {
  const std::string path = TempPath("mmdb_dm_torn.db");
  std::remove(path.c_str());
  FaultInjectingEnv env(Env::Default());
  {
    DiskManager disk;
    ASSERT_TRUE(disk.Open(path, &env).ok());
    ASSERT_TRUE(disk.AllocatePage().ok());
    Page page;
    page.WriteU64(0, 0x1111111111111111ULL);
    ASSERT_TRUE(disk.WritePage(0, page).ok());
    // The next page write persists only its first 512 bytes: new prefix,
    // stale suffix and stale footer.
    page.WriteU64(0, 0x2222222222222222ULL);
    env.TornNthWrite(1, 512);
    EXPECT_FALSE(disk.WritePage(0, page).ok());
  }
  DiskManager disk;
  ASSERT_TRUE(disk.Open(path).ok());
  Page page;
  EXPECT_EQ(disk.ReadPage(0, &page).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(FormatVersionTest, V1FileRejectedWithVersionedHeaderError) {
  const std::string path = TempPath("mmdb_v1_reject.db");
  RemoveStoreFiles(path);
  // Hand-craft a v1 header page: magic + version 1, full-page layout with
  // no checksum footer (v1 pages could carry payload in those bytes).
  {
    Page header;
    header.WriteU32(blob_format::kMagicOffset, blob_format::kMagic);
    header.WriteU32(blob_format::kVersionOffset, 1);
    Result<std::unique_ptr<File>> file = Env::Default()->OpenFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, header.data(), kPageSize).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  Result<std::unique_ptr<DiskObjectStore>> opened = DiskObjectStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("version 1"), std::string::npos)
      << opened.status().message();
  // The rejected file is left untouched: rejection must not "migrate".
  Result<std::unique_ptr<File>> file = Env::Default()->OpenFile(path);
  ASSERT_TRUE(file.ok());
  Result<uint64_t> size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, kPageSize);
  (*file)->Close().ok();
  RemoveStoreFiles(path);
}

TEST(ScrubTest, LocatesCorruptPagesAndAffectedBlobs) {
  const std::string path = TempPath("mmdb_scrub.db");
  RemoveStoreFiles(path);
  const uint64_t corrupt_key = 77;
  const uint64_t clean_key = 78;
  {
    Result<std::unique_ptr<DiskObjectStore>> store = DiskObjectStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->Put(corrupt_key, std::string(500, 'Z')).ok());
    ASSERT_TRUE((*store)->Put(clean_key, std::string(500, 'Q')).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const PageId victim = FindPageWithPayloadPrefix(path, "ZZZZ");
  ASSERT_NE(victim, kInvalidPageId) << "blob page not found on disk";
  FlipBitOnDisk(path, static_cast<uint64_t>(victim) * kPageSize + 64, 5);

  Result<std::unique_ptr<DiskObjectStore>> store = DiskObjectStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().message();
  // The damaged blob fails with Corruption; its neighbor is unaffected.
  EXPECT_EQ((*store)->Get(corrupt_key).status().code(),
            StatusCode::kCorruption);
  EXPECT_TRUE((*store)->Get(clean_key).ok());

  Result<DiskObjectStore::ScrubReport> report = (*store)->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  ASSERT_EQ(report->corrupt_pages.size(), 1u);
  EXPECT_EQ(report->corrupt_pages[0], victim);
  ASSERT_EQ(report->corrupt_keys.size(), 1u);
  EXPECT_EQ(report->corrupt_keys[0], corrupt_key);
  RemoveStoreFiles(path);
}

// Acceptance scenario: a bit-flipped raster page quarantines the images
// that need it, and a query batch over the damaged database still
// succeeds — reporting the loss in `corrupt_images_skipped` — instead of
// failing outright.
TEST(CorruptionToleranceTest, QueryBatchSkipsQuarantinedImages) {
  const std::string path = TempPath("mmdb_quarantine.db");
  RemoveStoreFiles(path);
  ObjectId base_id = kInvalidObjectId;
  ObjectId edited_id = kInvalidObjectId;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    Rng rng(41);
    base_id =
        db->InsertBinaryImage(testing::RandomBlockImage(16, 12, 4, rng))
            .value();
    EditScript script;
    script.base_id = base_id;
    script.ops.emplace_back(ModifyOp{colors::kRed, colors::kGold});
    edited_id = db->InsertEditedImage(script).value();
    ASSERT_TRUE(db->Flush().ok());
  }
  // The only stored raster is the base image's PPM blob ("P6..." payload).
  const PageId raster_page = FindPageWithPayloadPrefix(path, "P6");
  ASSERT_NE(raster_page, kInvalidPageId);
  FlipBitOnDisk(path, static_cast<uint64_t>(raster_page) * kPageSize + 200, 1);

  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  QueryService service(db.get(), {.threads = 1, .admission = {}});

  RangeQuery query;
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.0;
  query.max_fraction = 1.0;
  Result<QueryResult> result =
      service.Execute(QueryRequest::Range(query, QueryMethod::kInstantiate));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->stats.corrupt_images_skipped, 1);
  // The binary image answers from its cataloged histogram (no raster
  // read), so only the edited image drops out.
  EXPECT_EQ(testing::AsSet(result->ids), std::set<ObjectId>{base_id});
  EXPECT_TRUE(db->IsQuarantined(edited_id));
  EXPECT_EQ(db->QuarantinedImages(), std::vector<ObjectId>{edited_id});

  // A second query skips via the quarantine set (no re-instantiation) and
  // still counts the exclusion; the service snapshot aggregates both.
  result =
      service.Execute(QueryRequest::Range(query, QueryMethod::kInstantiate));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.corrupt_images_skipped, 1);
  EXPECT_EQ(result->stats.images_instantiated, 0);
  EXPECT_EQ(service.Snapshot().stats.corrupt_images_skipped, 2);
  RemoveStoreFiles(path);
}

/// Flips a bit in the catalog row of binary image `id`, whose raster is
/// `width` x `height`: the row's first page opens with its version, id,
/// kind and dimensions (`EncodeCatalogRow`).
void CorruptBinaryRow(const std::string& path, ObjectId id, int32_t width,
                      int32_t height) {
  CatalogRow row;
  row.id = id;
  row.kind = ImageKind::kBinary;
  row.width = width;
  row.height = height;
  const std::string prefix = EncodeCatalogRow(row).substr(0, 18);
  const PageId page = FindPageWithPayloadPrefix(path, prefix);
  ASSERT_NE(page, kInvalidPageId) << "row of image " << id << " not found";
  FlipBitOnDisk(path, static_cast<uint64_t>(page) * kPageSize + 40, 2);
}

/// Every range method and top-k answer over `db`, and every range method
/// matches exactly `expected` with a window that holds every image.
void ExpectEveryMethodAnswers(const MultimediaDatabase& db,
                              const std::set<ObjectId>& expected) {
  RangeQuery everything;
  everything.bin = db.BinOf(colors::kRed);
  everything.min_fraction = 0.0;
  everything.max_fraction = 1.0;
  for (QueryMethod method : kQueryMethods) {
    const Result<QueryResult> result = db.RunRange(everything, method);
    ASSERT_TRUE(result.ok()) << QueryMethodName(method) << ": "
                             << result.status().ToString();
    EXPECT_EQ(testing::AsSet(result->ids), expected)
        << QueryMethodName(method);
  }
  SimilarityQuery nearest;
  nearest.histogram = ColorHistogram(db.quantizer().BinCount());
  nearest.histogram.Add(everything.bin, 1);
  nearest.k = 1;
  const Result<QueryResult> result = db.RunSimilarity(nearest);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->ids.empty());
}

// A corrupt binary catalog row quarantines that image and, because rows
// reload in id order and a script names only earlier ids, every edited
// image derived from it; the rest of the database opens and answers.
TEST(CorruptionToleranceTest, CorruptBaseRowQuarantinesItsDerivedImages) {
  const std::string path = TempPath("mmdb_corrupt_base_row.db");
  RemoveStoreFiles(path);
  ObjectId base = kInvalidObjectId, derived = kInvalidObjectId;
  ObjectId other = kInvalidObjectId, kept = kInvalidObjectId;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    Rng rng(43);
    base = db->InsertBinaryImage(testing::RandomBlockImage(16, 12, 4, rng))
               .value();
    other = db->InsertBinaryImage(testing::RandomBlockImage(16, 12, 4, rng))
                .value();
    EditScript script;
    script.base_id = base;
    script.ops.emplace_back(ModifyOp{colors::kRed, colors::kGold});
    derived = db->InsertEditedImage(script).value();
    script.base_id = other;
    kept = db->InsertEditedImage(script).value();
    ASSERT_TRUE(db->Flush().ok());
  }
  CorruptBinaryRow(path, base, 16, 12);

  DatabaseOptions options;
  options.path = path;
  Result<std::unique_ptr<MultimediaDatabase>> db =
      MultimediaDatabase::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->QuarantinedImages(),
            (std::vector<ObjectId>{base, derived}));
  // A quarantined image has no row; the others refold to theirs.
  EXPECT_EQ((*db)->collection().edited_ids(), std::vector<ObjectId>{kept});
  EXPECT_EQ(mmdb::testing::BoundsRowMismatch(**db), "");
  const auto report = (*db)->VerifyIntegrity(/*deep_pixels=*/true);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  ExpectEveryMethodAnswers(**db, {other, kept});
  db->reset();
  RemoveStoreFiles(path);
}

// The same for a binary image that is only a Merge target: the image
// that merges it is quarantined instead of failing every later query.
TEST(CorruptionToleranceTest, CorruptMergeTargetRowQuarantinesItsMergers) {
  const std::string path = TempPath("mmdb_corrupt_target_row.db");
  RemoveStoreFiles(path);
  ObjectId base = kInvalidObjectId, target = kInvalidObjectId;
  ObjectId merger = kInvalidObjectId;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    Rng rng(47);
    base = db->InsertBinaryImage(testing::RandomBlockImage(16, 12, 4, rng))
               .value();
    target = db->InsertBinaryImage(testing::RandomBlockImage(16, 12, 4, rng))
                 .value();
    EditScript script;
    script.base_id = base;
    script.ops.emplace_back(MergeOp{target, 0, 0});
    merger = db->InsertEditedImage(script).value();
    ASSERT_TRUE(db->Flush().ok());
  }
  CorruptBinaryRow(path, target, 16, 12);

  DatabaseOptions options;
  options.path = path;
  Result<std::unique_ptr<MultimediaDatabase>> db =
      MultimediaDatabase::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->QuarantinedImages(),
            (std::vector<ObjectId>{target, merger}));
  const auto report = (*db)->VerifyIntegrity(/*deep_pixels=*/true);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  ExpectEveryMethodAnswers(**db, {base});
  db->reset();
  RemoveStoreFiles(path);
}

// Regression test for the journal protocol's riskiest window: the crash
// lands after the commit's data-file fsync but *before* `Journal::Reset`
// truncates the before-images. The batch is then rolled back on reopen
// (the journal truncate IS the commit point), and the earlier committed
// batch must remain fully readable.
TEST(JournalCrashWindowTest, CrashBetweenEnsureSyncedAndResetRollsBack) {
  const std::string path = TempPath("mmdb_sync_reset_window.db");
  const std::string journal_path = path + ".journal";

  // Probe run: same workload, no faults, to locate the journal truncate
  // of the second commit in the operation log.
  int64_t second_truncate_op = -1;
  {
    RemoveStoreFiles(path);
    FaultInjectingEnv env(Env::Default());
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 64, true, &env);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(10, "committed batch").ok());
    ASSERT_TRUE((*store)->Put(20, "doomed batch").ok());
    // The *last* journal truncate in the log is the second Put's commit
    // point (each commit resets the journal exactly once).
    int64_t truncates_seen = 0;
    for (size_t i = 0; i < env.log().size(); ++i) {
      if (env.log()[i].op == IoOp::kTruncate &&
          env.log()[i].path == journal_path) {
        ++truncates_seen;
        second_truncate_op = static_cast<int64_t>(i) + 1;  // 1-based.
      }
    }
    ASSERT_GE(truncates_seen, 2) << "expected one journal reset per commit";
  }

  // Faulted run: let every operation up to (but not including) that final
  // journal truncate complete, then freeze the machine.
  {
    RemoveStoreFiles(path);
    FaultInjectingEnv env(Env::Default());
    env.CrashAfterOps(second_truncate_op - 1);
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 64, true, &env);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(10, "committed batch").ok());
    EXPECT_FALSE((*store)->Put(20, "doomed batch").ok());
    EXPECT_TRUE(env.crashed());
  }

  // Reopen through a clean env: recovery must roll the second batch back
  // and leave the first intact.
  Result<std::unique_ptr<DiskObjectStore>> store = DiskObjectStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().message();
  Result<std::string> committed = (*store)->Get(10);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, "committed batch");
  EXPECT_FALSE((*store)->Contains(20));
  Result<DiskObjectStore::ScrubReport> report = (*store)->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
  RemoveStoreFiles(path);
}

// Satellite regression: DiskObjectStore::Open on a path whose open fails
// transiently must not truncate the database (the old implementation fell
// back to a truncating create on any fopen error).
TEST(OpenRobustnessTest, FailedOpenLeavesExistingStoreIntact) {
  const std::string path = TempPath("mmdb_open_noclobber.db");
  RemoveStoreFiles(path);
  {
    Result<std::unique_ptr<DiskObjectStore>> store = DiskObjectStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(5, "survives").ok());
  }
  // Injected open failure: the open call itself errors out...
  FaultInjectingEnv env(Env::Default());
  env.FailNth(IoOp::kOpen, 1);
  EXPECT_FALSE(DiskObjectStore::Open(path, 64, true, &env).ok());
  // ...and the store reopens afterwards with its data intact.
  Result<std::unique_ptr<DiskObjectStore>> store = DiskObjectStore::Open(path);
  ASSERT_TRUE(store.ok());
  Result<std::string> value = (*store)->Get(5);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "survives");
  RemoveStoreFiles(path);
}

// A header page that fails verification is reported as it is, and the
// file is left alone: reading page 0 only means "brand-new file" when the
// file has no page 0. The store's undo reloads the directory the same way.
TEST(OpenRobustnessTest, CorruptHeaderFailsOpenWithoutGrowingTheFile) {
  const std::string path = TempPath("mmdb_corrupt_header.db");
  RemoveStoreFiles(path);
  {
    Result<std::unique_ptr<DiskObjectStore>> store = DiskObjectStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(5, "payload").ok());
  }
  // Past the magic and version the raw format probe reads.
  FlipBitOnDisk(path, 100, 2);
  const auto file_size = [&path] {
    Result<std::unique_ptr<File>> file = Env::Default()->OpenFile(path);
    return file.ok() ? (*file)->Size().value_or(0) : 0;
  };
  const uint64_t before = file_size();

  Result<std::unique_ptr<DiskObjectStore>> store = DiskObjectStore::Open(path);
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
  EXPECT_NE(store.status().message().find("page 0"), std::string::npos)
      << store.status().message();
  EXPECT_EQ(file_size(), before);
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
