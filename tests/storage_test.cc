#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/object_store.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

class DiskManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("mmdb_dm_test.db");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(DiskManagerTest, AllocateReadWrite) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  EXPECT_EQ(dm.PageCount().value(), 0u);
  const PageId id = dm.AllocatePage().value();
  EXPECT_EQ(id, 0u);
  Page page;
  page.WriteU64(0, 0xdeadbeefcafef00dULL);
  page.WriteU32(100, 42);
  ASSERT_TRUE(dm.WritePage(id, page).ok());
  Page read;
  ASSERT_TRUE(dm.ReadPage(id, &read).ok());
  EXPECT_EQ(read.ReadU64(0), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(read.ReadU32(100), 42u);
}

TEST_F(DiskManagerTest, ReadPastEofFails) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  Page page;
  EXPECT_EQ(dm.ReadPage(5, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dm.WritePage(5, page).code(), StatusCode::kOutOfRange);
}

TEST_F(DiskManagerTest, PersistsAcrossReopen) {
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(path_).ok());
    ASSERT_TRUE(dm.AllocatePage().ok());
    Page page;
    page.WriteU32(0, 777);
    ASSERT_TRUE(dm.WritePage(0, page).ok());
    ASSERT_TRUE(dm.Sync().ok());
    ASSERT_TRUE(dm.Close().ok());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  EXPECT_EQ(dm.PageCount().value(), 1u);
  Page page;
  ASSERT_TRUE(dm.ReadPage(0, &page).ok());
  EXPECT_EQ(page.ReadU32(0), 777u);
}

TEST_F(DiskManagerTest, UnopenedFails) {
  DiskManager dm;
  Page page;
  EXPECT_FALSE(dm.ReadPage(0, &page).ok());
  EXPECT_FALSE(dm.PageCount().ok());
}

class BufferPoolTest : public DiskManagerTest {};

TEST_F(BufferPoolTest, WriteThroughAndReadBack) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 4);
  {
    PageGuard guard = pool.NewPage().value();
    guard.Write().WriteU32(8, 123);
  }
  {
    PageGuard guard = pool.FetchPage(0).value();
    EXPECT_EQ(guard.Read().ReadU32(8), 123u);
  }
  EXPECT_GE(pool.stats().hits, 1);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 2);
  // Create 6 pages, each stamped with its id; pool holds only 2.
  for (uint32_t i = 0; i < 6; ++i) {
    PageGuard guard = pool.NewPage().value();
    guard.Write().WriteU32(0, i + 1000);
  }
  EXPECT_GE(pool.stats().evictions, 4);
  // Every page must read back correctly through the pool.
  for (uint32_t i = 0; i < 6; ++i) {
    PageGuard guard = pool.FetchPage(i).value();
    EXPECT_EQ(guard.Read().ReadU32(0), i + 1000) << i;
  }
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 2);
  PageGuard pinned_a = pool.NewPage().value();
  PageGuard pinned_b = pool.NewPage().value();
  EXPECT_EQ(pool.PinnedCount(), 2u);
  // Every frame pinned: a third page cannot be brought in.
  EXPECT_EQ(pool.NewPage().status().code(), StatusCode::kResourceExhausted);
  pinned_a.Release();
  EXPECT_TRUE(pool.NewPage().ok());
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 2);
  pool.NewPage().value();  // Page 0.
  pool.NewPage().value();  // Page 1.
  pool.FetchPage(0).value();  // Touch 0: now 1 is LRU.
  const auto before = pool.stats().evictions;
  pool.NewPage().value();  // Page 2: must evict page 1 (LRU).
  EXPECT_EQ(pool.stats().evictions, before + 1);
  // Page 0 should still be resident (hit).
  const auto hits_before = pool.stats().hits;
  pool.FetchPage(0).value();
  EXPECT_EQ(pool.stats().hits, hits_before + 1);
}

TEST_F(BufferPoolTest, FailedFetchLeaksNoFrames) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 2);
  // Page 9 does not exist; the claimed frame must return to the free
  // list, leaving the pool fully usable.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.FetchPage(9).status().code(), StatusCode::kOutOfRange);
  }
  PageGuard a = pool.NewPage().value();
  PageGuard b = pool.NewPage().value();
  EXPECT_EQ(pool.PinnedCount(), 2u);
}

TEST_F(BufferPoolTest, FlushAllPersistsWithoutEviction) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 4);
  {
    PageGuard guard = pool.NewPage().value();
    guard.Write().WriteU32(0, 55);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  Page raw;
  ASSERT_TRUE(dm.ReadPage(0, &raw).ok());
  EXPECT_EQ(raw.ReadU32(0), 55u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfGuards) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 2);
  PageGuard a = pool.NewPage().value();
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.Valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.Valid());
  EXPECT_EQ(pool.PinnedCount(), 1u);
  b.Release();
  EXPECT_EQ(pool.PinnedCount(), 0u);
}

class BlobStoreTest : public DiskManagerTest {};

TEST_F(BlobStoreTest, PutGetDelete) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 16);
  auto store = BlobStore::Open(&pool).value();
  ASSERT_TRUE(store->Put(1, "hello").ok());
  ASSERT_TRUE(store->Put(2, std::string(10000, 'x')).ok());
  EXPECT_EQ(store->Get(1).value(), "hello");
  EXPECT_EQ(store->Get(2).value().size(), 10000u);
  EXPECT_TRUE(store->Contains(1));
  ASSERT_TRUE(store->Delete(1).ok());
  EXPECT_FALSE(store->Contains(1));
  EXPECT_EQ(store->Get(1).status().code(), StatusCode::kNotFound);
}

TEST_F(BlobStoreTest, RejectsDuplicatesAndZeroKeys) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 16);
  auto store = BlobStore::Open(&pool).value();
  ASSERT_TRUE(store->Put(1, "a").ok());
  EXPECT_EQ(store->Put(1, "b").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store->Put(0, "c").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store->Delete(9).code(), StatusCode::kNotFound);
}

TEST_F(BlobStoreTest, EmptyBlobRoundTrips) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 16);
  auto store = BlobStore::Open(&pool).value();
  ASSERT_TRUE(store->Put(5, "").ok());
  EXPECT_EQ(store->Get(5).value(), "");
}

TEST_F(BlobStoreTest, FreedPagesAreReused) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 16);
  auto store = BlobStore::Open(&pool).value();
  const std::string big(kPageSize * 3, 'y');
  ASSERT_TRUE(store->Put(1, big).ok());
  const PageId pages_after_first = dm.PageCount().value();
  ASSERT_TRUE(store->Delete(1).ok());
  ASSERT_TRUE(store->Put(2, big).ok());
  // The second blob reuses the freed chain; the file must not grow.
  EXPECT_EQ(dm.PageCount().value(), pages_after_first);
  EXPECT_EQ(store->Get(2).value(), big);
}

TEST_F(BlobStoreTest, PersistsAcrossReopen) {
  Rng rng(101);
  std::string big(9000, '\0');
  for (char& c : big) c = static_cast<char>(rng.Uniform(256));
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(path_).ok());
    BufferPool pool(&dm, 16);
    auto store = BlobStore::Open(&pool).value();
    ASSERT_TRUE(store->Put(7, "persisted").ok());
    ASSERT_TRUE(store->Put(8, big).ok());
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_TRUE(dm.Sync().ok());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 16);
  auto store = BlobStore::Open(&pool).value();
  EXPECT_EQ(store->BlobCount(), 2u);
  EXPECT_EQ(store->Get(7).value(), "persisted");
  EXPECT_EQ(store->Get(8).value(), big);
  EXPECT_EQ(store->Keys(), (std::vector<uint64_t>{7, 8}));
}

/// "v<key>", built by appending: GCC 12 at -O3 raises a false -Wrestrict
/// on `"v" + std::to_string(key)`.
std::string BlobValue(uint64_t key) {
  std::string value = "v";
  value += std::to_string(key);
  return value;
}

TEST_F(BlobStoreTest, ManyBlobsSpanMultipleDirectoryPages) {
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path_).ok());
  BufferPool pool(&dm, 32);
  auto store = BlobStore::Open(&pool).value();
  // 255 slots per directory page; insert 600 blobs.
  for (uint64_t key = 1; key <= 600; ++key) {
    ASSERT_TRUE(store->Put(key, BlobValue(key)).ok()) << key;
  }
  EXPECT_EQ(store->BlobCount(), 600u);
  for (uint64_t key = 1; key <= 600; ++key) {
    EXPECT_EQ(store->Get(key).value(), BlobValue(key));
  }
}

TEST(MemoryObjectStoreTest, BasicOperations) {
  MemoryObjectStore store;
  ASSERT_TRUE(store.Put(3, "three").ok());
  ASSERT_TRUE(store.Put(1, "one").ok());
  EXPECT_EQ(store.Get(3).value(), "three");
  EXPECT_EQ(store.Put(3, "x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store.Put(0, "x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Keys(), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(store.Count(), 2u);
  ASSERT_TRUE(store.Delete(1).ok());
  EXPECT_EQ(store.Delete(1).code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Flush().ok());
}

TEST(DiskObjectStoreTest, MatchesMemorySemantics) {
  const std::string path = TempPath("mmdb_dos_test.db");
  RemoveStoreFiles(path);
  Rng rng(113);
  {
    auto store = DiskObjectStore::Open(path, 16).value();
    MemoryObjectStore reference;
    for (int i = 0; i < 200; ++i) {
      const uint64_t key = rng.UniformInt(1, 40);
      const int action = static_cast<int>(rng.Uniform(3));
      if (action == 0) {
        const std::string value(rng.UniformInt(0, 5000), 'z');
        EXPECT_EQ(store->Put(key, value).code(),
                  reference.Put(key, value).code());
      } else if (action == 1) {
        EXPECT_EQ(store->Delete(key).code(), reference.Delete(key).code());
      } else {
        const auto a = store->Get(key);
        const auto b = reference.Get(key);
        EXPECT_EQ(a.ok(), b.ok());
        if (a.ok()) {
          EXPECT_EQ(a.value(), b.value());
        }
      }
    }
    EXPECT_EQ(store->Keys(), reference.Keys());
    ASSERT_TRUE(store->Flush().ok());
  }
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
