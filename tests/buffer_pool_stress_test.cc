// Randomized stress of the buffer pool against direct disk I/O as the
// reference: arbitrary interleavings of fetch/write/flush across pool
// sizes must always read back the bytes the reference model holds.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "storage/buffer_pool.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using mmdb::testing::TempPath;

class BufferPoolStress : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    path_ = TempPath("mmdb_bp_stress.db");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_P(BufferPoolStress, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam());
  DiskManager disk;
  ASSERT_TRUE(disk.Open(path_).ok());
  const size_t capacity = 2 + rng.Uniform(14);
  BufferPool pool(&disk, capacity);

  // Reference: page id -> the u64 we last stamped at a random offset.
  std::map<PageId, std::pair<size_t, uint64_t>> reference;
  std::vector<PageId> pages;

  for (int step = 0; step < 600; ++step) {
    const int action = static_cast<int>(rng.Uniform(10));
    if (pages.empty() || action < 3) {
      // Allocate and stamp a new page.
      auto guard = pool.NewPage();
      ASSERT_TRUE(guard.ok()) << guard.status().ToString();
      const size_t offset = rng.Uniform((kPageSize - 8) / 8) * 8;
      const uint64_t value = rng.NextU64();
      guard->Write().WriteU64(offset, value);
      reference[guard->page_id()] = {offset, value};
      pages.push_back(guard->page_id());
    } else if (action < 6) {
      // Re-stamp an existing page.
      const PageId id = pages[rng.Uniform(pages.size())];
      auto guard = pool.FetchPage(id);
      ASSERT_TRUE(guard.ok()) << guard.status().ToString();
      const size_t offset = rng.Uniform((kPageSize - 8) / 8) * 8;
      const uint64_t value = rng.NextU64();
      guard->Write().WriteU64(offset, value);
      reference[id] = {offset, value};
    } else if (action < 9) {
      // Verify a random page through the pool.
      const PageId id = pages[rng.Uniform(pages.size())];
      auto guard = pool.FetchPage(id);
      ASSERT_TRUE(guard.ok()) << guard.status().ToString();
      const auto& [offset, value] = reference[id];
      ASSERT_EQ(guard->Read().ReadU64(offset), value)
          << "page " << id << " step " << step << " cap " << capacity;
    } else {
      ASSERT_TRUE(pool.FlushAll().ok());
    }
  }

  // Full writeback, then verify every page straight from disk.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (const auto& [id, stamp] : reference) {
    Page raw;
    ASSERT_TRUE(disk.ReadPage(id, &raw).ok());
    EXPECT_EQ(raw.ReadU64(stamp.first), stamp.second) << "page " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, BufferPoolStress,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace mmdb
