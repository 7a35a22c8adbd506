#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

#include "core/database.h"
#include "storage/journal.h"
#include "storage/object_store.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using mmdb::testing::TempPath;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("mmdb_journal_test.jrnl");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(JournalTest, FreshJournalNeedsNoRecovery) {
  auto journal = Journal::Open(path_).value();
  EXPECT_FALSE(journal->NeedsRecovery());
  EXPECT_EQ(journal->record_count(), 0u);
}

TEST_F(JournalTest, AppendSyncReadRoundTrip) {
  auto journal = Journal::Open(path_).value();
  Page a, b;
  a.WriteU64(0, 111);
  b.WriteU64(0, 222);
  ASSERT_TRUE(journal->Append(5, a).ok());
  ASSERT_TRUE(journal->Append(9, b).ok());
  ASSERT_TRUE(journal->EnsureSynced().ok());
  const auto records = journal->ReadRecords().value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].first, 5u);
  EXPECT_EQ(records[0].second.ReadU64(0), 111u);
  EXPECT_EQ(records[1].first, 9u);
  EXPECT_EQ(records[1].second.ReadU64(0), 222u);
}

TEST_F(JournalTest, SurvivesReopen) {
  {
    auto journal = Journal::Open(path_).value();
    Page page;
    page.WriteU32(100, 7);
    ASSERT_TRUE(journal->Append(3, page).ok());
    ASSERT_TRUE(journal->EnsureSynced().ok());
  }
  auto journal = Journal::Open(path_).value();
  EXPECT_TRUE(journal->NeedsRecovery());
  const auto records = journal->ReadRecords().value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second.ReadU32(100), 7u);
}

TEST_F(JournalTest, ResetClears) {
  auto journal = Journal::Open(path_).value();
  Page page;
  ASSERT_TRUE(journal->Append(1, page).ok());
  ASSERT_TRUE(journal->Reset().ok());
  EXPECT_FALSE(journal->NeedsRecovery());
  auto reopened = Journal::Open(path_).value();
  EXPECT_FALSE(reopened->NeedsRecovery());
}

TEST_F(JournalTest, TornTailRecordIsIgnored) {
  {
    auto journal = Journal::Open(path_).value();
    Page page;
    page.WriteU32(0, 42);
    ASSERT_TRUE(journal->Append(1, page).ok());
    ASSERT_TRUE(journal->Append(2, page).ok());
    ASSERT_TRUE(journal->EnsureSynced().ok());
  }
  // Truncate mid-way into the second record (a torn write).
  {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    const auto size = static_cast<size_t>(in.tellg());
    in.close();
    ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(size - 100)), 0);
  }
  auto journal = Journal::Open(path_).value();
  EXPECT_EQ(journal->record_count(), 1u);
  const auto records = journal->ReadRecords().value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, 1u);
}

TEST_F(JournalTest, CorruptRecordStopsTheScan) {
  {
    auto journal = Journal::Open(path_).value();
    Page page;
    ASSERT_TRUE(journal->Append(1, page).ok());
    ASSERT_TRUE(journal->Append(2, page).ok());
    ASSERT_TRUE(journal->EnsureSynced().ok());
  }
  // Flip a byte inside the first record's page image.
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(64);
    char byte = 'x';
    file.write(&byte, 1);
  }
  auto journal = Journal::Open(path_).value();
  EXPECT_EQ(journal->record_count(), 0u);  // Checksum mismatch at record 0.
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("mmdb_crash_test.db");
    std::remove(path_.c_str());
    std::remove((path_ + ".journal").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".journal").c_str());
  }
  std::string path_;
};

TEST_F(CrashRecoveryTest, CrashMidPutRollsBackToLastCommit) {
  // Small pool forces mid-transaction evictions, so some pages of the
  // uncommitted Put reach disk before the "crash".
  const std::string big_a(kPageSize * 20, 'a');
  const std::string big_b(kPageSize * 20, 'b');
  {
    auto store = DiskObjectStore::Open(path_, 8).value();
    ASSERT_TRUE(store->Put(1, big_a).ok());  // Committed.
    // Uncommitted batch: pages leak to disk via evictions, then crash.
    ASSERT_TRUE(store->BeginBatch().ok());
    ASSERT_TRUE(store->Put(2, big_b).ok());
    store->SimulateCrashForTesting();
  }
  auto store = DiskObjectStore::Open(path_, 8).value();
  EXPECT_TRUE(store->Contains(1));
  EXPECT_EQ(store->Get(1).value(), big_a);
  EXPECT_FALSE(store->Contains(2)) << "uncommitted Put must vanish";
}

TEST_F(CrashRecoveryTest, CrashMidDeletePreservesTheBlob) {
  const std::string payload(kPageSize * 10, 'z');
  {
    auto store = DiskObjectStore::Open(path_, 8).value();
    ASSERT_TRUE(store->Put(7, payload).ok());
    ASSERT_TRUE(store->BeginBatch().ok());
    ASSERT_TRUE(store->Delete(7).ok());
    store->SimulateCrashForTesting();
  }
  auto store = DiskObjectStore::Open(path_, 8).value();
  ASSERT_TRUE(store->Contains(7));
  EXPECT_EQ(store->Get(7).value(), payload);
}

TEST_F(CrashRecoveryTest, AbortBatchRestoresStateWithoutReopen) {
  auto store = DiskObjectStore::Open(path_, 8).value();
  ASSERT_TRUE(store->Put(1, "committed").ok());
  ASSERT_TRUE(store->BeginBatch().ok());
  ASSERT_TRUE(store->Put(2, "doomed").ok());
  ASSERT_TRUE(store->Delete(1).ok());
  ASSERT_TRUE(store->AbortBatch().ok());
  EXPECT_TRUE(store->Contains(1));
  EXPECT_EQ(store->Get(1).value(), "committed");
  EXPECT_FALSE(store->Contains(2));
  // The store remains fully usable.
  ASSERT_TRUE(store->Put(3, "after").ok());
  EXPECT_EQ(store->Get(3).value(), "after");
}

TEST_F(CrashRecoveryTest, BatchCommitIsAtomicAcrossCrash) {
  {
    auto store = DiskObjectStore::Open(path_, 8).value();
    ASSERT_TRUE(store->BeginBatch().ok());
    ASSERT_TRUE(store->Put(1, "one").ok());
    ASSERT_TRUE(store->Put(2, "two").ok());
    ASSERT_TRUE(store->CommitBatch().ok());
    // Crash after the commit completed: both survive.
    store->SimulateCrashForTesting();
  }
  auto store = DiskObjectStore::Open(path_, 8).value();
  EXPECT_EQ(store->Get(1).value(), "one");
  EXPECT_EQ(store->Get(2).value(), "two");
}

TEST_F(CrashRecoveryTest, RandomCrashPointsNeverCorrupt) {
  Rng rng(1301);
  // Repeatedly: apply a committed prefix of operations, start an
  // uncommitted batch, crash, reopen, and verify the committed state.
  std::map<uint64_t, std::string> committed;
  for (int round = 0; round < 6; ++round) {
    {
      auto store = DiskObjectStore::Open(path_, 8).value();
      // Committed operations.
      for (int i = 0; i < 3; ++i) {
        const uint64_t key = rng.UniformInt(1, 12);
        if (rng.Bernoulli(0.7)) {
          const std::string value(rng.UniformInt(10, 9000),
                                  static_cast<char>('a' + round));
          ASSERT_TRUE(store->Upsert(key, value).ok());
          committed[key] = value;
        } else if (committed.count(key)) {
          ASSERT_TRUE(store->Delete(key).ok());
          committed.erase(key);
        }
      }
      // Doomed batch.
      ASSERT_TRUE(store->BeginBatch().ok());
      for (int i = 0; i < 3; ++i) {
        const uint64_t key = rng.UniformInt(1, 12);
        store->Upsert(key, "doomed").ok();
      }
      store->SimulateCrashForTesting();
    }
    auto store = DiskObjectStore::Open(path_, 8).value();
    ASSERT_EQ(store->Count(), committed.size()) << "round " << round;
    for (const auto& [key, value] : committed) {
      EXPECT_EQ(store->Get(key).value(), value) << "round " << round;
    }
  }
}

TEST_F(CrashRecoveryTest, DatabaseLevelCrashKeepsCatalogConsistent) {
  // Insert images committed, then crash mid-insert at the store level:
  // the reopened database must load cleanly and pass integrity.
  ObjectId committed_id;
  {
    DatabaseOptions options;
    options.path = path_;
    auto db = MultimediaDatabase::Open(options).value();
    committed_id =
        db->InsertBinaryImage(Image(24, 24, colors::kNavy)).value();
    // Emulate a crash with buffered, uncommitted junk: reach into a new
    // store on the same file is not possible while open, so simply skip
    // Flush and drop the db; committed inserts are already durable
    // because each insert batch commits.
  }
  DatabaseOptions options;
  options.path = path_;
  auto db = MultimediaDatabase::Open(options).value();
  EXPECT_TRUE(db->GetImage(committed_id).ok());
  EXPECT_TRUE(db->VerifyIntegrity(/*deep_pixels=*/true).ok());
}

}  // namespace
}  // namespace mmdb
