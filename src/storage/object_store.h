#ifndef MMDB_STORAGE_OBJECT_STORE_H_
#define MMDB_STORAGE_OBJECT_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/blob_store.h"
#include "storage/disk_manager.h"
#include "storage/journal.h"
#include "util/result.h"

namespace mmdb {

/// Abstract key -> blob object storage used by the MMDBMS facade to hold
/// image rasters, edit-script records, and catalog rows. Two
/// implementations: a page-file-backed store with journaled
/// crash-consistent transactions (production) and an in-memory store
/// (benchmarks and tests, matching the paper's setup where database
/// contents fit in memory).
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Inserts `value` under non-zero `key`; AlreadyExists on duplicates.
  virtual Status Put(uint64_t key, const std::string& value) = 0;

  /// Inserts or replaces `value` under non-zero `key` atomically.
  virtual Status Upsert(uint64_t key, const std::string& value) = 0;

  /// Retrieves the blob under `key`.
  virtual Result<std::string> Get(uint64_t key) const = 0;

  /// Removes `key`.
  virtual Status Delete(uint64_t key) = 0;

  virtual bool Contains(uint64_t key) const = 0;

  /// All keys in ascending order.
  virtual std::vector<uint64_t> Keys() const = 0;

  virtual size_t Count() const = 0;

  /// Groups subsequent mutations into one atomic unit (on stores with
  /// durability; elsewhere a no-op). Batches nest by depth; the
  /// outermost `CommitBatch` makes everything durable, `AbortBatch`
  /// rolls the whole batch back.
  virtual Status BeginBatch() { return Status::OK(); }
  virtual Status CommitBatch() { return Status::OK(); }
  virtual Status AbortBatch() { return Status::OK(); }

  /// Persists any buffered state (no-op in memory).
  virtual Status Flush() = 0;
};

/// Heap-backed object store (no durability; batch calls are no-ops).
class MemoryObjectStore final : public ObjectStore {
 public:
  Status Put(uint64_t key, const std::string& value) override;
  Status Upsert(uint64_t key, const std::string& value) override;
  Result<std::string> Get(uint64_t key) const override;
  Status Delete(uint64_t key) override;
  bool Contains(uint64_t key) const override;
  std::vector<uint64_t> Keys() const override;
  size_t Count() const override { return blobs_.size(); }
  Status Flush() override { return Status::OK(); }

 private:
  std::map<uint64_t, std::string> blobs_;
};

/// Page-file-backed object store (DiskManager + BufferPool + BlobStore)
/// with an undo journal: every mutation (or explicit batch of mutations)
/// commits atomically — after a crash at any point, reopening the store
/// observes either all of the batch or none of it. A failed mutation,
/// abort or commit is undone at once by the same journal replay.
///
/// Each public method holds the store's mutex for its whole run, so any
/// number of threads may read at once. Writers still need external
/// serialization: a batch spans several calls.
class DiskObjectStore final : public ObjectStore {
 public:
  /// Outcome of an integrity scan (`Scrub`).
  struct ScrubReport {
    /// Pages in the on-disk file at scan time.
    PageId pages_scanned = 0;
    /// Pages whose checksum footer failed verification, ascending.
    std::vector<PageId> corrupt_pages;
    /// Blobs whose chain touches a corrupt (or unreachable) page.
    std::vector<uint64_t> corrupt_keys;
    bool clean() const { return corrupt_pages.empty() && corrupt_keys.empty(); }
  };

  /// Opens (or creates) the store at `path` with a buffer pool of
  /// `pool_pages` frames. The journal lives at `path` + ".journal";
  /// `journaled = false` opts out of crash consistency (the journal
  /// file, if present from an earlier run, is still recovered first).
  /// All raw I/O goes through `env` (null = `Env::Default()`).
  ///
  /// A file written by the pre-checksum v1 format is rejected with a
  /// versioned-header Corruption error before journal recovery runs —
  /// v1 pages may carry payload in the bytes the v2 footer occupies, so
  /// touching them would destroy data.
  static Result<std::unique_ptr<DiskObjectStore>> Open(
      const std::string& path, size_t pool_pages = 256, bool journaled = true,
      Env* env = nullptr);

  /// Scans every page of the on-disk file (checksum verification) and
  /// walks each blob chain, reporting the extent of any corruption. Reads
  /// the disk image directly — call on a freshly opened or flushed store.
  Result<ScrubReport> Scrub() const;

  Status Put(uint64_t key, const std::string& value) override;
  Status Upsert(uint64_t key, const std::string& value) override;
  Result<std::string> Get(uint64_t key) const override;
  Status Delete(uint64_t key) override;
  bool Contains(uint64_t key) const override;
  std::vector<uint64_t> Keys() const override;
  size_t Count() const override;
  Status BeginBatch() override;
  Status CommitBatch() override;
  Status AbortBatch() override;
  Status Flush() override;

  /// Buffer pool statistics (hits/misses/evictions).
  const BufferPool::Stats& PoolStats() const { return pool_->stats(); }

  /// TESTING ONLY: abandons all buffered (uncommitted) state, leaving
  /// the on-disk file and journal exactly as a crash would. The store
  /// refuses mutations afterwards; reopen to observe recovery.
  void SimulateCrashForTesting();

 private:
  DiskObjectStore() = default;

  /// Commits the active transaction (flush + data sync + journal reset)
  /// unless inside an explicit batch.
  Status MaybeCommit();
  /// Flushes and syncs the transaction's pages, then empties the journal
  /// (the commit point). A failure before the commit point rolls the
  /// transaction back; a failure at it leaves the store crashed.
  Status CommitTransaction();
  /// Undoes the active transaction: drops every buffered page, replays
  /// the journal, and reloads the blob directory. A failed undo leaves
  /// the store crashed.
  Status RollbackTransaction();
  /// Writes the journal's before-images back into the page file, newest
  /// first, syncs it and empties the journal — the one undo behind crash
  /// recovery (`Open`) and `RollbackTransaction`.
  Status ReplayJournal();
  /// Refuses every mutation once the store is crashed.
  Status CheckNotCrashed() const;
  /// Runs `mutation`, committing on success and rolling back on failure.
  Status Mutate(const std::function<Status()>& mutation);

  /// Serializes the public methods (none calls another): the buffer
  /// pool, the blob directory and the page file below are
  /// single-threaded.
  mutable std::mutex mu_;
  // Declaration order is a lifetime contract: members destroy in reverse,
  // and ~BufferPool writes back dirty pages through hooks that hold raw
  // Journal* and DiskManager* — both must outlive pool_ (and blobs_,
  // which holds a raw BufferPool*, must not).
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BlobStore> blobs_;
  int batch_depth_ = 0;
  /// Set when the store cannot know or restore its committed state (a
  /// failed journal reset or undo, or a simulated crash); only a reopen,
  /// whose recovery replays the journal, clears it.
  bool crashed_ = false;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_OBJECT_STORE_H_
