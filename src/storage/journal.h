#ifndef MMDB_STORAGE_JOURNAL_H_
#define MMDB_STORAGE_JOURNAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/env.h"
#include "storage/page.h"
#include "util/result.h"

namespace mmdb {

/// Undo journal giving the page store crash-consistent mutations.
///
/// Protocol (classic before-image logging with the write-ahead rule):
///  1. before a page is first modified within a transaction, its
///     before-image is appended to the journal (`Append`);
///  2. before any dirty page may be written back to the main file, the
///     journal must be durable (`EnsureSynced` — the buffer pool's
///     pre-writeback hook calls this);
///  3. once every dirty page of the committed transaction has reached
///     the main file (flush + fsync), the journal is truncated
///     (`Reset`).
///
/// If the process dies between (2) and (3), reopening the store finds a
/// non-empty journal and rolls the main file back to the pre-transaction
/// images (`DiskObjectStore::ReplayJournal`, which also undoes aborts and
/// failed commits). Each record carries a checksum; a torn tail
/// record is ignored. Recovery can orphan freshly appended pages (they
/// roll back to zeroed free-floating pages) but never corrupts reachable
/// state. The crash-point torture sweep (tests/torture_test.cc) proves
/// the protocol by crashing after every k-th I/O operation of a scripted
/// workload and asserting the all-or-nothing invariant on reopen; the
/// single-fault sweep beside it fails each write, sync and truncate in
/// turn and asserts that only confirmed batches survive.
///
/// All raw I/O goes through an `Env` (POSIX by default); tests inject a
/// `FaultInjectingEnv` to script write/sync failures and crash points.
class Journal {
 public:
  /// Opens (creating if absent) the journal file at `path` through `env`
  /// (null = `Env::Default()`).
  static Result<std::unique_ptr<Journal>> Open(const std::string& path,
                                               Env* env = nullptr);

  ~Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends a before-image record (one buffered write; not yet durable).
  Status Append(PageId page_id, const Page& before_image);

  /// Makes all appended records durable (no-op when already synced).
  /// A failed fsync is sticky: it returns DataLoss now and on every
  /// later call, so a commit can never be reported durable after its
  /// write-ahead barrier failed (the kernel may have dropped the dirty
  /// pages on the failing fsync — retrying cannot bring them back).
  /// Only a successful `Reset` (a fresh, empty, synced journal) clears
  /// the condition.
  Status EnsureSynced();

  /// Truncates the journal after a completed transaction.
  Status Reset();

  /// True if the journal holds records from an interrupted transaction.
  bool NeedsRecovery() const { return record_count_ > 0; }

  /// The valid recorded before-images, oldest first (a torn tail record
  /// is dropped). Empty when no recovery is needed.
  Result<std::vector<std::pair<PageId, Page>>> ReadRecords();

  /// Number of (valid) records currently in the journal.
  size_t record_count() const { return record_count_; }

 private:
  explicit Journal(std::string path) : path_(std::move(path)) {}

  Status ScanExisting();
  /// Reads record `index` into the out-params; Corruption carries the
  /// record index.
  Status ReadRecordAt(size_t index, PageId* page_id, Page* page) const;

  std::string path_;
  std::unique_ptr<File> file_;
  size_t record_count_ = 0;
  bool synced_ = true;
  /// Set when an fsync barrier failed; see EnsureSynced.
  bool sync_failed_ = false;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_JOURNAL_H_
