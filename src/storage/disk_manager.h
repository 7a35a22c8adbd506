#ifndef MMDB_STORAGE_DISK_MANAGER_H_
#define MMDB_STORAGE_DISK_MANAGER_H_

#include <memory>
#include <string>

#include "storage/env.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace mmdb {

/// Transient-fault handling for `DiskManager::ReadPage` (namespace-scope
/// so it is a complete type by the time it appears as a default
/// argument).
struct ReadRetryPolicy {
  /// Total read attempts for an IoError (1 = no retry).
  int max_attempts = 3;
  /// Sleep before the first retry; each further retry multiplies it.
  double backoff_seconds = 0.0005;
  double backoff_multiplier = 2.0;
  /// Uniform jitter applied to each sleep: factor in
  /// [1 - jitter_fraction, 1 + jitter_fraction].
  double jitter_fraction = 0.5;
  /// Re-read once on checksum mismatch before declaring Corruption.
  bool checksum_retry = true;
};

/// Page-granular file I/O for a single database file.
///
/// The disk manager knows nothing about page *layouts*; it reads, writes,
/// and appends whole pages — but it owns page *integrity*: every page
/// written carries a CRC-32 footer (see `kPageFooterSize` in page.h),
/// re-stamped on every write-out and verified on every read, so a flipped
/// bit or torn write surfaces as `Status::Corruption` naming the page.
/// All raw I/O goes through an `Env` (POSIX by default; tests inject a
/// `FaultInjectingEnv`). Not thread-safe: each `DiskObjectStore`
/// serializes its own I/O.
///
/// `ReadPage` absorbs transient faults per a `ReadRetryPolicy`: an
/// IoError read retries with exponential backoff and jitter, and a
/// checksum mismatch triggers one immediate re-read (a flipped bit on
/// the wire differs from a flipped bit on the platter) before the
/// Corruption verdict stands. Reads also honor the calling query's
/// deadline/cancel scope (`CheckScopedCancel`), so a storage-bound scan
/// stops between pages, not minutes later.
class DiskManager {
 public:
  using ReadRetryPolicy = mmdb::ReadRetryPolicy;

  DiskManager() = default;
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Opens (creating only when absent — an existing file is never
  /// truncated) the database file at `path` through `env` (null =
  /// `Env::Default()`). `checksums = false` skips footer stamping and
  /// verification; for measurement only (bench_storage), never for data
  /// anyone keeps.
  Status Open(const std::string& path, Env* env = nullptr,
              bool checksums = true, ReadRetryPolicy retry = {});

  /// Closes the file. Safe to call when not open.
  Status Close();

  bool IsOpen() const { return file_ != nullptr; }

  /// Number of pages currently in the file (a torn partial page at the
  /// tail is not counted).
  Result<PageId> PageCount() const;

  /// Appends a zeroed (checksummed) page; returns its id.
  Result<PageId> AllocatePage();

  /// Reads page `id` into `*page`, verifying its checksum footer. Fails
  /// with OutOfRange past EOF and Corruption on a checksum mismatch.
  Status ReadPage(PageId id, Page* page) const;

  /// Reads page `id` without checksum verification — for format-version
  /// probing and corruption diagnostics (`DiskObjectStore::Scrub`).
  Status ReadPageRaw(PageId id, Page* page) const;

  /// Writes `page` at `id` (which must already exist), stamping a fresh
  /// checksum footer.
  Status WritePage(PageId id, const Page& page);

  /// Durably flushes written pages (fsync).
  Status Sync();

 private:
  std::unique_ptr<File> file_;
  std::string path_;
  bool checksums_ = true;
  ReadRetryPolicy retry_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_DISK_MANAGER_H_
