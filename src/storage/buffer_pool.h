#ifndef MMDB_STORAGE_BUFFER_POOL_H_
#define MMDB_STORAGE_BUFFER_POOL_H_

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/result.h"

namespace mmdb {

class PageGuard;

/// Invoked with a page's pre-modification image the first time it is
/// written within the current capture epoch (see `BufferPool`'s journal
/// integration).
using WriteCaptureHook = std::function<Status(PageId, const Page&)>;

/// Invoked before any dirty page is written back to disk; used to
/// enforce the write-ahead rule (journal durable before data pages).
using PreWritebackHook = std::function<Status()>;

/// A fixed-capacity page cache over a `DiskManager` with LRU replacement
/// and pin counting.
///
/// Pages are accessed through `PageGuard`s, which pin their frame for
/// their lifetime (a pinned frame is never evicted) and mark it dirty when
/// written through. Dirty frames are written back on eviction and on
/// `FlushAll`.
class BufferPool {
 public:
  /// `capacity` is the number of in-memory frames; `disk` must outlive
  /// the pool.
  BufferPool(DiskManager* disk, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on a miss. Fails with
  /// ResourceExhausted when every frame is pinned.
  Result<PageGuard> FetchPage(PageId id);

  /// Allocates a fresh page on disk and pins it.
  Result<PageGuard> NewPage();

  /// Writes back every dirty frame (does not evict).
  Status FlushAll();

  /// Frames currently pinned (for tests and stats).
  size_t PinnedCount() const;
  size_t capacity() const { return capacity_; }

  /// Journal integration (see `Journal`). The capture hook receives each
  /// page's before-image on its first write of the current epoch; the
  /// pre-writeback hook runs before any dirty page reaches disk.
  /// `PageGuard::Write` cannot fail, so a failed capture stays pending and
  /// every writeback is refused with it until `DiscardAll`: a page whose
  /// before-image the journal lacks must never reach the file.
  void SetWriteCaptureHook(WriteCaptureHook hook) {
    capture_hook_ = std::move(hook);
  }
  void SetPreWritebackHook(PreWritebackHook hook) {
    pre_writeback_hook_ = std::move(hook);
  }

  /// Starts a new capture epoch: every page's next write is captured
  /// again. Called after each committed transaction.
  void BeginCaptureEpoch();

  /// Drops every frame without writeback, and any pending capture error:
  /// the buffered state of an undone (or crashed) transaction. No page
  /// may be pinned.
  void DiscardAll();

  /// Cache statistics.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t writebacks = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId page_id = 0;
    /// Distinguishes an empty frame from one holding disk page 0 (page
    /// ids start at 0; there is no spare id to use as a sentinel).
    bool in_use = false;
    int pin_count = 0;
    bool dirty = false;
    /// Before-image already captured this epoch.
    bool captured = false;
  };

  /// Captures the frame's before-image on its first write this epoch.
  void OnGuardWrite(size_t frame_index);
  /// Runs the pre-writeback hook (write-ahead rule) before a dirty page
  /// reaches disk.
  Status NotifyWriteback();

  /// Finds a frame for `id` (hit, free frame, or LRU eviction), pins it.
  Result<size_t> PinFrame(PageId id, bool read_from_disk);
  void Unpin(size_t frame_index, bool dirty);
  void TouchLru(size_t frame_index);
  Status EvictFrame(size_t frame_index);

  DiskManager* disk_;
  size_t capacity_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  std::vector<size_t> free_frames_;
  /// LRU order over unpinned-but-resident frames; front = least recent.
  std::list<size_t> lru_;
  std::unordered_map<size_t, std::list<size_t>::iterator> lru_pos_;
  Stats stats_;
  WriteCaptureHook capture_hook_;
  PreWritebackHook pre_writeback_hook_;
  Status capture_error_;
};

/// RAII pin on a buffer pool frame.
///
/// `Read()` returns the page for inspection; `Write()` additionally marks
/// the frame dirty. The pin is released on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool Valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  const Page& Read() const { return pool_->frames_[frame_].page; }
  Page& Write() {
    // Capture the before-image (journal) before handing out mutable
    // access.
    pool_->OnGuardWrite(frame_);
    dirty_ = true;
    return pool_->frames_[frame_].page;
  }

  /// Releases the pin early.
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, size_t frame, PageId page_id)
      : pool_(pool), frame_(frame), page_id_(page_id) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
  bool dirty_ = false;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_BUFFER_POOL_H_
