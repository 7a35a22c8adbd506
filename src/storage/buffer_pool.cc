#include "storage/buffer_pool.h"

#include <cassert>

#include "obs/metrics.h"

namespace mmdb {

namespace {

/// Registry mirrors of BufferPool::Stats, aggregated across every pool in
/// the process (per-pool numbers stay on `stats()`).
struct PoolCounters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* writebacks;
};

const PoolCounters& Counters() {
  static const PoolCounters counters = [] {
    obs::Registry& registry = obs::Registry::Default();
    PoolCounters out;
    out.hits = registry.GetCounter("mmdb_buffer_pool_hits_total",
                                   "Page fetches served from a resident "
                                   "frame.");
    out.misses = registry.GetCounter("mmdb_buffer_pool_misses_total",
                                     "Page fetches that had to touch the "
                                     "disk manager.");
    out.evictions = registry.GetCounter("mmdb_buffer_pool_evictions_total",
                                        "Frames reclaimed from the LRU "
                                        "list.");
    out.writebacks = registry.GetCounter(
        "mmdb_buffer_pool_writebacks_total",
        "Dirty frames written back to disk (evictions and flushes).");
    return out;
  }();
  return counters;
}

}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), capacity_(capacity > 0 ? capacity : 1) {
  frames_.resize(capacity_);
  DiscardAll();
}

BufferPool::~BufferPool() {
  // Best-effort writeback; errors surface earlier through FlushAll.
  FlushAll().ok();
}

Result<size_t> BufferPool::PinFrame(PageId id, bool read_from_disk) {
  if (const auto it = page_table_.find(id); it != page_table_.end()) {
    const size_t frame_index = it->second;
    Frame& frame = frames_[frame_index];
    if (frame.pin_count == 0) {
      // Leave the LRU list while pinned.
      const auto pos = lru_pos_.find(frame_index);
      if (pos != lru_pos_.end()) {
        lru_.erase(pos->second);
        lru_pos_.erase(pos);
      }
    }
    ++frame.pin_count;
    ++stats_.hits;
    Counters().hits->Increment();
    return frame_index;
  }

  ++stats_.misses;
  Counters().misses->Increment();
  size_t frame_index;
  if (!free_frames_.empty()) {
    frame_index = free_frames_.back();
    free_frames_.pop_back();
  } else {
    if (lru_.empty()) {
      return Status::ResourceExhausted(
          "buffer pool: all " + std::to_string(capacity_) +
          " frames pinned");
    }
    frame_index = lru_.front();
    MMDB_RETURN_IF_ERROR(EvictFrame(frame_index));
  }

  Frame& frame = frames_[frame_index];
  frame.page_id = id;
  frame.in_use = true;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.captured = false;
  if (read_from_disk) {
    const Status read = disk_->ReadPage(id, &frame.page);
    if (!read.ok()) {
      // Return the claimed frame so a failed fetch leaks nothing.
      frame.in_use = false;
      frame.pin_count = 0;
      free_frames_.push_back(frame_index);
      return read;
    }
  } else {
    frame.page.Clear();
  }
  page_table_[id] = frame_index;
  return frame_index;
}

Status BufferPool::EvictFrame(size_t frame_index) {
  Frame& frame = frames_[frame_index];
  assert(frame.pin_count == 0);
  ++stats_.evictions;
  Counters().evictions->Increment();
  if (frame.dirty) {
    ++stats_.writebacks;
    Counters().writebacks->Increment();
    MMDB_RETURN_IF_ERROR(NotifyWriteback());
    MMDB_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, frame.page));
    frame.dirty = false;
  }
  page_table_.erase(frame.page_id);
  const auto pos = lru_pos_.find(frame_index);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }
  frame.in_use = false;
  return Status::OK();
}

void BufferPool::TouchLru(size_t frame_index) {
  const auto pos = lru_pos_.find(frame_index);
  if (pos != lru_pos_.end()) lru_.erase(pos->second);
  lru_.push_back(frame_index);
  lru_pos_[frame_index] = std::prev(lru_.end());
}

void BufferPool::Unpin(size_t frame_index, bool dirty) {
  Frame& frame = frames_[frame_index];
  assert(frame.pin_count > 0);
  frame.dirty = frame.dirty || dirty;
  if (--frame.pin_count == 0) TouchLru(frame_index);
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  MMDB_ASSIGN_OR_RETURN(size_t frame_index, PinFrame(id, /*read=*/true));
  return PageGuard(this, frame_index, id);
}

Result<PageGuard> BufferPool::NewPage() {
  MMDB_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  MMDB_ASSIGN_OR_RETURN(size_t frame_index, PinFrame(id, /*read=*/false));
  return PageGuard(this, frame_index, id);
}

Status BufferPool::FlushAll() {
  for (Frame& frame : frames_) {
    if (frame.in_use && frame.dirty) {
      MMDB_RETURN_IF_ERROR(NotifyWriteback());
      MMDB_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, frame.page));
      frame.dirty = false;
      ++stats_.writebacks;
      Counters().writebacks->Increment();
    }
  }
  return Status::OK();
}

void BufferPool::OnGuardWrite(size_t frame_index) {
  Frame& frame = frames_[frame_index];
  if (frame.captured || !capture_hook_) return;
  frame.captured = true;  // Set first: a failing hook must not re-fire.
  const Status captured = capture_hook_(frame.page_id, frame.page);
  if (!captured.ok() && capture_error_.ok()) capture_error_ = captured;
}

Status BufferPool::NotifyWriteback() {
  MMDB_RETURN_IF_ERROR(capture_error_);
  if (!pre_writeback_hook_) return Status::OK();
  return pre_writeback_hook_();
}

void BufferPool::BeginCaptureEpoch() {
  for (Frame& frame : frames_) frame.captured = false;
}

void BufferPool::DiscardAll() {
  free_frames_.clear();
  for (size_t i = capacity_; i-- > 0;) {
    assert(frames_[i].pin_count == 0);
    frames_[i].in_use = false;
    frames_[i].dirty = false;
    free_frames_.push_back(i);
  }
  page_table_.clear();
  lru_.clear();
  lru_pos_.clear();
  capture_error_ = Status::OK();
}

size_t BufferPool::PinnedCount() const {
  size_t pinned = 0;
  for (const Frame& frame : frames_) {
    if (frame.in_use && frame.pin_count > 0) ++pinned;
  }
  return pinned;
}

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      frame_(other.frame_),
      page_id_(other.page_id_),
      dirty_(other.dirty_) {
  other.pool_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, dirty_);
    pool_ = nullptr;
  }
}

}  // namespace mmdb
