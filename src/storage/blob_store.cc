#include "storage/blob_store.h"

#include <algorithm>

namespace mmdb {

namespace {

// Header page (page 0) layout.
constexpr size_t kHdrMagic = blob_format::kMagicOffset;
constexpr size_t kHdrVersion = blob_format::kVersionOffset;
constexpr size_t kHdrFreeHead = 8;
constexpr size_t kHdrDirHead = 12;

// Blob page layout. Payload stops at kPageUsableSize so the checksum
// footer never overlaps blob bytes.
constexpr size_t kBlobNext = 0;
constexpr size_t kBlobLen = 4;
constexpr size_t kBlobPayload = 8;
constexpr size_t kBlobCapacity = kPageUsableSize - kBlobPayload;

// Directory page layout.
constexpr size_t kDirNext = 0;
constexpr size_t kDirSlots = 8;
constexpr size_t kDirEntrySize = 16;  // key u64, first_page u32, len u32.
constexpr uint32_t kSlotsPerDirPage =
    static_cast<uint32_t>((kPageUsableSize - kDirSlots) / kDirEntrySize);

size_t SlotOffset(uint32_t slot) { return kDirSlots + slot * kDirEntrySize; }

}  // namespace

Result<std::unique_ptr<BlobStore>> BlobStore::Open(BufferPool* pool) {
  std::unique_ptr<BlobStore> store(new BlobStore(pool));
  MMDB_RETURN_IF_ERROR(store->InitializeHeader());
  MMDB_RETURN_IF_ERROR(store->LoadDirectory());
  return store;
}

Status BlobStore::InitializeHeader() {
  // A brand-new file has no pages; create and stamp the header page. Any
  // other read failure is reported, never "fixed" by appending a page.
  Result<PageGuard> fetched = pool_->FetchPage(0);
  if (!fetched.ok()) {
    if (fetched.status().code() != StatusCode::kOutOfRange) {
      return fetched.status();
    }
    MMDB_ASSIGN_OR_RETURN(PageGuard header, pool_->NewPage());
    if (header.page_id() != 0) {
      return Status::Corruption("header page allocated at nonzero id");
    }
    Page& page = header.Write();
    page.WriteU32(kHdrMagic, blob_format::kMagic);
    page.WriteU32(kHdrVersion, blob_format::kVersion);
    page.WriteU32(kHdrFreeHead, kInvalidPageId);
    page.WriteU32(kHdrDirHead, kInvalidPageId);
    return Status::OK();
  }
  const Page& page = fetched->Read();
  if (page.ReadU32(kHdrMagic) == 0) {
    // An all-zero header page is a crashed (or rolled-back) store
    // creation: page 0 was allocated but its contents never committed.
    // Finish the interrupted initialization. Any data pages a crashed
    // first batch appended become orphans, never reachable corruption.
    Page& fresh = fetched->Write();
    fresh.Clear();
    fresh.WriteU32(kHdrMagic, blob_format::kMagic);
    fresh.WriteU32(kHdrVersion, blob_format::kVersion);
    fresh.WriteU32(kHdrFreeHead, kInvalidPageId);
    fresh.WriteU32(kHdrDirHead, kInvalidPageId);
    return Status::OK();
  }
  if (page.ReadU32(kHdrMagic) != blob_format::kMagic) {
    return Status::Corruption("bad magic in database header");
  }
  if (page.ReadU32(kHdrVersion) != blob_format::kVersion) {
    return Status::Corruption("unsupported database version " +
                              std::to_string(page.ReadU32(kHdrVersion)));
  }
  return Status::OK();
}

Status BlobStore::LoadDirectory() {
  MMDB_ASSIGN_OR_RETURN(PageGuard header, pool_->FetchPage(0));
  PageId dir_id = header.Read().ReadU32(kHdrDirHead);
  header.Release();
  while (dir_id != kInvalidPageId) {
    MMDB_ASSIGN_OR_RETURN(PageGuard dir, pool_->FetchPage(dir_id));
    const Page& page = dir.Read();
    for (uint32_t slot = 0; slot < kSlotsPerDirPage; ++slot) {
      const uint64_t key = page.ReadU64(SlotOffset(slot));
      if (key == 0) continue;
      DirEntry entry;
      entry.first_page = page.ReadU32(SlotOffset(slot) + 8);
      entry.total_len = page.ReadU32(SlotOffset(slot) + 12);
      entry.dir_page = dir_id;
      entry.slot = slot;
      if (!directory_.emplace(key, entry).second) {
        return Status::Corruption("duplicate key in directory: " +
                                  std::to_string(key));
      }
    }
    dir_id = page.ReadU32(kDirNext);
  }
  return Status::OK();
}

Result<PageId> BlobStore::AllocPage() {
  MMDB_ASSIGN_OR_RETURN(PageGuard header, pool_->FetchPage(0));
  const PageId free_head = header.Read().ReadU32(kHdrFreeHead);
  if (free_head != kInvalidPageId) {
    MMDB_ASSIGN_OR_RETURN(PageGuard free_page, pool_->FetchPage(free_head));
    const PageId next = free_page.Read().ReadU32(0);
    free_page.Write().Clear();
    header.Write().WriteU32(kHdrFreeHead, next);
    return free_head;
  }
  header.Release();
  MMDB_ASSIGN_OR_RETURN(PageGuard fresh, pool_->NewPage());
  return fresh.page_id();
}

Status BlobStore::FreePage(PageId id) {
  MMDB_ASSIGN_OR_RETURN(PageGuard header, pool_->FetchPage(0));
  MMDB_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(id));
  page.Write().Clear();
  page.Write().WriteU32(0, header.Read().ReadU32(kHdrFreeHead));
  header.Write().WriteU32(kHdrFreeHead, id);
  return Status::OK();
}

Result<BlobStore::DirEntry> BlobStore::ClaimDirectorySlot(
    uint64_t key, PageId first_page, uint32_t total_len) {
  MMDB_ASSIGN_OR_RETURN(PageGuard header, pool_->FetchPage(0));
  PageId dir_id = header.Read().ReadU32(kHdrDirHead);
  PageId prev_dir = kInvalidPageId;
  while (dir_id != kInvalidPageId) {
    MMDB_ASSIGN_OR_RETURN(PageGuard dir, pool_->FetchPage(dir_id));
    for (uint32_t slot = 0; slot < kSlotsPerDirPage; ++slot) {
      if (dir.Read().ReadU64(SlotOffset(slot)) == 0) {
        Page& page = dir.Write();
        page.WriteU64(SlotOffset(slot), key);
        page.WriteU32(SlotOffset(slot) + 8, first_page);
        page.WriteU32(SlotOffset(slot) + 12, total_len);
        return DirEntry{first_page, total_len, dir_id, slot};
      }
    }
    prev_dir = dir_id;
    dir_id = dir.Read().ReadU32(kDirNext);
  }
  // Every directory page is full: chain a new one.
  MMDB_ASSIGN_OR_RETURN(PageId new_dir, AllocPage());
  MMDB_ASSIGN_OR_RETURN(PageGuard dir, pool_->FetchPage(new_dir));
  Page& page = dir.Write();
  page.Clear();
  page.WriteU64(SlotOffset(0), key);
  page.WriteU32(SlotOffset(0) + 8, first_page);
  page.WriteU32(SlotOffset(0) + 12, total_len);
  if (prev_dir == kInvalidPageId) {
    header.Write().WriteU32(kHdrDirHead, new_dir);
  } else {
    MMDB_ASSIGN_OR_RETURN(PageGuard prev, pool_->FetchPage(prev_dir));
    prev.Write().WriteU32(kDirNext, new_dir);
  }
  return DirEntry{first_page, total_len, new_dir, 0};
}

Status BlobStore::Put(uint64_t key, const std::string& value) {
  if (key == 0) return Status::InvalidArgument("blob key must be non-zero");
  if (directory_.count(key)) {
    return Status::AlreadyExists("blob key " + std::to_string(key));
  }
  if (value.size() > UINT32_MAX) {
    return Status::InvalidArgument("blob too large");
  }
  // Write the chain front-to-back.
  PageId first_page = kInvalidPageId;
  PageId prev_page = kInvalidPageId;
  size_t offset = 0;
  do {
    const size_t chunk = std::min(kBlobCapacity, value.size() - offset);
    MMDB_ASSIGN_OR_RETURN(PageId page_id, AllocPage());
    MMDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    Page& page = guard.Write();
    page.Clear();
    page.WriteU32(kBlobNext, kInvalidPageId);
    page.WriteU32(kBlobLen, static_cast<uint32_t>(chunk));
    if (chunk > 0) page.WriteBytes(kBlobPayload, value.data() + offset, chunk);
    if (prev_page != kInvalidPageId) {
      MMDB_ASSIGN_OR_RETURN(PageGuard prev, pool_->FetchPage(prev_page));
      prev.Write().WriteU32(kBlobNext, page_id);
    } else {
      first_page = page_id;
    }
    prev_page = page_id;
    offset += chunk;
  } while (offset < value.size());

  MMDB_ASSIGN_OR_RETURN(
      DirEntry entry,
      ClaimDirectorySlot(key, first_page,
                         static_cast<uint32_t>(value.size())));
  directory_.emplace(key, entry);
  return Status::OK();
}

Result<std::string> BlobStore::Get(uint64_t key) const {
  const auto it = directory_.find(key);
  if (it == directory_.end()) {
    return Status::NotFound("blob key " + std::to_string(key));
  }
  std::string out;
  out.reserve(it->second.total_len);
  PageId page_id = it->second.first_page;
  while (page_id != kInvalidPageId) {
    MMDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    const Page& page = guard.Read();
    const uint32_t len = page.ReadU32(kBlobLen);
    if (len > kBlobCapacity) {
      return Status::Corruption("blob page length out of range");
    }
    const size_t prev_size = out.size();
    out.resize(prev_size + len);
    page.ReadBytes(kBlobPayload, out.data() + prev_size, len);
    page_id = page.ReadU32(kBlobNext);
  }
  if (out.size() != it->second.total_len) {
    return Status::Corruption("blob chain length mismatch for key " +
                              std::to_string(key));
  }
  return out;
}

Status BlobStore::Delete(uint64_t key) {
  const auto it = directory_.find(key);
  if (it == directory_.end()) {
    return Status::NotFound("blob key " + std::to_string(key));
  }
  // Free the chain.
  PageId page_id = it->second.first_page;
  while (page_id != kInvalidPageId) {
    MMDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    const PageId next = guard.Read().ReadU32(kBlobNext);
    guard.Release();
    MMDB_RETURN_IF_ERROR(FreePage(page_id));
    page_id = next;
  }
  // Clear the directory slot.
  MMDB_ASSIGN_OR_RETURN(PageGuard dir, pool_->FetchPage(it->second.dir_page));
  Page& page = dir.Write();
  page.WriteU64(SlotOffset(it->second.slot), 0);
  page.WriteU32(SlotOffset(it->second.slot) + 8, kInvalidPageId);
  page.WriteU32(SlotOffset(it->second.slot) + 12, 0);
  directory_.erase(it);
  return Status::OK();
}

std::vector<uint64_t> BlobStore::Keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(directory_.size());
  for (const auto& [key, entry] : directory_) keys.push_back(key);
  return keys;
}

std::vector<std::pair<uint64_t, PageId>> BlobStore::ChainHeads() const {
  std::vector<std::pair<uint64_t, PageId>> heads;
  heads.reserve(directory_.size());
  for (const auto& [key, entry] : directory_) {
    heads.emplace_back(key, entry.first_page);
  }
  return heads;
}

Status BlobStore::Flush() { return pool_->FlushAll(); }

}  // namespace mmdb
