#include "storage/object_store.h"

#include <functional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmdb {

namespace {

obs::SpanCategory* CommitSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("store.commit");
  return category;
}

obs::Counter* Commits() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "mmdb_store_commits_total",
      "Transactions committed by the disk object store.");
  return counter;
}

/// The latest Scrub() result, exposed as gauges: an instantaneous health
/// reading, overwritten by each scrub.
struct ScrubGauges {
  obs::Gauge* pages_scanned;
  obs::Gauge* corrupt_pages;
  obs::Gauge* corrupt_keys;
  obs::Counter* scrubs;
};

const ScrubGauges& ScrubInstruments() {
  static const ScrubGauges gauges = [] {
    obs::Registry& registry = obs::Registry::Default();
    ScrubGauges out;
    out.pages_scanned = registry.GetGauge(
        "mmdb_scrub_pages_scanned",
        "Pages verified by the most recent store scrub.");
    out.corrupt_pages = registry.GetGauge(
        "mmdb_scrub_corrupt_pages",
        "Pages failing checksum in the most recent store scrub.");
    out.corrupt_keys = registry.GetGauge(
        "mmdb_scrub_corrupt_keys",
        "Blob keys with a damaged page chain in the most recent scrub.");
    out.scrubs = registry.GetCounter("mmdb_scrubs_total",
                                     "Store scrubs completed.");
    return out;
  }();
  return gauges;
}

}  // namespace

Status MemoryObjectStore::Put(uint64_t key, const std::string& value) {
  if (key == 0) return Status::InvalidArgument("object key must be non-zero");
  if (!blobs_.emplace(key, value).second) {
    return Status::AlreadyExists("object key " + std::to_string(key));
  }
  return Status::OK();
}

Status MemoryObjectStore::Upsert(uint64_t key, const std::string& value) {
  if (key == 0) return Status::InvalidArgument("object key must be non-zero");
  blobs_[key] = value;
  return Status::OK();
}

Result<std::string> MemoryObjectStore::Get(uint64_t key) const {
  const auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return Status::NotFound("object key " + std::to_string(key));
  }
  return it->second;
}

Status MemoryObjectStore::Delete(uint64_t key) {
  if (blobs_.erase(key) == 0) {
    return Status::NotFound("object key " + std::to_string(key));
  }
  return Status::OK();
}

bool MemoryObjectStore::Contains(uint64_t key) const {
  return blobs_.count(key) > 0;
}

std::vector<uint64_t> MemoryObjectStore::Keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(blobs_.size());
  for (const auto& [key, value] : blobs_) keys.push_back(key);
  return keys;
}

namespace {

/// Rejects a page file written by a pre-checksum (v1) format *before*
/// journal recovery gets a chance to write (and checksum-stamp) pages
/// over it. Uses a raw read: a v1 header page has no footer to verify.
Status CheckFormatVersion(const DiskManager& disk) {
  MMDB_ASSIGN_OR_RETURN(PageId page_count, disk.PageCount());
  if (page_count == 0) return Status::OK();  // Fresh file.
  Page header;
  MMDB_RETURN_IF_ERROR(disk.ReadPageRaw(0, &header));
  if (header.ReadU32(blob_format::kMagicOffset) != blob_format::kMagic) {
    // Not a blob-store file at all; let BlobStore::Open report it.
    return Status::OK();
  }
  const uint32_t version = header.ReadU32(blob_format::kVersionOffset);
  if (version < blob_format::kVersion) {
    return Status::Corruption(
        "database file is format version " + std::to_string(version) +
        "; this build reads version " + std::to_string(blob_format::kVersion) +
        " (pages carry checksum footers). Migrate by re-ingesting into a "
        "fresh file; in-place conversion would overwrite v1 page payload.");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<DiskObjectStore>> DiskObjectStore::Open(
    const std::string& path, size_t pool_pages, bool journaled, Env* env) {
  std::unique_ptr<DiskObjectStore> store(new DiskObjectStore());
  store->disk_ = std::make_unique<DiskManager>();
  MMDB_RETURN_IF_ERROR(store->disk_->Open(path, env));
  MMDB_RETURN_IF_ERROR(CheckFormatVersion(*store->disk_));

  // Recover an interrupted transaction before anything reads the file.
  MMDB_ASSIGN_OR_RETURN(store->journal_,
                        Journal::Open(path + ".journal", env));
  MMDB_RETURN_IF_ERROR(store->ReplayJournal());

  // The blob store pins up to three pages at once; keep a sane floor.
  store->pool_ = std::make_unique<BufferPool>(
      store->disk_.get(), pool_pages < 8 ? 8 : pool_pages);
  if (journaled) {
    Journal* journal = store->journal_.get();
    store->pool_->SetWriteCaptureHook(
        [journal](PageId id, const Page& before) {
          return journal->Append(id, before);
        });
    store->pool_->SetPreWritebackHook(
        [journal] { return journal->EnsureSynced(); });
  }
  MMDB_ASSIGN_OR_RETURN(store->blobs_, BlobStore::Open(store->pool_.get()));
  // Initializing a fresh header page is itself a transaction.
  MMDB_RETURN_IF_ERROR(store->CommitTransaction());
  return store;
}

Status DiskObjectStore::ReplayJournal() {
  if (!journal_->NeedsRecovery()) return Status::OK();
  MMDB_ASSIGN_OR_RETURN(auto records, journal_->ReadRecords());
  MMDB_ASSIGN_OR_RETURN(PageId page_count, disk_->PageCount());
  // Undo in reverse order, so a page captured twice ends at its earliest
  // image; before-images of pages past EOF were never written and need
  // no undo.
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->first >= page_count) continue;
    MMDB_RETURN_IF_ERROR(disk_->WritePage(it->first, it->second));
  }
  MMDB_RETURN_IF_ERROR(disk_->Sync());
  return journal_->Reset();
}

Status DiskObjectStore::CheckNotCrashed() const {
  if (!crashed_) return Status::OK();
  return Status::Internal(
      "store refuses mutations: a commit or undo failed part-way (or a "
      "crash was simulated); reopen it to recover from the journal");
}

Status DiskObjectStore::CommitTransaction() {
  obs::Span span(CommitSpan());
  MMDB_RETURN_IF_ERROR(CheckNotCrashed());
  Status flushed = pool_->FlushAll();
  if (flushed.ok()) flushed = disk_->Sync();
  if (!flushed.ok()) {
    RollbackTransaction().ok();  // Report the failure that ended it.
    return flushed;
  }
  // The commit point: once the journal is empty the transaction is
  // durable. Until the reset succeeds, nothing in this process can tell
  // whether the journal still undoes it; a reopen's recovery can.
  crashed_ = true;
  MMDB_RETURN_IF_ERROR(journal_->Reset());
  crashed_ = false;
  pool_->BeginCaptureEpoch();
  Commits()->Increment();
  return Status::OK();
}

Status DiskObjectStore::RollbackTransaction() {
  MMDB_RETURN_IF_ERROR(CheckNotCrashed());
  pool_->DiscardAll();
  // Until the replay and reload finish, the file and the blob directory
  // match neither the last commit nor the transaction.
  crashed_ = true;
  MMDB_RETURN_IF_ERROR(ReplayJournal());
  MMDB_ASSIGN_OR_RETURN(blobs_, BlobStore::Open(pool_.get()));
  crashed_ = false;
  return Status::OK();
}

Status DiskObjectStore::MaybeCommit() {
  if (batch_depth_ > 0) return Status::OK();
  return CommitTransaction();
}

Status DiskObjectStore::Mutate(const std::function<Status()>& mutation) {
  MMDB_RETURN_IF_ERROR(CheckNotCrashed());
  const Status applied = mutation();
  if (!applied.ok()) {
    // A failed standalone mutation may have touched pages; undo them (a
    // batch's caller aborts the whole batch instead).
    if (batch_depth_ == 0) RollbackTransaction().ok();
    return applied;
  }
  return MaybeCommit();
}

Status DiskObjectStore::Put(uint64_t key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  return Mutate([&] { return blobs_->Put(key, value); });
}

Status DiskObjectStore::Upsert(uint64_t key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  return Mutate([&]() -> Status {
    if (blobs_->Contains(key)) {
      MMDB_RETURN_IF_ERROR(blobs_->Delete(key));
    }
    return blobs_->Put(key, value);
  });
}

Status DiskObjectStore::Delete(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  return Mutate([&] { return blobs_->Delete(key); });
}

Result<std::string> DiskObjectStore::Get(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_->Get(key);
}

bool DiskObjectStore::Contains(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_->Contains(key);
}

std::vector<uint64_t> DiskObjectStore::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_->Keys();
}

size_t DiskObjectStore::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_->BlobCount();
}

Status DiskObjectStore::BeginBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++batch_depth_;
  return Status::OK();
}

Status DiskObjectStore::CommitBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  if (batch_depth_ <= 0) {
    return Status::InvalidArgument("CommitBatch without BeginBatch");
  }
  if (--batch_depth_ == 0) return CommitTransaction();
  return Status::OK();
}

Status DiskObjectStore::AbortBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  if (batch_depth_ <= 0) {
    return Status::InvalidArgument("AbortBatch without BeginBatch");
  }
  batch_depth_ = 0;  // An abort unwinds the whole nest.
  return RollbackTransaction();
}

Status DiskObjectStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return CommitTransaction();
}

Result<DiskObjectStore::ScrubReport> DiskObjectStore::Scrub() const {
  std::lock_guard<std::mutex> lock(mu_);
  ScrubReport report;
  MMDB_ASSIGN_OR_RETURN(report.pages_scanned, disk_->PageCount());
  Page page;
  for (PageId id = 0; id < report.pages_scanned; ++id) {
    const Status read = disk_->ReadPage(id, &page);
    if (read.code() == StatusCode::kCorruption) {
      report.corrupt_pages.push_back(id);
    } else if (!read.ok()) {
      return read;
    }
  }
  // Attribute corruption to blobs: a chain is damaged when any page on it
  // is corrupt, points past EOF, or loops (a bad next pointer can do
  // both, so the walk is bounded by the file's page count).
  for (const auto& [key, head] : blobs_->ChainHeads()) {
    PageId id = head;
    PageId hops = 0;
    while (id != kInvalidPageId) {
      if (id >= report.pages_scanned || ++hops > report.pages_scanned) {
        report.corrupt_keys.push_back(key);
        break;
      }
      const Status read = disk_->ReadPage(id, &page);
      if (!read.ok()) {
        if (read.code() != StatusCode::kCorruption) return read;
        report.corrupt_keys.push_back(key);
        break;
      }
      id = page.ReadU32(0);  // kBlobNext
    }
  }
  const ScrubGauges& gauges = ScrubInstruments();
  gauges.pages_scanned->Set(static_cast<double>(report.pages_scanned));
  gauges.corrupt_pages->Set(static_cast<double>(report.corrupt_pages.size()));
  gauges.corrupt_keys->Set(static_cast<double>(report.corrupt_keys.size()));
  gauges.scrubs->Increment();
  return report;
}

void DiskObjectStore::SimulateCrashForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  pool_->DiscardAll();
  crashed_ = true;
}

}  // namespace mmdb
