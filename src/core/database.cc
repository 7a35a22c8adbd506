#include "core/database.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "core/executor.h"
#include "core/plan.h"
#include "core/query_metrics.h"
#include "core/scan.h"
#include "core/similarity.h"
#include "editops/serialize.h"
#include "image/ppm_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmdb {

std::string_view QueryMethodName(QueryMethod method) {
  switch (method) {
    case QueryMethod::kInstantiate:
      return "instantiate";
    case QueryMethod::kRbm:
      return "rbm";
    case QueryMethod::kBwm:
      return "bwm";
    case QueryMethod::kBwmIndexed:
      return "bwm-indexed";
    case QueryMethod::kParallelRbm:
      return "parallel-rbm";
    case QueryMethod::kPlanned:
      return "planned";
  }
  return "unknown";
}

namespace {

/// One facade-level span site per access path (`query.bwm`, `query.rbm`,
/// ...). QueryMethod is closed, so the table is built once.
obs::SpanCategory* QuerySpanFor(QueryMethod method) {
  static const std::map<QueryMethod, obs::SpanCategory*>* const table = [] {
    auto* out = new std::map<QueryMethod, obs::SpanCategory*>();
    for (QueryMethod m : kQueryMethods) {
      (*out)[m] = obs::Tracer::Default().Intern(
          "query." + std::string(QueryMethodName(m)));
    }
    return out;
  }();
  auto it = table->find(method);
  return it != table->end() ? it->second : nullptr;
}

/// The range and conjunctive query paths: a range query runs as a
/// one-conjunct conjunction and records its metrics under `kind`.
Result<QueryResult> RunScan(const MultimediaDatabase& db,
                            const ConjunctiveQuery& query, QueryMethod method,
                            QueryKind kind, const QueryContext& ctx) {
  obs::Span span(QuerySpanFor(method));
  // Publish the limits thread-locally so the storage read path (which the
  // context is not threaded through) honors them per page.
  CancelScope scope(ctx);
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    MMDB_RETURN_IF_ERROR(
        ValidateConjunctive(query, db.quantizer().BinCount()));
    MMDB_ASSIGN_OR_RETURN(std::unique_ptr<QueryProcessor> processor,
                          db.MakeProcessor(method));
    return processor->RunConjunctive(query, ctx);
  }();
  RecordQueryMetrics(method, kind, result);
  return result;
}

/// Reads the blob under `key` and decodes it.
template <typename T>
Result<T> GetDecoded(const ObjectStore& store, uint64_t key,
                     Result<T> (*decode)(const std::string&)) {
  MMDB_ASSIGN_OR_RETURN(std::string blob, store.Get(key));
  return decode(blob);
}

/// Refuses while some stored edited image other than `id` derives from
/// `id` (as its base) or merges into `id`.
Status CheckUnreferenced(const AugmentedCollection& collection,
                         ObjectId id) {
  for (ObjectId other_id : collection.edited_ids()) {
    if (other_id == id) continue;
    const EditScript& script = collection.FindEdited(other_id)->script;
    if (script.base_id == id) {
      return Status::InvalidArgument("binary image " + std::to_string(id) +
                                     " is the base of " +
                                     std::to_string(other_id));
    }
    for (const EditOp& op : script.ops) {
      const MergeOp* merge = std::get_if<MergeOp>(&op);
      if (merge != nullptr && merge->target == id) {
        return Status::InvalidArgument("image " + std::to_string(id) +
                                       " is a merge target of " +
                                       std::to_string(other_id));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<QueryProcessor>> MultimediaDatabase::MakeProcessor(
    QueryMethod method) const {
  const auto scan =
      [this](ScanSettings settings) -> std::unique_ptr<QueryProcessor> {
    return std::make_unique<ScanQueryProcessor>(&collection_, &rule_engine_,
                                                settings);
  };
  obs::Tracer& tracer = obs::Tracer::Default();
  constexpr obs::SpanDetail kFine = obs::SpanDetail::kFine;
  switch (method) {
    case QueryMethod::kInstantiate: {
      auto processor = std::make_unique<InstantiationQueryProcessor>(
          &collection_, &quantizer_, MakePixelResolver());
      // A corrupt blob quarantines the image instead of failing the query.
      processor->SetQuarantineHooks(MakeQuarantineHooks());
      return std::unique_ptr<QueryProcessor>(std::move(processor));
    }
    case QueryMethod::kRbm: {
      static obs::SpanCategory* const scan_span = tracer.Intern("rbm.scan");
      static obs::SpanCategory* const walk_span =
          tracer.Intern("rbm.rule_walk", kFine);
      return scan({.scan_span = scan_span, .rule_walk_span = walk_span});
    }
    case QueryMethod::kBwm: {
      static obs::SpanCategory* const scan_span = tracer.Intern("bwm.scan");
      static obs::SpanCategory* const walk_span =
          tracer.Intern("bwm.rule_walk", kFine);
      static obs::SpanCategory* const accept_span =
          tracer.Intern("bwm.cluster_accept", kFine);
      return scan({.clustered = true,
                   .scan_span = scan_span,
                   .rule_walk_span = walk_span,
                   .accept_span = accept_span});
    }
    case QueryMethod::kBwmIndexed: {
      // kBwm's scan under its own span site and without fine spans, so
      // the bwm.* stage shares stay kBwm's alone.
      static obs::SpanCategory* const scan_span =
          tracer.Intern("bwm_indexed.scan");
      return scan({.clustered = true, .scan_span = scan_span});
    }
    case QueryMethod::kParallelRbm: {
      static obs::SpanCategory* const scan_span =
          tracer.Intern("parallel_rbm.scan");
      return scan({.chunks = shared_executor(), .scan_span = scan_span});
    }
    case QueryMethod::kPlanned:
      return std::unique_ptr<QueryProcessor>(
          std::make_unique<PlannedQueryProcessor>(this));
  }
  return Status::InvalidArgument("unknown query method " +
                                 std::to_string(static_cast<int>(method)));
}

Executor* MultimediaDatabase::shared_executor() const {
  std::call_once(executor_once_, [this] {
    int threads = options_.query_threads;
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    // The querying thread participates in every scan, so the pool holds
    // one worker fewer than the parallelism target.
    query_executor_ = std::make_unique<Executor>(std::max(1, threads) - 1);
  });
  return query_executor_.get();
}

MultimediaDatabase::~MultimediaDatabase() = default;

MultimediaDatabase::MultimediaDatabase(DatabaseOptions options)
    : options_(std::move(options)),
      quantizer_(options_.quantizer_divisions, options_.color_space),
      rule_engine_(quantizer_, options_.rule_options),
      folder_(collection_, rule_engine_) {
  meta_.next_id = catalog_keys::kFirstObjectId;
  meta_.quantizer_divisions = quantizer_.divisions();
  meta_.color_space = static_cast<uint8_t>(quantizer_.space());
}

Result<std::unique_ptr<MultimediaDatabase>> MultimediaDatabase::Open(
    DatabaseOptions options) {
  std::unique_ptr<MultimediaDatabase> db(
      new MultimediaDatabase(std::move(options)));
  if (db->options_.path.empty()) {
    db->store_ = std::make_unique<MemoryObjectStore>();
  } else {
    MMDB_ASSIGN_OR_RETURN(
        db->store_,
        DiskObjectStore::Open(db->options_.path, db->options_.pool_pages,
                              /*journaled=*/true, db->options_.env));
  }
  if (db->store_->Contains(catalog_keys::kMetaKey)) {
    MMDB_RETURN_IF_ERROR(db->LoadExisting());
  } else {
    MMDB_RETURN_IF_ERROR(db->PersistMeta());
  }
  return db;
}

Status MultimediaDatabase::LoadExisting() {
  MMDB_ASSIGN_OR_RETURN(std::string meta_blob,
                        store_->Get(catalog_keys::kMetaKey));
  MMDB_ASSIGN_OR_RETURN(meta_, DecodeCatalogMeta(meta_blob));
  quantizer_ = ColorQuantizer(meta_.quantizer_divisions,
                              static_cast<ColorSpace>(meta_.color_space));
  rule_engine_ = RuleEngine(quantizer_, options_.rule_options);

  // Catalog rows live under keys with residue 2; keys are ascending, so
  // objects reload in insertion (id) order — which keeps collection order
  // and BWM classification deterministic across reopen.
  //
  // A corrupt row or script blob quarantines that one image instead of
  // failing the open: the rest of the database stays queryable, and
  // queries report the loss via `QueryStats::corrupt_images_skipped`.
  // A script names only earlier ids, so an edited image whose base or
  // Merge target is missing here depends on a quarantined image and is
  // quarantined too. (Corruption of the metadata blob or of a directory
  // page still fails the open — there is no per-image blast radius to
  // confine it to.)
  for (uint64_t key : store_->Keys()) {
    if (key % 4 != 2 || key < catalog_keys::RowKey(catalog_keys::kFirstObjectId)) {
      continue;
    }
    const ObjectId row_id = static_cast<ObjectId>((key - 2) / 4);
    Result<CatalogRow> row = GetDecoded(*store_, key, &DecodeCatalogRow);
    if (!row.ok()) {
      if (row.status().code() != StatusCode::kCorruption) return row.status();
      QuarantineImage(row_id);
      continue;
    }
    Result<EditScript> script = EditScript{};
    Result<BoundsRow> bounds = BoundsRow{};
    if (row->kind == ImageKind::kEdited) {
      script = GetDecoded(*store_, catalog_keys::ScriptKey(row->id),
                          &DecodeEditScript);
      if (!script.ok()) {
        if (script.status().code() != StatusCode::kCorruption) {
          return script.status();
        }
        QuarantineImage(row->id);
        continue;
      }
      if (!ValidateScript(*script).ok()) {
        QuarantineImage(row->id);
        continue;
      }
      // A row that cannot be folded (a count past int32, written before
      // inserts refused one) quarantines the image too.
      bounds = folder_.Fold(*script);
      if (!bounds.ok()) {
        QuarantineImage(row->id);
        continue;
      }
    }
    MMDB_RETURN_IF_ERROR(AddToMemory(*row, std::move(*script), *bounds));
  }
  return Status::OK();
}

Status MultimediaDatabase::PersistMeta() {
  return store_->Upsert(catalog_keys::kMetaKey, EncodeCatalogMeta(meta_));
}

Status MultimediaDatabase::WithBatch(const std::function<Status()>& body) {
  MMDB_RETURN_IF_ERROR(store_->BeginBatch());
  const Status result = body();
  if (!result.ok()) {
    store_->AbortBatch().ok();  // Preserve the original error.
    return result;
  }
  return store_->CommitBatch();
}

Result<ObjectId> MultimediaDatabase::InsertRow(CatalogRow row,
                                               const std::string& payload,
                                               EditScript script,
                                               const BoundsRow& bounds) {
  row.id = meta_.next_id;
  CatalogMeta next = meta_;
  ++next.next_id;
  const uint64_t payload_key = row.kind == ImageKind::kBinary
                                   ? catalog_keys::RasterKey(row.id)
                                   : catalog_keys::ScriptKey(row.id);
  // The id bump, payload and catalog row commit as one atomic batch;
  // nothing in memory changes until it has.
  MMDB_RETURN_IF_ERROR(WithBatch([&]() -> Status {
    MMDB_RETURN_IF_ERROR(
        store_->Upsert(catalog_keys::kMetaKey, EncodeCatalogMeta(next)));
    MMDB_RETURN_IF_ERROR(store_->Put(payload_key, payload));
    return store_->Put(catalog_keys::RowKey(row.id), EncodeCatalogRow(row));
  }));
  meta_ = next;
  MMDB_RETURN_IF_ERROR(AddToMemory(row, std::move(script), bounds));
  return row.id;
}

Status MultimediaDatabase::AddToMemory(const CatalogRow& row,
                                       EditScript script,
                                       const BoundsRow& bounds) {
  if (row.kind == ImageKind::kBinary) {
    if (static_cast<int32_t>(row.histogram_counts.size()) !=
        quantizer_.BinCount()) {
      return Status::Corruption("catalog row " + std::to_string(row.id) +
                                ": histogram arity mismatch");
    }
    BinaryImageInfo info;
    info.id = row.id;
    info.width = row.width;
    info.height = row.height;
    info.histogram = ColorHistogram(quantizer_.BinCount());
    for (size_t bin = 0; bin < row.histogram_counts.size(); ++bin) {
      info.histogram.Add(static_cast<BinIndex>(bin),
                         row.histogram_counts[bin]);
    }
    MMDB_RETURN_IF_ERROR(collection_.AddBinary(std::move(info)));
  } else {
    EditedImageInfo info;
    info.id = row.id;
    info.script = std::move(script);
    MMDB_RETURN_IF_ERROR(collection_.AddEdited(std::move(info), bounds));
  }
  mutation_epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Result<ObjectId> MultimediaDatabase::InsertBinaryImage(const Image& image) {
  if (image.Empty()) {
    return Status::InvalidArgument("cannot store an empty image");
  }
  CatalogRow row;
  row.kind = ImageKind::kBinary;
  row.width = image.width();
  row.height = image.height();
  // Feature extraction happens here, once, at insertion time.
  row.histogram_counts = ExtractHistogram(image, quantizer_).counts();
  return InsertRow(std::move(row), EncodePpm(image, PpmFormat::kBinary), {},
                   {});
}

Status MultimediaDatabase::ValidateScript(const EditScript& script) const {
  if (collection_.FindBinary(script.base_id) == nullptr) {
    return Status::NotFound("base image " + std::to_string(script.base_id) +
                            " is not a stored binary image");
  }
  for (const EditOp& op : script.ops) {
    if (GetOpType(op) != EditOpType::kMerge) continue;
    const MergeOp& merge = std::get<MergeOp>(op);
    if (merge.IsNullTarget()) continue;
    if (collection_.FindBinary(*merge.target) == nullptr &&
        collection_.FindEdited(*merge.target) == nullptr) {
      return Status::NotFound("merge target " + std::to_string(*merge.target) +
                              " is not stored");
    }
  }
  return Status::OK();
}

Result<ObjectId> MultimediaDatabase::InsertEditedImage(
    const EditScript& script) {
  MMDB_RETURN_IF_ERROR(ValidateScript(script));
  // Folded before the batch, so an image without a row is never stored.
  MMDB_ASSIGN_OR_RETURN(const BoundsRow bounds, folder_.Fold(script));
  CatalogRow row;
  row.kind = ImageKind::kEdited;
  return InsertRow(std::move(row), EncodeEditScript(script), script, bounds);
}

ImageResolver MultimediaDatabase::MakePixelResolver() const {
  // Shared in-flight set guards against merge-target cycles. Recursion
  // goes through the ResolvePixels member, not a self-capturing
  // std::function — a shared_ptr<ImageResolver> that captures itself is
  // a reference cycle and leaks the closure on every call.
  auto in_flight = std::make_shared<std::set<ObjectId>>();
  return [this, in_flight](ObjectId id) {
    return ResolvePixels(id, in_flight.get());
  };
}

Result<Image> MultimediaDatabase::ResolvePixels(
    ObjectId id, std::set<ObjectId>* in_flight) const {
  if (collection_.FindBinary(id) != nullptr) {
    MMDB_ASSIGN_OR_RETURN(std::string blob,
                          store_->Get(catalog_keys::RasterKey(id)));
    return DecodePpm(blob);
  }
  const EditedImageInfo* edited = collection_.FindEdited(id);
  if (edited == nullptr) {
    return Status::NotFound("image object " + std::to_string(id));
  }
  if (!in_flight->insert(id).second) {
    return Status::InvalidArgument("merge target cycle through object " +
                                   std::to_string(id));
  }
  Result<Image> base = ResolvePixels(edited->script.base_id, in_flight);
  if (!base.ok()) {
    in_flight->erase(id);
    return base.status();
  }
  Editor editor([this, in_flight](ObjectId target) {
    return ResolvePixels(target, in_flight);
  });
  Result<Image> out = editor.Instantiate(*base, edited->script);
  in_flight->erase(id);
  return out;
}

Result<Image> MultimediaDatabase::GetImage(ObjectId id) const {
  return MakePixelResolver()(id);
}

Result<QueryResult> MultimediaDatabase::RunRange(
    const RangeQuery& query, QueryMethod method,
    const QueryContext& ctx) const {
  return RunScan(*this, ConjunctiveQuery{{query}}, method, QueryKind::kRange,
                 ctx);
}

Result<QueryResult> MultimediaDatabase::RunConjunctive(
    const ConjunctiveQuery& query, QueryMethod method,
    const QueryContext& ctx) const {
  return RunScan(*this, query, method, QueryKind::kConjunctive, ctx);
}

Result<QueryResult> MultimediaDatabase::RunSimilarity(
    const SimilarityQuery& query, const QueryContext& ctx) const {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("query.similarity");
  obs::Span span(category);
  CancelScope scope(ctx);
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    MMDB_RETURN_IF_ERROR(ValidateSimilarity(query, quantizer_.BinCount()));
    SimilaritySearcher searcher(&collection_, &rule_engine_);
    QueryResult out;
    MMDB_ASSIGN_OR_RETURN(out.matches,
                          searcher.Knn(query.histogram, query.k, &out.stats,
                                       ctx));
    out.ids.reserve(out.matches.size());
    for (const SimilarityMatch& match : out.matches) out.ids.push_back(match.id);
    return out;
  }();
  RecordQueryMetrics(QueryMethod::kBwm, QueryKind::kSimilarity, result);
  return result;
}

Status MultimediaDatabase::DeleteImage(ObjectId id) {
  const EditedImageInfo* edited = collection_.FindEdited(id);
  const BinaryImageInfo* binary = collection_.FindBinary(id);
  if (edited == nullptr && binary == nullptr) {
    return Status::NotFound("image object " + std::to_string(id));
  }
  MMDB_RETURN_IF_ERROR(CheckUnreferenced(collection_, id));
  const uint64_t payload_key = edited != nullptr
                                   ? catalog_keys::ScriptKey(id)
                                   : catalog_keys::RasterKey(id);
  MMDB_RETURN_IF_ERROR(WithBatch([&]() -> Status {
    MMDB_RETURN_IF_ERROR(store_->Delete(payload_key));
    return store_->Delete(catalog_keys::RowKey(id));
  }));
  // The batch committed; only now does memory change.
  MMDB_RETURN_IF_ERROR(edited != nullptr ? collection_.RemoveEdited(id)
                                          : collection_.RemoveBinary(id));
  mutation_epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

std::shared_ptr<const CorpusStats> MultimediaDatabase::PlannerStats() const {
  // Read the epoch before taking the lock: a mutation landing between the
  // load and the rebuild just means one extra rebuild on the next call.
  const uint64_t epoch = mutation_epoch_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(planner_stats_mu_);
  if (planner_stats_ == nullptr || planner_stats_epoch_ != epoch) {
    planner_stats_ =
        std::make_shared<const CorpusStats>(CorpusStats::Collect(*this));
    planner_stats_epoch_ = epoch;
  }
  return planner_stats_;
}

std::vector<ObjectId> MultimediaDatabase::ExpandWithConnections(
    const std::vector<ObjectId>& ids) const {
  std::set<ObjectId> out(ids.begin(), ids.end());
  for (ObjectId id : ids) {
    if (const EditedImageInfo* edited = collection_.FindEdited(id)) {
      out.insert(edited->script.base_id);
    }
  }
  return {out.begin(), out.end()};
}

Result<MultimediaDatabase::IntegrityReport>
MultimediaDatabase::VerifyIntegrity(bool deep_pixels) const {
  IntegrityReport report;
  size_t clustered_count = 0;
  for (ObjectId id : collection_.binary_ids()) {
    const BinaryImageInfo* info = collection_.FindBinary(id);
    ++report.binary_images_checked;
    clustered_count += info->cluster.size();
    MMDB_ASSIGN_OR_RETURN(std::string blob,
                          store_->Get(catalog_keys::RasterKey(id)));
    MMDB_ASSIGN_OR_RETURN(Image image, DecodePpm(blob));
    ++report.rasters_verified;
    if (image.width() != info->width || image.height() != info->height) {
      return Status::Corruption("image " + std::to_string(id) +
                                ": stored raster dimensions disagree with "
                                "catalog");
    }
    if (info->histogram.Total() != image.PixelCount()) {
      return Status::Corruption("image " + std::to_string(id) +
                                ": histogram total disagrees with raster");
    }
    if (deep_pixels &&
        !(ExtractHistogram(image, quantizer_) == info->histogram)) {
      return Status::Corruption("image " + std::to_string(id) +
                                ": histogram does not match pixels");
    }
  }

  const BoundsColumn& rows = collection_.edited_bounds();
  if (rows.size() != collection_.EditedCount()) {
    return Status::Corruption(
        "the collection holds " + std::to_string(rows.size()) +
        " bounds rows for " + std::to_string(collection_.EditedCount()) +
        " edited images");
  }
  BoundsRowFolder folder(collection_, rule_engine_);
  size_t widening_count = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const ObjectId id = collection_.edited_ids()[i];
    const EditedImageInfo* info = collection_.FindEdited(id);
    ++report.edited_images_checked;
    MMDB_ASSIGN_OR_RETURN(std::string blob,
                          store_->Get(catalog_keys::ScriptKey(id)));
    MMDB_ASSIGN_OR_RETURN(EditScript script, DecodeEditScript(blob));
    ++report.scripts_verified;
    if (!(script == info->script)) {
      return Status::Corruption("image " + std::to_string(id) +
                                ": stored script disagrees with memory");
    }
    MMDB_RETURN_IF_ERROR(ValidateScript(script));
    // Figure 1's classification: Main cluster of the base exactly when
    // every operation is bound-widening.
    const bool widening = RuleEngine::IsAllBoundWidening(script);
    const std::vector<ObjectId>& cluster =
        collection_.FindBinary(script.base_id)->cluster;
    if (std::binary_search(cluster.begin(), cluster.end(), id) != widening) {
      return Status::Corruption(
          "image " + std::to_string(id) + ": " +
          (widening ? "bound-widening script is missing from"
                    : "non-widening script sits in") +
          " the Main cluster of base " + std::to_string(script.base_id));
    }
    if (widening) ++widening_count;
    MMDB_ASSIGN_OR_RETURN(const BoundsRow folded, folder.Fold(script));
    if (info->position != i || !(folded == rows[i])) {
      return Status::Corruption("image " + std::to_string(id) +
                                ": stored bounds row disagrees with its "
                                "script");
    }
  }

  if (clustered_count != widening_count ||
      collection_.MainEditedCount() != widening_count) {
    return Status::Corruption(
        "BWM Main clusters hold " + std::to_string(clustered_count) +
        " images (count " + std::to_string(collection_.MainEditedCount()) +
        ") but the collection has " + std::to_string(widening_count) +
        " bound-widening scripts");
  }
  if (collection_.unclassified().size() !=
      collection_.EditedCount() - widening_count) {
    return Status::Corruption("BWM Unclassified component size mismatch");
  }
  return report;
}

bool MultimediaDatabase::IsQuarantined(ObjectId id) const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantine_.count(id) > 0;
}

void MultimediaDatabase::QuarantineImage(ObjectId id) const {
  static obs::Counter* const quarantines = obs::Registry::Default().GetCounter(
      "mmdb_quarantines_total",
      "Images quarantined after their stored blob failed verification.");
  static obs::Gauge* const quarantined = obs::Registry::Default().GetGauge(
      "mmdb_quarantined_images",
      "Images currently quarantined (excluded from query answers).");
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  if (quarantine_.insert(id).second) {
    quarantines->Increment();
    quarantined->Set(static_cast<double>(quarantine_.size()));
  }
}

std::vector<ObjectId> MultimediaDatabase::QuarantinedImages() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return {quarantine_.begin(), quarantine_.end()};
}

QuarantineHooks MultimediaDatabase::MakeQuarantineHooks() const {
  QuarantineHooks hooks;
  hooks.contains = [this](ObjectId id) { return IsQuarantined(id); };
  hooks.add = [this](ObjectId id) { QuarantineImage(id); };
  hooks.record_io_failure = [this](ObjectId id) {
    if (!breaker_.RecordFailure(id)) return breaker_.IsOpen(id);
    // The breaker just tripped: quarantine the image so every later query
    // skips it instead of re-paying the failing reads.
    QuarantineImage(id);
    return true;
  };
  return hooks;
}

Status MultimediaDatabase::Flush() {
  MMDB_RETURN_IF_ERROR(PersistMeta());
  return store_->Flush();
}

}  // namespace mmdb
