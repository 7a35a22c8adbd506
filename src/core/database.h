#ifndef MMDB_CORE_DATABASE_H_
#define MMDB_CORE_DATABASE_H_

#include <atomic>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/breaker.h"
#include "core/cancel.h"
#include "core/collection.h"
#include "core/instantiate.h"
#include "core/quantizer.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "core/rules.h"
#include "image/editor.h"
#include "image/image.h"
#include "storage/catalog.h"
#include "storage/object_store.h"
#include "util/result.h"

namespace mmdb {

class CorpusStats;  // core/plan.h; cached here, collected there.

/// Configuration for opening a `MultimediaDatabase`.
struct DatabaseOptions {
  /// Page file path; empty opens a volatile in-memory database (the
  /// configuration the paper's performance evaluation uses).
  std::string path;
  /// Buffer pool frames for a disk-backed database.
  size_t pool_pages = 256;
  /// Divisions per color axis of the quantizer (ignored when reopening
  /// an existing database, whose persisted value wins).
  int32_t quantizer_divisions = 4;
  /// Color model the quantizer divides (also persisted; the stored value
  /// wins on reopen).
  ColorSpace color_space = ColorSpace::kRgb;
  /// Rule engine fidelity (see `RuleOptions`).
  RuleOptions rule_options;
  /// Threads the shared query executor may occupy (pool workers plus the
  /// querying thread); drives `QueryMethod::kParallelRbm`. 0 means
  /// `std::thread::hardware_concurrency()`. The pool is started lazily on
  /// the first parallel query, never for purely serial use.
  int query_threads = 0;
  /// Environment for all raw file I/O of a disk-backed database (null =
  /// `Env::Default()`); tests pass a `FaultInjectingEnv`. Must outlive
  /// the database. Ignored when `path` is empty.
  Env* env = nullptr;
};

/// How a range query is processed.
enum class QueryMethod {
  /// Materialize every edited image and re-extract features (baseline).
  kInstantiate,
  /// Rule-Based Method: fold Table 1 rules over every edit script
  /// ("w/out data structure" in the paper's figures).
  kRbm,
  /// Bound-Widening Method: RBM plus the Main/Unclassified data structure
  /// ("with data structure").
  kBwm,
  /// Kept for wire and CLI compatibility: runs kBwm's scan (same ids in
  /// the same order, same counters) under its own span and metric
  /// names. The histogram index over the binary images it was named for
  /// (Section 4's conventional access path) never beat kBwm's base test.
  kBwmIndexed,
  /// RBM with the edited-image scan chunked across the database's
  /// persistent worker pool (beyond-paper). Same result sets — and the
  /// same result *order* — as kRbm.
  kParallelRbm,
  /// Planned (src/core/plan.h): the conjuncts ordered most-selective-
  /// first, run as one conjunction by kBwm's scan when the Main
  /// component holds edited images, else by kRbm's. Same result *sets*
  /// as kRbm / kBwm, in the chosen scan's walk order. Stays last (see
  /// `kQueryMethods`).
  kPlanned,
};

/// Every `QueryMethod`, in enum order: the one list that per-method
/// tables (spans, metrics, latency histograms, name lookups) iterate.
inline constexpr QueryMethod kQueryMethods[] = {
    QueryMethod::kInstantiate, QueryMethod::kRbm,
    QueryMethod::kBwm,         QueryMethod::kBwmIndexed,
    QueryMethod::kParallelRbm, QueryMethod::kPlanned};
static_assert(std::size(kQueryMethods) ==
                  static_cast<size_t>(QueryMethod::kPlanned) + 1,
              "kQueryMethods must list every QueryMethod");

/// Human-readable method name ("rbm", "bwm", ...), for tables and logs.
std::string_view QueryMethodName(QueryMethod method);

/// The augmented multimedia database facade.
///
/// Owns the object store (rasters, scripts, catalog rows) and the
/// in-memory `AugmentedCollection` the query processors scan (with its
/// BWM Main clusters and Unclassified Component), keeping both
/// consistent as images are inserted. Binary images get their color
/// histogram extracted exactly once, at insertion; edited images are
/// stored purely as operation sequences and are only ever instantiated
/// on explicit retrieval (or by the kInstantiate baseline).
///
/// Thread safety: mutations (`Insert*`, `DeleteImage`, `Flush`) require
/// external serialization. Every query path, `GetImage` and
/// `VerifyIntegrity` may run concurrently from any number of threads
/// between mutations.
class Executor;

class MultimediaDatabase {
 public:
  /// Opens (creating or reloading) a database per `options`.
  static Result<std::unique_ptr<MultimediaDatabase>> Open(
      DatabaseOptions options = {});

  MultimediaDatabase(const MultimediaDatabase&) = delete;
  MultimediaDatabase& operator=(const MultimediaDatabase&) = delete;

  ~MultimediaDatabase();

  /// Stores a conventional (binary) image; extracts and catalogs its
  /// histogram. Returns the new object id.
  Result<ObjectId> InsertBinaryImage(const Image& image);

  /// Stores an edited image as its operation sequence. The referenced
  /// base image and every Merge target must already be stored. Returns
  /// the new object id.
  Result<ObjectId> InsertEditedImage(const EditScript& script);

  /// Retrieves an image's pixels, instantiating it when it is stored as
  /// an edit sequence.
  Result<Image> GetImage(ObjectId id) const;

  /// Answers a color range query with the chosen method. All three
  /// methods agree on binary images; kRbm and kBwm return identical
  /// result sets, a superset of kInstantiate's (no false negatives).
  ///
  /// Runs under `ctx`'s limits (deadline, cancel tokens; none by
  /// default): the processor checks cooperatively and returns
  /// DeadlineExceeded / Cancelled with partial progress in
  /// `ctx.interrupt` when one trips. The context is also published
  /// thread-locally (`CancelScope`) so the storage read path honors it
  /// per page.
  Result<QueryResult> RunRange(const RangeQuery& query, QueryMethod method,
                               const QueryContext& ctx = {}) const;

  /// Answers a conjunction of range predicates ("at least 25% blue AND
  /// at most 10% red") with the chosen method, under `ctx`'s limits;
  /// same cross-method guarantees as `RunRange`.
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     QueryMethod method,
                                     const QueryContext& ctx = {}) const;

  /// Answers a top-k nearest-histogram query under `ctx`'s limits: exact
  /// L1 distances for binary images, provable `[distance_lo,
  /// distance_hi]` intervals for edited ones (no instantiation),
  /// returning the candidate set that provably contains the true k
  /// nearest — in `QueryResult::matches`, with `ids` mirroring the match
  /// order.
  Result<QueryResult> RunSimilarity(const SimilarityQuery& query,
                                    const QueryContext& ctx = {}) const;

  /// Builds a fresh `QueryProcessor` for `method` (`RunRange` /
  /// `RunConjunctive` dispatch through this). kRbm, kBwm, kBwmIndexed and
  /// kParallelRbm are settings of the one scan kernel (core/scan.h):
  ///
  /// | method         | binary side                   | loose edited images |
  /// |----------------|-------------------------------|---------------------|
  /// | kRbm           | flat                          | serial              |
  /// | kBwm           | with Main clusters            | serial              |
  /// | kBwmIndexed    | with Main clusters (kBwm's)   | serial              |
  /// | kParallelRbm   | flat                          | chunked on the pool |
  ///
  /// Processors are cheap to build (one per query) and borrow this
  /// database's in-memory read state; they must not outlive it.
  ///
  /// Engine-internal: applications should issue queries through
  /// `QueryService` (or the `Run*` facade calls), which add deadlines,
  /// cancellation, admission control, and per-query observability on top
  /// of the same processors. Holding a processor across mutations is
  /// undefined; the serving layers never do.
  Result<std::unique_ptr<QueryProcessor>> MakeProcessor(
      QueryMethod method) const;

  /// Corpus statistics the query planner estimates selectivity from
  /// (`QueryMethod::kPlanned`, `--explain`), collected lazily on first
  /// use and cached until the next insert or delete. Thread-safe; the
  /// returned snapshot stays valid after later mutations. Staleness only
  /// skews the conjunct order (and with it `rules_applied`) and, when the
  /// Main component's emptiness flips, which of two equal-set scans runs;
  /// a reader racing a mutation at worst plans against the previous
  /// corpus.
  std::shared_ptr<const CorpusStats> PlannerStats() const;

  /// The lazily started persistent worker pool shared by this database's
  /// parallel query paths (`QueryMethod::kParallelRbm`). Sized by
  /// `DatabaseOptions::query_threads`.
  Executor* shared_executor() const;

  /// Removes an image object. An edited image is always removable; a
  /// binary image is removable only while no stored edited image
  /// references it as its base or as a Merge target (FailedPrecondition
  /// is reported as InvalidArgument with the referencing id).
  Status DeleteImage(ObjectId id);

  /// Expands a result id set with the Section 2 connection semantics:
  /// for every matched edited image, its referenced base image is added
  /// (a user searching for op(x) should also see x).
  std::vector<ObjectId> ExpandWithConnections(
      const std::vector<ObjectId>& ids) const;

  /// Convenience: the histogram bin a color falls into.
  BinIndex BinOf(const Rgb& color) const { return quantizer_.BinOf(color); }

  const ColorQuantizer& quantizer() const { return quantizer_; }
  const RuleEngine& rule_engine() const { return rule_engine_; }
  const AugmentedCollection& collection() const { return collection_; }
  const ObjectStore& object_store() const { return *store_; }

  /// Resolver that loads (and instantiates, for edited ids) pixels from
  /// the store; used by the editor for Merge targets and by examples.
  ImageResolver MakePixelResolver() const;

  /// Persists buffered pages and the catalog metadata.
  Status Flush();

  /// Results of an integrity scan.
  struct IntegrityReport {
    int64_t binary_images_checked = 0;
    int64_t edited_images_checked = 0;
    int64_t rasters_verified = 0;
    int64_t scripts_verified = 0;
  };

  /// True iff `id` has been quarantined as corrupt (its stored raster,
  /// script, or catalog row failed checksum verification or decoding).
  bool IsQuarantined(ObjectId id) const;

  /// Marks `id` as corrupt. Const because query processors (which borrow
  /// the database read-only) discover corruption lazily; the set is
  /// internally synchronized.
  void QuarantineImage(ObjectId id) const;

  /// The quarantined ids, ascending.
  std::vector<ObjectId> QuarantinedImages() const;

  /// Callbacks binding this database's quarantine set and per-image I/O
  /// circuit breaker, for wiring into an `InstantiationQueryProcessor`.
  /// `record_io_failure` counts a transient read failure against the
  /// breaker and quarantines the image once it trips.
  QuarantineHooks MakeQuarantineHooks() const;

  /// The per-image I/O circuit breaker behind `MakeQuarantineHooks`.
  const CircuitBreaker& circuit_breaker() const { return breaker_; }

  /// Cross-checks the in-memory state against the object store: every
  /// binary image's raster must exist, decode, and match its cataloged
  /// dimensions (and, when `deep_pixels` is set, re-extract to the
  /// cataloged histogram); every edited image's stored script must decode
  /// to the in-memory one with a valid base and valid merge targets, and
  /// sit in its base's Main cluster exactly when every operation is
  /// bound-widening. Returns the first inconsistency as an error.
  Result<IntegrityReport> VerifyIntegrity(bool deep_pixels = false) const;

 private:
  explicit MultimediaDatabase(DatabaseOptions options);

  Status LoadExisting();
  Status PersistMeta();
  /// Recursive pixel resolution behind `MakePixelResolver`; `in_flight`
  /// guards against merge-target cycles.
  Result<Image> ResolvePixels(ObjectId id, std::set<ObjectId>* in_flight) const;
  /// Runs `body` inside an object-store batch, aborting it on failure.
  Status WithBatch(const std::function<Status()>& body);
  /// Stores a new image under the next id as one batch (the advanced id
  /// counter, `payload` and `row`), then advances `meta_.next_id` and
  /// adds the image to memory — only once the batch has committed.
  Result<ObjectId> InsertRow(CatalogRow row, const std::string& payload,
                             EditScript script);
  /// The one in-memory apply of a stored image, for inserts and reload:
  /// the collection and the planner epoch. `script` is an edited image's
  /// operations.
  Status AddToMemory(const CatalogRow& row, EditScript script);
  Status ValidateScript(const EditScript& script) const;

  DatabaseOptions options_;
  mutable std::once_flag executor_once_;
  mutable std::unique_ptr<Executor> query_executor_;
  /// Ids whose stored blobs are known-corrupt; queries skip them instead
  /// of failing. Guarded by `quarantine_mu_` (processors may add from
  /// their querying thread while others read).
  mutable std::mutex quarantine_mu_;
  mutable std::set<ObjectId> quarantine_;
  /// Per-image transient-I/O failure counter; trips into `quarantine_`.
  mutable CircuitBreaker breaker_;
  /// Lazily collected planner statistics (see `PlannerStats`), guarded by
  /// `planner_stats_mu_` and invalidated by epoch: every successful
  /// mutation bumps `mutation_epoch_`, and the cache rebuilds when its
  /// recorded epoch falls behind.
  mutable std::mutex planner_stats_mu_;
  mutable std::shared_ptr<const CorpusStats> planner_stats_;
  mutable uint64_t planner_stats_epoch_ = 0;
  std::atomic<uint64_t> mutation_epoch_{1};
  std::unique_ptr<ObjectStore> store_;
  ColorQuantizer quantizer_;
  RuleEngine rule_engine_;
  AugmentedCollection collection_;
  CatalogMeta meta_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_DATABASE_H_
