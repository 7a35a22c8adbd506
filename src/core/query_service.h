#ifndef MMDB_CORE_QUERY_SERVICE_H_
#define MMDB_CORE_QUERY_SERVICE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <span>
#include <variant>
#include <vector>

#include "core/admission.h"
#include "core/cancel.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace mmdb {

/// Sizing of a `QueryService`.
struct QueryServiceOptions {
  /// Threads a batch may occupy (pool workers plus the calling thread).
  /// 0 means `std::thread::hardware_concurrency()`.
  int threads = 0;
  /// Admission control: with `admission.max_in_flight > 0` every query
  /// passes the gate before executing, and overload produces fast typed
  /// ResourceExhausted rejections per the configured policy.
  AdmissionOptions admission;
};

/// The payload of one query: exactly one of the three query shapes. A
/// `std::variant` makes the old "neither set / both set" misuse states
/// unrepresentable — a default-constructed request is a valid match-all
/// range query.
using QueryPayload =
    std::variant<RangeQuery, ConjunctiveQuery, SimilarityQuery>;

/// One query of a batch: a range, conjunctive, or top-k similarity query
/// plus the access path to answer it with (similarity ignores `method` —
/// it always runs the interval-bounded scan). Build with the factory
/// helpers; inspect with `kind()` and the typed accessors.
struct QueryRequest {
  QueryMethod method = QueryMethod::kBwm;
  QueryPayload payload;
  /// Per-query deadline (infinite by default). Combined with the batch
  /// deadline; the earlier one wins.
  Deadline deadline;
  /// Optional caller-owned cancel token; must outlive the batch.
  const CancelToken* cancel = nullptr;

  QueryKind kind() const { return static_cast<QueryKind>(payload.index()); }

  /// Typed payload access: non-null exactly when `kind()` matches.
  const RangeQuery* range() const {
    return std::get_if<RangeQuery>(&payload);
  }
  const ConjunctiveQuery* conjunctive() const {
    return std::get_if<ConjunctiveQuery>(&payload);
  }
  const SimilarityQuery* similarity() const {
    return std::get_if<SimilarityQuery>(&payload);
  }

  static QueryRequest Range(RangeQuery query,
                            QueryMethod method = QueryMethod::kBwm) {
    QueryRequest request;
    request.method = method;
    request.payload = std::move(query);
    return request;
  }
  static QueryRequest Conjunctive(ConjunctiveQuery query,
                                  QueryMethod method = QueryMethod::kBwm) {
    QueryRequest request;
    request.method = method;
    request.payload = std::move(query);
    return request;
  }
  static QueryRequest Similarity(SimilarityQuery query) {
    QueryRequest request;
    request.payload = std::move(query);
    return request;
  }
};

/// Batch-wide limits for `ExecuteBatch`: one deadline and one cancel
/// token covering every query of the batch (each combines with the
/// per-request limits).
struct BatchOptions {
  Deadline deadline;
  const CancelToken* cancel = nullptr;
};

/// The serving layer over a `MultimediaDatabase`: a persistent worker
/// pool executes batches of independent read queries concurrently, and
/// every query feeds a per-query observability record into service-level
/// counters.
///
/// Concurrency contract (inherited from the facade): any number of
/// `ExecuteBatch` / `Execute` calls may run at once — but mutations of
/// the underlying database (`Insert*`, `DeleteImage`, `Flush`) must
/// remain externally serialized against them, exactly as for direct
/// facade queries.
class QueryService {
 public:
  /// Per-query observability record: what one query cost and how much
  /// work each side of the scan did (Main-cluster accepts are
  /// `stats.edited_images_skipped`; RBM fallbacks inside BWM are
  /// `stats.edited_images_bounded`).
  struct QueryObservation {
    QueryMethod method = QueryMethod::kBwm;
    bool ok = false;
    QueryKind kind = QueryKind::kRange;
    double wall_seconds = 0.0;
    int64_t results = 0;
    QueryStats stats;
    /// The error code when `!ok` (kOk otherwise).
    StatusCode error_code = StatusCode::kOk;
    /// Interrupted mid-scan (deadline or cancellation) with partial
    /// progress recorded in `stats` / `results`.
    bool partial = false;
    /// Rejected by the admission gate before executing.
    bool rejected = false;
  };

  /// Distribution summary of one access path's per-query wall time,
  /// derived from a fixed-bucket histogram (percentiles are interpolated
  /// within the owning bucket, Prometheus-style).
  struct LatencySummary {
    int64_t count = 0;
    double total_seconds = 0.0;
    double p50_seconds = 0.0;
    double p95_seconds = 0.0;
    double max_seconds = 0.0;
  };

  /// Cumulative counters since construction (or `ResetCounters`).
  struct CounterSnapshot {
    int64_t batches = 0;
    int64_t queries = 0;
    int64_t range_queries = 0;
    int64_t conjunctive_queries = 0;
    int64_t similarity_queries = 0;
    int64_t failed_queries = 0;
    /// Failures by lifecycle cause (all also count in `failed_queries`).
    int64_t deadline_exceeded = 0;
    int64_t cancelled_queries = 0;
    int64_t admission_rejected = 0;
    /// Interrupted queries that reported partial progress.
    int64_t partial_queries = 0;
    int64_t results_returned = 0;
    /// Work counters summed over every successful query.
    QueryStats stats;
    double total_query_seconds = 0.0;
    double max_query_seconds = 0.0;
    /// Successful + failed queries per access path.
    std::map<QueryMethod, int64_t> queries_per_method;
    /// Per-access-path latency distributions (only paths that ran).
    std::map<QueryMethod, LatencySummary> method_latency;
    /// Executor handoffs since the last `ResetCounters`: how many tasks
    /// went through the pool queue vs ran inline, and how long queued
    /// tasks waited for a worker. `max_queue_wait_seconds` is since pool
    /// construction (the pool tracks a single running max).
    int64_t pool_tasks = 0;
    int64_t inline_tasks = 0;
    double total_queue_wait_seconds = 0.0;
    double max_queue_wait_seconds = 0.0;

    /// Renders the snapshot as an aligned counter table.
    void PrintTo(std::ostream& os) const;
  };

  /// The service keeps a pointer to `db`; the database must outlive it
  /// (and outlive any batch in flight).
  explicit QueryService(const MultimediaDatabase* db,
                        QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Joins the pool (graceful `Shutdown`).
  ~QueryService();

  /// Runs every request concurrently across the pool and returns one
  /// result per request, in request order — each byte-identical to what
  /// a serial `RunRange` / `RunConjunctive` facade call would return
  /// (including result order, which every processor keeps
  /// deterministic). The calling thread participates in the work, so a
  /// zero-worker service still answers every query, serially.
  std::vector<Result<QueryResult>> ExecuteBatch(
      std::span<const QueryRequest> requests);

  /// As above under batch-wide limits: `options.deadline` bounds every
  /// query of the batch and `options.cancel` cancels them all at once.
  /// Timed-out / cancelled queries return typed statuses
  /// (DeadlineExceeded / Cancelled); admission-gate rejections return
  /// ResourceExhausted without executing.
  std::vector<Result<QueryResult>> ExecuteBatch(
      std::span<const QueryRequest> requests, const BatchOptions& options);

  /// Convenience: a one-request batch.
  Result<QueryResult> Execute(const QueryRequest& request);

  /// The admission gate, or null when `admission.max_in_flight == 0`.
  const AdmissionController* admission() const { return admission_.get(); }

  /// Drains in-flight work and joins the workers. Batches submitted
  /// afterwards still complete, on the calling thread. Idempotent.
  void Shutdown();

  /// Maximum threads a batch can occupy (pool workers + the caller).
  int threads() const { return executor_.worker_count() + 1; }

  /// A consistent copy of the service counters.
  CounterSnapshot Snapshot() const;

  /// Zeroes the service counters.
  void ResetCounters();

 private:
  /// Per-access-path latency instruments: a service-local histogram that
  /// `Snapshot` summarizes (and `ResetCounters` zeroes), plus the shared
  /// registry histogram `mmdb_query_latency_seconds{method=...}` the same
  /// value is mirrored into.
  struct MethodLatency {
    std::unique_ptr<obs::Histogram> local;
    obs::Histogram* registry = nullptr;
  };

  /// Validates + runs one request and returns its observation record.
  /// `parent_span_id` links the per-query span (which runs on a pool
  /// worker) to the batch span opened on the submitting thread.
  QueryObservation RunOne(const QueryRequest& request,
                          const BatchOptions& options,
                          Result<QueryResult>* out,
                          uint64_t parent_span_id) const;
  void Record(const QueryObservation& observation);

  const MultimediaDatabase* db_;
  Executor executor_;
  /// Present iff `options.admission.max_in_flight > 0`.
  std::unique_ptr<AdmissionController> admission_;
  /// Keyed by the closed QueryMethod enum; built once in the
  /// constructor, so concurrent lookups need no lock.
  std::map<QueryMethod, MethodLatency> method_latency_;
  mutable std::mutex counters_mu_;
  CounterSnapshot counters_;
  /// queue_wait_stats() reading at construction / last ResetCounters;
  /// Snapshot reports the delta.
  Executor::QueueWaitStats wait_baseline_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_QUERY_SERVICE_H_
