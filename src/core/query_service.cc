#include "core/query_service.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace mmdb {

namespace {

int ResolveThreads(const QueryServiceOptions& options) {
  const int threads = options.threads > 0
                          ? options.threads
                          : static_cast<int>(
                                std::thread::hardware_concurrency());
  return std::max(1, threads);
}

obs::SpanCategory* BatchSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("query_service.batch");
  return category;
}

obs::SpanCategory* QuerySpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("query_service.query");
  return category;
}

}  // namespace

QueryService::QueryService(const MultimediaDatabase* db,
                           QueryServiceOptions options)
    : db_(db), executor_(ResolveThreads(options) - 1) {
  if (options.admission.max_in_flight > 0) {
    admission_ = std::make_unique<AdmissionController>(options.admission);
  }
  for (QueryMethod method : kQueryMethods) {
    MethodLatency latency;
    latency.local = std::make_unique<obs::Histogram>();
    latency.registry = obs::Registry::Default().GetHistogram(
        "mmdb_query_latency_seconds",
        "Per-query wall time through QueryService, by access path.",
        {{"method", std::string(QueryMethodName(method))}});
    method_latency_.emplace(method, std::move(latency));
  }
  wait_baseline_ = executor_.queue_wait_stats();
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() { executor_.Shutdown(); }

QueryService::QueryObservation QueryService::RunOne(
    const QueryRequest& request, const BatchOptions& options,
    Result<QueryResult>* out, uint64_t parent_span_id) const {
  QueryObservation observation;
  observation.method = request.method;
  observation.kind = request.kind();

  obs::Span span(QuerySpan(), parent_span_id);
  Stopwatch watch;
  const Deadline deadline =
      Deadline::Earliest(request.deadline, options.deadline);
  QueryInterrupt interrupt;
  QueryContext ctx;
  ctx.cancel = request.cancel;
  ctx.batch_cancel = options.cancel;
  ctx.deadline = deadline;
  ctx.interrupt = &interrupt;

  // The gate is passed per query, deadline-bounded, so an overloaded
  // service sheds or rejects instead of queueing unboundedly.
  AdmissionController::Ticket ticket;
  bool admitted = true;
  if (admission_ != nullptr) {
    Result<AdmissionController::Ticket> admit = admission_->Admit(deadline);
    if (!admit.ok()) {
      *out = admit.status();
      admitted = false;
      observation.rejected = true;
    } else {
      ticket = std::move(admit).value();
    }
  }
  if (admitted) {
    // The variant payload makes "neither / both set" unrepresentable, so
    // dispatch is a total visit.
    *out = std::visit(
        [&](const auto& query) -> Result<QueryResult> {
          using T = std::decay_t<decltype(query)>;
          if constexpr (std::is_same_v<T, RangeQuery>) {
            return db_->RunRange(query, request.method, ctx);
          } else if constexpr (std::is_same_v<T, ConjunctiveQuery>) {
            return db_->RunConjunctive(query, request.method, ctx);
          } else {
            return db_->RunSimilarity(query, ctx);
          }
        },
        request.payload);
  }
  observation.wall_seconds = watch.ElapsedSeconds();
  observation.ok = out->ok();
  if (out->ok()) {
    observation.results = static_cast<int64_t>((*out)->ids.size());
    observation.stats = (*out)->stats;
  } else {
    observation.error_code = out->status().code();
    if (interrupt.partial) {
      observation.partial = true;
      observation.results = interrupt.results_so_far;
      observation.stats = interrupt.stats;
    }
  }
  return observation;
}

void QueryService::Record(const QueryObservation& observation) {
  // The histogram pair is lock-free; only the scalar counters need the
  // mutex.
  auto latency = method_latency_.find(observation.method);
  if (latency != method_latency_.end()) {
    latency->second.local->Record(observation.wall_seconds);
    latency->second.registry->Record(observation.wall_seconds);
  }
  std::lock_guard<std::mutex> lock(counters_mu_);
  ++counters_.queries;
  ++counters_.queries_per_method[observation.method];
  switch (observation.kind) {
    case QueryKind::kRange:
      ++counters_.range_queries;
      break;
    case QueryKind::kConjunctive:
      ++counters_.conjunctive_queries;
      break;
    case QueryKind::kSimilarity:
      ++counters_.similarity_queries;
      break;
  }
  if (observation.ok) {
    counters_.results_returned += observation.results;
    counters_.stats += observation.stats;
  } else {
    ++counters_.failed_queries;
    if (observation.error_code == StatusCode::kDeadlineExceeded) {
      ++counters_.deadline_exceeded;
    } else if (observation.error_code == StatusCode::kCancelled) {
      ++counters_.cancelled_queries;
    }
    if (observation.rejected) ++counters_.admission_rejected;
    if (observation.partial) {
      ++counters_.partial_queries;
      // Partial work is real work; keep it visible in the work counters.
      counters_.stats += observation.stats;
    }
  }
  counters_.total_query_seconds += observation.wall_seconds;
  counters_.max_query_seconds =
      std::max(counters_.max_query_seconds, observation.wall_seconds);
}

std::vector<Result<QueryResult>> QueryService::ExecuteBatch(
    std::span<const QueryRequest> requests) {
  return ExecuteBatch(requests, BatchOptions{});
}

std::vector<Result<QueryResult>> QueryService::ExecuteBatch(
    std::span<const QueryRequest> requests, const BatchOptions& options) {
  std::vector<Result<QueryResult>> results(
      requests.size(), Result<QueryResult>(Status::Internal("not executed")));
  obs::Span batch_span(BatchSpan());
  const uint64_t batch_id = batch_span.id();
  executor_.ParallelFor(requests.size(), [&, batch_id](size_t i) {
    Record(RunOne(requests[i], options, &results[i], batch_id));
  });
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.batches;
  }
  return results;
}

Result<QueryResult> QueryService::Execute(const QueryRequest& request) {
  std::vector<Result<QueryResult>> results =
      ExecuteBatch(std::span<const QueryRequest>(&request, 1));
  return std::move(results.front());
}

QueryService::CounterSnapshot QueryService::Snapshot() const {
  CounterSnapshot snapshot;
  Executor::QueueWaitStats baseline;
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    snapshot = counters_;
    baseline = wait_baseline_;
  }
  for (const auto& [method, latency] : method_latency_) {
    const obs::Histogram::Snapshot seconds = latency.local->Snap();
    if (seconds.count == 0) continue;
    LatencySummary summary;
    summary.count = seconds.count;
    summary.total_seconds = seconds.sum;
    summary.p50_seconds = seconds.Percentile(0.5);
    summary.p95_seconds = seconds.Percentile(0.95);
    summary.max_seconds = seconds.max;
    snapshot.method_latency.emplace(method, summary);
  }
  const Executor::QueueWaitStats waits = executor_.queue_wait_stats();
  snapshot.pool_tasks = waits.pool_tasks - baseline.pool_tasks;
  snapshot.inline_tasks = waits.inline_tasks - baseline.inline_tasks;
  snapshot.total_queue_wait_seconds =
      waits.total_wait_seconds - baseline.total_wait_seconds;
  snapshot.max_queue_wait_seconds = waits.max_wait_seconds;
  return snapshot;
}

void QueryService::ResetCounters() {
  for (const auto& [method, latency] : method_latency_) {
    (void)method;
    latency.local->Reset();  // The registry mirror keeps accumulating.
  }
  std::lock_guard<std::mutex> lock(counters_mu_);
  wait_baseline_ = executor_.queue_wait_stats();
  counters_ = CounterSnapshot();
}

void QueryService::CounterSnapshot::PrintTo(std::ostream& os) const {
  TablePrinter table({"counter", "value"});
  table.AddRow({"batches", TablePrinter::Cell(batches)});
  table.AddRow({"queries", TablePrinter::Cell(queries)});
  table.AddRow({"  range", TablePrinter::Cell(range_queries)});
  table.AddRow({"  conjunctive", TablePrinter::Cell(conjunctive_queries)});
  table.AddRow({"  similarity", TablePrinter::Cell(similarity_queries)});
  for (const auto& [method, count] : queries_per_method) {
    table.AddRow({"  method " + std::string(QueryMethodName(method)),
                  TablePrinter::Cell(count)});
  }
  table.AddRow({"failed queries", TablePrinter::Cell(failed_queries)});
  table.AddRow(
      {"  deadline exceeded", TablePrinter::Cell(deadline_exceeded)});
  table.AddRow({"  cancelled", TablePrinter::Cell(cancelled_queries)});
  table.AddRow(
      {"  admission rejected", TablePrinter::Cell(admission_rejected)});
  table.AddRow(
      {"partial queries (interrupted)", TablePrinter::Cell(partial_queries)});
  table.AddRow({"results returned", TablePrinter::Cell(results_returned)});
  table.AddRow(
      {"binary images checked",
       TablePrinter::Cell(stats.binary_images_checked)});
  table.AddRow({"edited images bounded (RBM fallbacks)",
                TablePrinter::Cell(stats.edited_images_bounded)});
  table.AddRow({"edited images skipped (Main-cluster accepts)",
                TablePrinter::Cell(stats.edited_images_skipped)});
  table.AddRow({"rules applied", TablePrinter::Cell(stats.rules_applied)});
  table.AddRow(
      {"images instantiated", TablePrinter::Cell(stats.images_instantiated)});
  table.AddRow({"corrupt images skipped",
                TablePrinter::Cell(stats.corrupt_images_skipped)});
  table.AddRow(
      {"total query seconds", TablePrinter::Cell(total_query_seconds, 6)});
  table.AddRow(
      {"max query seconds", TablePrinter::Cell(max_query_seconds, 6)});
  table.AddRow(
      {"avg query seconds",
       TablePrinter::Cell(
           queries == 0 ? 0.0
                        : total_query_seconds / static_cast<double>(queries),
           6)});
  for (const auto& [method, latency] : method_latency) {
    const std::string prefix =
        "  " + std::string(QueryMethodName(method)) + " ";
    table.AddRow({prefix + "p50 seconds",
                  TablePrinter::Cell(latency.p50_seconds, 6)});
    table.AddRow({prefix + "p95 seconds",
                  TablePrinter::Cell(latency.p95_seconds, 6)});
    table.AddRow({prefix + "max seconds",
                  TablePrinter::Cell(latency.max_seconds, 6)});
  }
  table.AddRow({"executor pool tasks", TablePrinter::Cell(pool_tasks)});
  table.AddRow({"executor inline tasks", TablePrinter::Cell(inline_tasks)});
  table.AddRow({"total queue wait seconds",
                TablePrinter::Cell(total_queue_wait_seconds, 6)});
  table.AddRow({"max queue wait seconds",
                TablePrinter::Cell(max_queue_wait_seconds, 6)});
  table.Print(os);
}

}  // namespace mmdb
