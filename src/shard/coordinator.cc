#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <utility>

#include "core/similarity.h"
#include "obs/metrics.h"

namespace mmdb::shard {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Fraction of the query deadline the coordinator keeps for itself
/// (merge + bookkeeping); each shard gets the rest as its budget.
constexpr double kMergeReserveFraction = 0.1;

struct CoordMetrics {
  obs::Counter* queries;
  obs::Counter* partial;
  obs::Counter* hedges;
  obs::Counter* hedge_wins;
  obs::Counter* shard_failures;
  obs::Counter* breaker_skips;
  obs::Histogram* latency;
};

CoordMetrics& Metrics() {
  static CoordMetrics* const metrics = [] {
    obs::Registry& registry = obs::Registry::Default();
    auto* m = new CoordMetrics();
    m->queries = registry.GetCounter(
        "mmdb_coord_queries_total",
        "Queries fanned out by the shard coordinator.");
    m->partial = registry.GetCounter(
        "mmdb_coord_partial_results_total",
        "Coordinator answers that were degraded (complete=false): one or "
        "more shards failed and the merge covered the survivors only.");
    m->hedges = registry.GetCounter(
        "mmdb_coord_hedges_total",
        "Hedged attempts launched after a shard outlived its p99-priced "
        "hedge delay.");
    m->hedge_wins = registry.GetCounter(
        "mmdb_coord_hedge_wins_total",
        "Hedged attempts that answered before the primary they doubled.");
    m->shard_failures = registry.GetCounter(
        "mmdb_coord_shard_failures_total",
        "Individual shard attempt failures observed by the coordinator "
        "(before retry/hedge recovery).");
    m->breaker_skips = registry.GetCounter(
        "mmdb_coord_breaker_skips_total",
        "Dispatches skipped because the shard's circuit breaker was open.");
    m->latency = registry.GetHistogram(
        "mmdb_coord_query_latency_seconds",
        "End-to-end coordinator query latency (fan-out through merge).");
    return m;
  }();
  return *metrics;
}

Status NamedShardError(size_t shard, const std::string& backend,
                       const Status& cause) {
  return Status(cause.code(), "shard " + std::to_string(shard) + " (" +
                                  backend + "): " + cause.message());
}

}  // namespace

struct Coordinator::Fanout {
  std::mutex mu;
  std::condition_variable cv;

  struct Slot {
    bool done = false;
    Result<QueryResult> result = Status::Internal("shard never dispatched");
    Status last_error;
    int launched = 0;
    int in_flight = 0;
    bool hedged = false;
    SteadyClock::time_point hedge_at{};
    Deadline deadline;
    QueryRequest request;
  };
  std::vector<Slot> slots;
};

Coordinator::Coordinator(
    std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends,
    const ShardCatalog* catalog, CoordinatorOptions options)
    : backends_(std::move(backends)),
      catalog_(catalog),
      options_(options),
      health_(backends_.size(), options.health),
      executor_(options.threads > 0
                    ? options.threads
                    : static_cast<int>(2 * std::max<size_t>(1,
                                                            backends_.size()))) {
}

Coordinator::~Coordinator() { executor_.Shutdown(); }

Coordinator::Stats Coordinator::stats() const {
  Stats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.partial_results = partial_results_.load(std::memory_order_relaxed);
  stats.hedges_launched = hedges_launched_.load(std::memory_order_relaxed);
  stats.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  stats.shard_failures = shard_failures_.load(std::memory_order_relaxed);
  stats.breaker_skips = breaker_skips_.load(std::memory_order_relaxed);
  return stats;
}

QueryRequest Coordinator::ShardRequest(const QueryRequest& request,
                                       size_t shard,
                                       const Deadline& shard_deadline) const {
  QueryRequest shard_request = request;
  shard_request.deadline = shard_deadline;
  if (const SimilarityQuery* similarity = request.similarity();
      similarity != nullptr && similarity->k > 0) {
    // A ghost can displace at most one real image from the shard's
    // top-k, and the shard hosts GhostCount of them — inflating k by
    // that bound keeps the shard's candidate set a superset of the
    // single store's candidates restricted to this shard.
    SimilarityQuery inflated = *similarity;
    inflated.k =
        similarity->k + static_cast<uint32_t>(catalog_->GhostCount(shard));
    shard_request.payload = std::move(inflated);
  }
  return shard_request;
}

void Coordinator::LaunchAttempt(const std::shared_ptr<Fanout>& fanout,
                                size_t shard, int attempt) {
  // Caller holds fanout->mu.
  Fanout::Slot& slot = fanout->slots[shard];
  ++slot.launched;
  ++slot.in_flight;
  executor_.Submit([this, fanout, shard, attempt] {
    Fanout::Slot& slot = fanout->slots[shard];
    QueryRequest request;
    {
      std::lock_guard<std::mutex> lock(fanout->mu);
      if (slot.done) {
        // The shard was finalized (deadline, other attempt) before this
        // attempt got a worker; don't burn the backend.
        --slot.in_flight;
        return;
      }
      request = slot.request;
    }
    const size_t replicas = backends_[shard].size();
    ShardBackend* backend =
        backends_[shard][static_cast<size_t>(attempt) % replicas].get();
    const auto start = SteadyClock::now();
    Result<QueryResult> result = backend->Execute(request);
    const double elapsed =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    if (result.ok()) {
      health_.RecordSuccess(shard, elapsed);
    } else {
      health_.RecordFailure(shard);
      shard_failures_.fetch_add(1, std::memory_order_relaxed);
      Metrics().shard_failures->Increment();
    }
    std::lock_guard<std::mutex> lock(fanout->mu);
    --slot.in_flight;
    if (slot.done) return;  // Lost the hedge race; late answer discarded.
    if (result.ok()) {
      slot.done = true;
      slot.result = std::move(result);
      if (attempt > 0) {
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        Metrics().hedge_wins->Increment();
      }
    } else {
      slot.last_error = NamedShardError(shard, backend->name(),
                                        result.status());
      // The coordinating thread decides: immediate retry while attempts
      // remain, or finalize with this error.
    }
    fanout->cv.notify_all();
  });
}

Result<ShardedResult> Coordinator::Execute(const QueryRequest& request) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  Metrics().queries->Increment();
  const auto query_start = SteadyClock::now();

  const size_t shards = backends_.size();
  const Deadline shard_deadline =
      Deadline::Budget(request.deadline, 1.0 - kMergeReserveFraction);
  auto fanout = std::make_shared<Fanout>();
  fanout->slots.resize(shards);

  std::unique_lock<std::mutex> lock(fanout->mu);
  for (size_t shard = 0; shard < shards; ++shard) {
    Fanout::Slot& slot = fanout->slots[shard];
    slot.deadline = shard_deadline;
    slot.request = ShardRequest(request, shard, shard_deadline);
    if (!health_.AllowDispatch(shard)) {
      slot.done = true;
      slot.result = Status::Unavailable(
          "shard " + std::to_string(shard) + " (" +
          backends_[shard][0]->name() + ") is ejected by its circuit breaker");
      breaker_skips_.fetch_add(1, std::memory_order_relaxed);
      Metrics().breaker_skips->Increment();
      continue;
    }
    const double hedge_delay = options_.hedge_delay_seconds > 0.0
                                   ? options_.hedge_delay_seconds
                                   : health_.HedgeDelaySeconds(shard);
    slot.hedge_at = SteadyClock::now() +
                    std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(hedge_delay));
    LaunchAttempt(fanout, shard, 0);
  }

  for (;;) {
    const auto now = SteadyClock::now();
    auto next_wake = SteadyClock::time_point::max();
    for (size_t shard = 0; shard < shards; ++shard) {
      Fanout::Slot& slot = fanout->slots[shard];
      if (slot.done) continue;
      if (slot.deadline.Expired()) {
        // The budget is spent; whatever is still in flight is orphaned
        // so the reserve is left for the merge. This is the envelope's
        // core guarantee: a stalled shard costs its budget, never the
        // whole query.
        slot.done = true;
        slot.result = NamedShardError(
            shard, backends_[shard][0]->name(),
            Status::DeadlineExceeded("missed its per-shard deadline budget"));
        health_.RecordFailure(shard);
        shard_failures_.fetch_add(1, std::memory_order_relaxed);
        Metrics().shard_failures->Increment();
        continue;
      }
      if (slot.in_flight == 0) {
        if (slot.launched < options_.max_attempts_per_shard) {
          // Fast failure: re-dispatch immediately (next replica) instead
          // of waiting for the hedge timer.
          LaunchAttempt(fanout, shard, slot.launched);
        } else {
          slot.done = true;
          slot.result = slot.last_error.ok()
                            ? NamedShardError(
                                  shard, backends_[shard][0]->name(),
                                  Status::Internal(
                                      "failed without a recorded error"))
                            : slot.last_error;
          continue;
        }
      } else if (!slot.hedged &&
                 slot.launched < options_.max_attempts_per_shard) {
        if (now >= slot.hedge_at) {
          slot.hedged = true;
          hedges_launched_.fetch_add(1, std::memory_order_relaxed);
          Metrics().hedges->Increment();
          LaunchAttempt(fanout, shard, slot.launched);
        } else {
          next_wake = std::min(next_wake, slot.hedge_at);
        }
      }
      if (!slot.deadline.IsInfinite()) {
        next_wake = std::min(
            next_wake, SteadyClock::time_point(slot.deadline.time_point()));
      }
    }
    bool all_done = true;
    for (const Fanout::Slot& slot : fanout->slots) {
      if (!slot.done) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    if (next_wake == SteadyClock::time_point::max()) {
      fanout->cv.wait(lock);
    } else {
      fanout->cv.wait_until(lock, next_wake);
    }
  }
  lock.unlock();

  Result<ShardedResult> merged = Merge(request, *fanout);
  if (merged.ok() && !merged->complete) {
    partial_results_.fetch_add(1, std::memory_order_relaxed);
    Metrics().partial->Increment();
  }
  Metrics().latency->Record(
      std::chrono::duration<double>(SteadyClock::now() - query_start).count());
  return merged;
}

Result<ShardedResult> Coordinator::Merge(const QueryRequest& request,
                                         Fanout& fanout) const {
  ShardedResult out;
  std::vector<size_t> succeeded;
  for (size_t shard = 0; shard < fanout.slots.size(); ++shard) {
    const Fanout::Slot& slot = fanout.slots[shard];
    if (slot.result.ok()) {
      succeeded.push_back(shard);
    } else {
      out.complete = false;
      out.shard_errors.push_back(
          ShardError{static_cast<uint32_t>(shard), slot.result.status()});
    }
  }
  if (succeeded.empty()) {
    // Degradation needs survivors; with none, the query failed outright
    // and the caller gets the first shard's typed error.
    if (out.shard_errors.empty()) {
      return Status::Internal("coordinator has no shards");
    }
    return out.shard_errors.front().status;
  }

  QueryStats stats;
  int64_t ghost_total = 0;
  for (size_t shard : succeeded) {
    stats += fanout.slots[shard].result->stats;
    ghost_total += catalog_->GhostCount(shard);
  }

  if (request.kind() != QueryKind::kSimilarity) {
    std::vector<ObjectId> ids;
    for (size_t shard : succeeded) {
      const std::vector<ObjectId>& shard_ids =
          fanout.slots[shard].result->ids;
      ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
    }
    // Canonical single-store order: binary images ascending, then edited
    // ascending. That is the flat scans' emission order (kInstantiate,
    // kRbm, kParallelRbm walk insertion order, and sequential ids make
    // insertion order id order). BWM emits in cluster order, which the
    // per-shard streams cannot rebuild, so the BWM family and kPlanned
    // get the same set in this order.
    std::sort(ids.begin(), ids.end(), [this](ObjectId a, ObjectId b) {
      const bool a_edited = catalog_->IsEdited(a);
      const bool b_edited = catalog_->IsEdited(b);
      if (a_edited != b_edited) return !a_edited;
      return a < b;
    });
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    // Ghost compensation: every scan checked each ghost copy once.
    stats.binary_images_checked -= ghost_total;
    out.result.ids = std::move(ids);
    out.result.stats = stats;
    return out;
  }

  // Similarity: merge the per-shard candidate sets (each a superset of
  // the single store's candidates restricted to that shard, thanks to
  // the k inflation) and apply the single store's top-k rule to the
  // deduplicated union — reproducing its candidate set and intervals bit
  // for bit.
  std::vector<SimilarityMatch> candidates;
  for (size_t shard : succeeded) {
    const std::vector<SimilarityMatch>& matches =
        fanout.slots[shard].result->matches;
    candidates.insert(candidates.end(), matches.begin(), matches.end());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const SimilarityMatch& a, const SimilarityMatch& b) {
              return a.id < b.id;
            });
  candidates.erase(
      std::unique(candidates.begin(), candidates.end(),
                  [](const SimilarityMatch& a, const SimilarityMatch& b) {
                    return a.id == b.id;  // Ghost copies carry identical
                                          // exact distances.
                  }),
      candidates.end());
  out.result.matches =
      TopKCandidates(std::move(candidates), request.similarity()->k);
  out.result.ids.reserve(out.result.matches.size());
  for (const SimilarityMatch& match : out.result.matches) {
    out.result.ids.push_back(match.id);
  }
  stats.binary_images_checked -= ghost_total;  // Full binary scan.
  out.result.stats = stats;
  return out;
}

void Coordinator::ProbeEjected() {
  for (size_t shard = 0; shard < backends_.size(); ++shard) {
    if (health_.StateOf(shard) != BreakerState::kOpen) continue;
    // AllowDispatch admits the half-open trial only once the cooldown
    // has elapsed; refusals leave the breaker untouched.
    if (!health_.AllowDispatch(shard)) continue;
    const auto start = SteadyClock::now();
    Status alive = backends_[shard][0]->Probe();
    const double elapsed =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    if (alive.ok()) {
      health_.RecordSuccess(shard, elapsed);
    } else {
      health_.RecordFailure(shard);
    }
  }
}

}  // namespace mmdb::shard
