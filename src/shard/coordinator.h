#ifndef MMDB_SHARD_COORDINATOR_H_
#define MMDB_SHARD_COORDINATOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/executor.h"
#include "core/query_service.h"
#include "shard/backend.h"
#include "shard/health.h"
#include "shard/sharded_db.h"
#include "util/result.h"

namespace mmdb::shard {

/// Fan-out policy.
struct CoordinatorOptions {
  /// Fixed hedge delay; 0 prices it per shard from the shard's observed
  /// p99 latency (`ShardHealth::HedgeDelaySeconds`, 50 ms until history
  /// accumulates).
  double hedge_delay_seconds = 0.0;
  /// Total attempts per shard per query (primary + hedges/retries).
  int max_attempts_per_shard = 2;
  /// Per-shard breaker / latency-tracking knobs.
  ShardHealthOptions health;
  /// Worker threads for dispatch. 0 sizes to 2 × shard count (every
  /// shard's primary plus one hedge can run concurrently). Must be >= 1
  /// effective — a stalled shard must never be able to block another
  /// shard's dispatch.
  int threads = 0;
};

/// One shard's typed failure inside a degraded answer.
struct ShardError {
  uint32_t shard = 0;
  Status status = Status::OK();
};

/// A scatter-gather answer: the merged result plus its completeness.
/// `complete == false` means one or more shards failed inside the
/// failure envelope; their typed errors are itemized and `result` holds
/// the full answers of every surviving shard — degraded, never silently
/// truncated.
struct ShardedResult {
  QueryResult result;
  bool complete = true;
  std::vector<ShardError> shard_errors;
};

/// The scatter-gather query coordinator over a partitioned corpus.
///
/// `Execute` fans one `QueryRequest` (any shape, any method — queries
/// carry no object ids, so the request forwards verbatim) to every
/// shard's backend, then merges the global-id answers back into exactly
/// what a single store holding the whole corpus would return:
///
///  * ids are deduplicated (ghost Merge-target copies answer on two
///    shards) and emitted in the canonical single-store order — binary
///    images ascending, then edited ascending. That is the flat scans'
///    order; the BWM family and `kPlanned` get the same set.
///  * work counters are summed, then compensated for ghost double
///    scanning (`Merge` in the .cc). For `kPlanned` they equal the
///    single store's, except `rules_applied`, which follows each shard's
///    own conjunct order.
///  * a similarity query runs with per-shard k inflated by the shard's
///    ghost count, and the single store's top-k rule (`TopKCandidates`)
///    is applied to the deduplicated candidates — bit-identical
///    intervals to the single store.
///
/// The failure envelope (docs/SHARDING.md):
///
///  * each shard's budget is `Deadline::Budget(request.deadline, 0.9)`:
///    the coordinator keeps the last tenth of the deadline, so it always
///    has time left to merge and answer.
///  * a shard that has not answered after its hedge delay (p99-priced)
///    gets a second, hedged attempt on its next replica; first answer
///    wins, the loser is abandoned (its late write is discarded).
///  * a shard that fails fast is retried immediately while attempts
///    remain; a shard whose breaker is open is skipped with
///    `Unavailable` without consuming its cooldown probe.
///  * whatever happens, `Execute` returns by the query deadline with
///    every surviving shard's full answer and `complete == false` plus
///    typed per-shard errors for the rest. It fails outright only when
///    *no* shard answered.
///
/// Thread-safe: any number of `Execute` calls may run concurrently
/// (dispatch runs on the coordinator's own executor; merge state is
/// per-call).
class Coordinator {
 public:
  /// `backends[shard][replica]`; every shard needs >= 1 replica.
  /// `catalog` must outlive the coordinator.
  Coordinator(std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends,
              const ShardCatalog* catalog, CoordinatorOptions options = {});

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  ~Coordinator();

  Result<ShardedResult> Execute(const QueryRequest& request);

  /// Probes every breaker-ejected shard whose cooldown has elapsed
  /// (backend `Probe`, not a real query) and records the outcome,
  /// closing the breaker on success. Call periodically (the serving
  /// loop does) or before a latency-sensitive burst.
  void ProbeEjected();

  ShardHealth& health() { return health_; }
  const ShardCatalog& catalog() const { return *catalog_; }
  size_t shard_count() const { return backends_.size(); }

  /// Cumulative fan-out counters (also mirrored into the metrics
  /// registry as mmdb_coord_*).
  struct Stats {
    int64_t queries = 0;
    int64_t partial_results = 0;
    int64_t hedges_launched = 0;
    int64_t hedge_wins = 0;
    int64_t shard_failures = 0;
    int64_t breaker_skips = 0;
  };
  Stats stats() const;

 private:
  struct Fanout;

  /// Builds shard `shard`'s copy of `request` (budgeted deadline,
  /// inflated similarity k).
  QueryRequest ShardRequest(const QueryRequest& request, size_t shard,
                            const Deadline& shard_deadline) const;
  void LaunchAttempt(const std::shared_ptr<Fanout>& fanout, size_t shard,
                     int attempt);
  Result<ShardedResult> Merge(const QueryRequest& request,
                              Fanout& fanout) const;

  std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends_;
  const ShardCatalog* catalog_;
  CoordinatorOptions options_;
  ShardHealth health_;
  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> partial_results_{0};
  std::atomic<int64_t> hedges_launched_{0};
  std::atomic<int64_t> hedge_wins_{0};
  std::atomic<int64_t> shard_failures_{0};
  std::atomic<int64_t> breaker_skips_{0};
  /// Last member: destroyed first, joining every in-flight attempt
  /// before the backends (which attempts reference) go away.
  Executor executor_;
};

}  // namespace mmdb::shard

#endif  // MMDB_SHARD_COORDINATOR_H_
