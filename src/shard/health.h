#ifndef MMDB_SHARD_HEALTH_H_
#define MMDB_SHARD_HEALTH_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/protocol.h"

namespace mmdb::shard {

/// Knobs for per-shard failure tracking.
struct ShardHealthOptions {
  /// Consecutive failures that open a shard's breaker (ejecting it from
  /// fan-out). Successes reset the count, so a flapping shard needs a
  /// streak to get ejected and one good probe to come back.
  int failure_threshold = 3;
  /// How long an open breaker blocks dispatch before admitting a single
  /// half-open trial request.
  double cooldown_seconds = 0.25;
};

/// Breaker state of one shard, mirroring the PR-4 `CircuitBreaker`
/// vocabulary at shard granularity.
enum class BreakerState : uint8_t {
  kClosed = 0,    ///< Healthy: dispatch freely.
  kOpen = 1,      ///< Ejected: skip until the cooldown elapses.
  kHalfOpen = 2,  ///< One trial request in flight; its outcome decides.
};

/// Per-shard health: a consecutive-failure circuit breaker plus a
/// sliding window of request latencies that prices the hedged-retry
/// delay. One instance is shared by every fan-out the `Coordinator`
/// runs; all methods are thread-safe (one mutex per shard — recording
/// an outcome on shard 3 never contends with dispatch checks on
/// shard 0).
class ShardHealth {
 public:
  explicit ShardHealth(size_t shards, ShardHealthOptions options = {});

  ShardHealth(const ShardHealth&) = delete;
  ShardHealth& operator=(const ShardHealth&) = delete;

  size_t shard_count() const { return slots_.size(); }

  /// True when `shard` may receive a request right now. A closed
  /// breaker always admits; an open one admits nothing until the
  /// cooldown elapses, then flips to half-open and admits exactly one
  /// trial (further callers are refused until that trial's outcome is
  /// recorded).
  bool AllowDispatch(size_t shard);

  /// Records a completed request: closes the breaker, clears the
  /// failure streak, and feeds `seconds` into the latency window.
  void RecordSuccess(size_t shard, double seconds);

  /// Records a failed request: extends the failure streak (opening the
  /// breaker at the threshold) or, for a half-open trial, re-opens
  /// immediately.
  void RecordFailure(size_t shard);

  BreakerState StateOf(size_t shard) const;

  /// The wire rendering of every shard's state, by shard index — what
  /// a sharded server's kHealthResponse carries.
  std::vector<uint8_t> WireStates() const;

  /// How long the coordinator waits on `shard`'s primary before
  /// launching a hedge: the p99 of the shard's recorded latencies, or
  /// `kDefaultHedgeDelaySeconds` while the window is empty.
  double HedgeDelaySeconds(size_t shard) const;

 private:
  /// Completed-request latencies remembered per shard for the p99
  /// estimate behind the hedge delay.
  static constexpr size_t kLatencyWindow = 128;
  /// Hedge delay used while a shard has no latency history yet.
  static constexpr double kDefaultHedgeDelaySeconds = 0.05;

  struct Slot {
    mutable std::mutex mu;
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point opened_at{};
    bool probe_in_flight = false;
    /// Fixed-size latency ring.
    std::array<double, kLatencyWindow> latencies{};
    size_t next = 0;
    size_t filled = 0;
  };

  ShardHealthOptions options_;
  /// unique_ptr because Slot (mutex) is immovable.
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace mmdb::shard

#endif  // MMDB_SHARD_HEALTH_H_
