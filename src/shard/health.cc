#include "shard/health.h"

#include <algorithm>
#include <cmath>

namespace mmdb::shard {

ShardHealth::ShardHealth(size_t shards, ShardHealthOptions options)
    : options_(options) {
  slots_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

bool ShardHealth::AllowDispatch(size_t shard) {
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  switch (slot.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen: {
      const auto cooled =
          slot.opened_at + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   options_.cooldown_seconds));
      if (std::chrono::steady_clock::now() < cooled) return false;
      slot.state = BreakerState::kHalfOpen;
      slot.probe_in_flight = true;
      return true;
    }
    case BreakerState::kHalfOpen:
      if (slot.probe_in_flight) return false;
      slot.probe_in_flight = true;
      return true;
  }
  return false;
}

void ShardHealth::RecordSuccess(size_t shard, double seconds) {
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.state = BreakerState::kClosed;
  slot.consecutive_failures = 0;
  slot.probe_in_flight = false;
  slot.latencies[slot.next] = seconds;
  slot.next = (slot.next + 1) % slot.latencies.size();
  slot.filled = std::min(slot.filled + 1, slot.latencies.size());
}

void ShardHealth::RecordFailure(size_t shard) {
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.state == BreakerState::kHalfOpen) {
    // The trial failed: straight back to ejected, restart the cooldown.
    slot.state = BreakerState::kOpen;
    slot.opened_at = std::chrono::steady_clock::now();
    slot.probe_in_flight = false;
    return;
  }
  ++slot.consecutive_failures;
  if (slot.state == BreakerState::kClosed &&
      slot.consecutive_failures >= options_.failure_threshold) {
    slot.state = BreakerState::kOpen;
    slot.opened_at = std::chrono::steady_clock::now();
  }
}

BreakerState ShardHealth::StateOf(size_t shard) const {
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.state;
}

std::vector<uint8_t> ShardHealth::WireStates() const {
  std::vector<uint8_t> states;
  states.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    net::ShardWireState wire = net::ShardWireState::kServing;
    switch (StateOf(i)) {
      case BreakerState::kClosed:
        wire = net::ShardWireState::kServing;
        break;
      case BreakerState::kOpen:
        wire = net::ShardWireState::kEjected;
        break;
      case BreakerState::kHalfOpen:
        wire = net::ShardWireState::kProbing;
        break;
    }
    states.push_back(static_cast<uint8_t>(wire));
  }
  return states;
}

double ShardHealth::HedgeDelaySeconds(size_t shard) const {
  Slot& slot = *slots_[shard];
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.filled == 0) return kDefaultHedgeDelaySeconds;
    window.assign(slot.latencies.begin(),
                  slot.latencies.begin() +
                      static_cast<ptrdiff_t>(slot.filled));
  }
  // Nearest-rank p99 over the window.
  const size_t rank = std::min(
      window.size() - 1,
      static_cast<size_t>(std::ceil(0.99 * static_cast<double>(window.size()))) -
          1);
  std::nth_element(window.begin(),
                   window.begin() + static_cast<ptrdiff_t>(rank),
                   window.end());
  return window[rank];
}

}  // namespace mmdb::shard
