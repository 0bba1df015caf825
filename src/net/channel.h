// Channel: the accounted network between clients and the server.
//
// Every logical network hop is recorded with Count(): one message of a given
// type, a payload size, and the sender. The channel charges the clock with
// the cost model's latency plus per-KB transfer time (a no-op charge under
// the real clock, where the calls themselves take real time instead).
// Benchmarks read the per-type counters to produce the message-complexity
// tables.
//
// Counters are relaxed atomics: in the real-clock mode every client thread
// counts concurrently, and nothing orders against a counter -- they are
// pure statistics.

#ifndef FINELOG_NET_CHANNEL_H_
#define FINELOG_NET_CHANNEL_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "common/clock.h"
#include "common/cost_model.h"
#include "common/types.h"
#include "net/message.h"

namespace finelog {

class Channel {
 public:
  struct TypeStats {
    std::atomic<uint64_t> count{0};  // Messages on the wire (a batch is one).
    std::atomic<uint64_t> items{0};  // Logical items carried (>= count).
    std::atomic<uint64_t> bytes{0};
  };

  Channel(Clock* clock, const CostModel& costs)
      : clock_(clock), costs_(costs) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Records one network hop of `type` carrying `payload_bytes`.
  void Count(MessageType type, uint64_t payload_bytes) {
    CountBatch(type, 1, payload_bytes);
  }

  // Records one network hop carrying `items` logical requests/replies in a
  // single message: the per-message overhead (message count, latency) is
  // charged once, the payload bytes are charged in full. This is the entire
  // economic model of batching -- N items for one message-overhead charge.
  void CountBatch(MessageType type, uint64_t items, uint64_t payload_bytes) {
    auto& s = stats_[static_cast<size_t>(type)];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.items.fetch_add(items, std::memory_order_relaxed);
    s.bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
    total_messages_.fetch_add(1, std::memory_order_relaxed);
    total_items_.fetch_add(items, std::memory_order_relaxed);
    total_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    // Ceiling division: a sub-KB payload still pays for the fraction of a
    // KB it occupies on the wire instead of rounding down to free.
    clock_->Advance(costs_.msg_latency_us +
                    (payload_bytes * costs_.per_kb_us + 1023) / 1024);
  }

  const TypeStats& stats(MessageType type) const {
    return stats_[static_cast<size_t>(type)];
  }
  uint64_t total_messages() const {
    return total_messages_.load(std::memory_order_relaxed);
  }
  uint64_t total_items() const {
    return total_items_.load(std::memory_order_relaxed);
  }
  uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  void ResetStats() {
    for (auto& s : stats_) {
      s.count.store(0, std::memory_order_relaxed);
      s.items.store(0, std::memory_order_relaxed);
      s.bytes.store(0, std::memory_order_relaxed);
    }
    total_messages_.store(0, std::memory_order_relaxed);
    total_items_.store(0, std::memory_order_relaxed);
    total_bytes_.store(0, std::memory_order_relaxed);
  }

  Clock* clock() { return clock_; }
  const CostModel& costs() const { return costs_; }

 private:
  Clock* clock_;
  CostModel costs_;
  std::array<TypeStats, static_cast<size_t>(MessageType::kMaxMessageType)>
      stats_{};
  std::atomic<uint64_t> total_messages_{0};
  std::atomic<uint64_t> total_items_{0};
  std::atomic<uint64_t> total_bytes_{0};
};

}  // namespace finelog

#endif  // FINELOG_NET_CHANNEL_H_
