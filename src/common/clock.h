// Clock: the time source driving cost accounting, RPC timeouts and leases.
//
// Two implementations back the interface (DESIGN.md section 17):
//
//  - SimClock (ExecMode::kSimulated, the default): finelog runs clients and
//    the server in one process; elapsed "time" is the sum of modelled costs
//    (network latency, disk I/O, log forces) charged to the clock by the
//    component that incurs them via Advance(). The paper's algorithms do
//    not require synchronized client clocks, so the core
//    commit/locking/recovery protocols never read it. Two opt-in
//    subsystems do: the RPC retry layer (timeouts and backoff, DESIGN.md
//    section 13) and the lease-based liveness machinery (heartbeat
//    intervals and lease deadlines, section 14).
//
//  - RealClock (ExecMode::kRealClock): a monotonic wall clock. Advance()
//    is a no-op -- modelled costs cost nothing extra because the real work
//    (thread scheduling, fdatasync, queue hops) is what takes the time.
//    Leases and RPC timeouts read real elapsed microseconds.
//
// Reads are safe from any thread: SimClock is only advanced while the
// simulation is single-threaded, and RealClock derives its value from
// std::chrono::steady_clock.

#ifndef FINELOG_COMMON_CLOCK_H_
#define FINELOG_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace finelog {

class Clock {
 public:
  Clock() = default;
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;
  virtual ~Clock() = default;

  // Microseconds since this clock's epoch (its construction).
  virtual uint64_t now_us() const = 0;
  // Charges `us` of modelled cost. Moves simulated time; free on a real
  // clock, where elapsed time is observed rather than modelled.
  virtual void Advance(uint64_t us) = 0;
};

class SimClock final : public Clock {
 public:
  SimClock() = default;

  uint64_t now_us() const override { return now_us_; }
  void Advance(uint64_t us) override { now_us_ += us; }

 private:
  uint64_t now_us_ = 0;
};

class RealClock final : public Clock {
 public:
  RealClock() : epoch_(std::chrono::steady_clock::now()) {}

  uint64_t now_us() const override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }
  void Advance(uint64_t /*us*/) override {}

 private:
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace finelog

#endif  // FINELOG_COMMON_CLOCK_H_
