// FaultInjector: deterministic fail-point registry for durability-critical
// I/O sites.
//
// Every write-path site (log force, log append, page write, journal write,
// header write, sync) names itself with a stable fail-point string
// ("client0.log.force", "server.disk.page", ...) and asks the injector what
// to do before touching the file. The injector counts every hit; when armed,
// it fires exactly once -- at the Nth hit of one point, or at the Kth hit
// across all points (the sweep mode) -- and tells the site to either fail
// cleanly (EIO, no bytes written) or tear the write (a deterministic prefix
// of the payload reaches the file, then the site reports an error).
//
// Hit counting is deterministic: the same seeded workload against a fresh
// directory produces the same hit sequence, so a crash point is fully
// reproducible from its (seed, hit_index) pair. An unarmed injector is a
// pure counter ("counting probe"): run the workload once to enumerate the M
// fail-point hits, then sweep k over 1..M re-running the workload and
// crashing at hit k.
//
// The injector is wired through SystemConfig::fault_injector; when null,
// every site runs at full speed with no counting.

#ifndef FINELOG_UTIL_FAULT_H_
#define FINELOG_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace finelog {

// What an armed fail-point does to the write it intercepts.
enum class FaultAction {
  kNone,        // Proceed normally.
  kError,       // Fail before any byte is written (EIO).
  kTornWrite,   // A prefix of the payload reaches the disk; then EIO.
  kShortWrite,  // Same durable outcome as a torn write, reported as a
                // short write by the I/O layer rather than a device error.
};

std::string_view FaultActionName(FaultAction action);

class FaultInjector {
 public:
  // What the intercepted site must do. For kTornWrite/kShortWrite, `cut` is
  // the number of payload bytes to write before failing (0 <= cut < size).
  struct Outcome {
    FaultAction action = FaultAction::kNone;
    size_t cut = 0;
  };

  // Identity of the single fault an injector has fired, for reproduction
  // and reporting.
  struct Fired {
    std::string point;     // Fail-point name.
    uint64_t global_hit;   // 1-based hit index across all points.
    uint64_t point_hit;    // 1-based hit index of this point.
    FaultAction action;
    size_t cut;
  };

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Mirrors every hit into `metrics` as "fault.<point>" counters (and the
  // fired fault as "fault.injected"). May be re-pointed when a fresh System
  // is built around the same injector.
  void AttachMetrics(Metrics* metrics) { metrics_ = metrics; }

  // Arms a one-shot fault at the `nth` future hit (1 = the next hit) of
  // `point`. `cut_fraction` picks the tear position for torn/short writes as
  // a fraction of the payload size.
  void ArmPoint(const std::string& point, uint64_t nth, FaultAction action,
                double cut_fraction = 0.5);

  // Sweep mode: arms a one-shot fault at the `nth` future hit counted across
  // every point, whichever point that turns out to be.
  void ArmGlobalHit(uint64_t nth, FaultAction action,
                    double cut_fraction = 0.5);

  void Disarm();

  // Records the point name of every hit (in order) for choosing sweep
  // targets; off by default to keep long runs cheap.
  void EnableTrace(bool on) { trace_enabled_ = on; }
  const std::vector<std::string>& trace() const { return trace_; }

  // Site interface -----------------------------------------------------------

  // Called by an I/O site about to write `size` payload bytes. Counts the
  // hit and returns the action to take. Sites that cannot tolerate a torn
  // payload (single-sector headers, journal invalidation) pass
  // `allow_torn = false`; a torn/short arm then degrades to a clean kError.
  Outcome Evaluate(const std::string& point, size_t size,
                   bool allow_torn = true);

  // Introspection ------------------------------------------------------------

  uint64_t total_hits() const {
    return total_hits_.load(std::memory_order_relaxed);
  }
  uint64_t hits(const std::string& point) const;
  // Harness-side view; callers read it only after concurrent I/O quiesces.
  const std::map<std::string, uint64_t>& hit_counts() const { return hits_; }

  bool triggered() const { return fired_.has_value(); }
  const std::optional<Fired>& fired() const { return fired_; }

  // Clears counters, the trace and the fired record; keeps the armed fault
  // (if any) and the metrics attachment.
  void ResetCounts();

 private:
  struct Armed {
    std::string point;  // Empty = global (sweep) arm.
    uint64_t at_hit = 0;
    FaultAction action = FaultAction::kNone;
    double cut_fraction = 0.5;
  };

  Metrics* metrics_ = nullptr;
  // Serializes Evaluate against itself: real-clock runs hit fail points
  // from every client thread. The hit total additionally
  // stays an atomic so the lock-free accessor above can't tear.
  mutable std::mutex mu_;
  std::optional<Armed> armed_;
  std::optional<Fired> fired_;
  std::atomic<uint64_t> total_hits_{0};
  std::map<std::string, uint64_t> hits_;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
};

}  // namespace finelog

#endif  // FINELOG_UTIL_FAULT_H_
