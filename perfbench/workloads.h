// The three benchmark workloads and what each run collects.
//
// A run repeats rounds until --seconds of timed work have been measured.
// Every round builds a fresh System in its own directory (that build is the
// round's set-up sample, timed in CPU and in wall time), runs the timed
// phase, checks the outputs, and folds its counters into the run's
// Collector. With tracing on, rounds
// alternate between untraced and traced so one run reports both the layer
// split and what the tracing costs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "timing_sink.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // Scratch space for the rounds' database files.
};

// Everything a run measures, summed over its rounds.
struct Collector {
  bool correct = true;
  uint64_t attempted = 0;  // Timed units attempted (txns, ops or restarts).
  uint64_t failed = 0;     // Units that hit a hard error.
  std::vector<std::string> errors;

  std::vector<double> setup_s;       // CPU time, one per round.
  std::vector<double> setup_wall_s;  // Wall time, one per round.
  // Unit latencies in microseconds, split by whether the round was traced.
  static constexpr size_t kUnitSamples = size_t{1} << 18;
  Reservoir unit_us{kUnitSamples, 1};
  Reservoir unit_us_traced{kUnitSamples, 2};
  double timed_s = 0;  // Wall time of the untraced timed phases.
  double timed_s_traced = 0;
  uint64_t rounds = 0;

  // Transactions. txn_commits is the per-txn denominator of the layer
  // ratios; for restart_recovery it counts the load's transactions.
  uint64_t txns_untraced = 0;  // Committed in untraced timed phases.
  uint64_t txn_commits = 0;
  uint64_t txn_attempts = 0;
  uint64_t would_blocks = 0;

  // Library counters (Metrics), summed over timed phases.
  std::map<std::string, uint64_t> counters;
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  uint64_t frames_executed = 0;
  uint64_t frames_abandoned = 0;

  // Sync durations per site over timed phases, microseconds.
  std::array<std::vector<double>, kSyncSites> sync_us;
  double sync_total_us = 0;
  double unit_total_us = 0;  // Sum of timed unit latencies (sync share base).

  // Client-log bytes written by the measured transactions, and the
  // after-run LogManager::Scan throughput inputs.
  uint64_t log_bytes = 0;
  uint64_t scan_bytes = 0;
  double scan_s = 0;

  // Spans of the traced rounds, folded per kind.
  std::array<std::vector<double>, kSpanKinds> span_us;
  std::array<std::vector<double>, kSpanKinds> span_self_us;
  uint64_t spans = 0;
  uint64_t traced_txns = 0;

  // restart_recovery step timings, one per cycle.
  std::vector<double> restart_call_ms;
  std::vector<double> admit_ms;
  std::vector<double> drain_call_s;
  std::vector<double> full_s;
  std::vector<double> client_restart_s;

  void Fail(const std::string& what);
  void FoldSpans(const std::vector<std::vector<Span>>& threads);
};

void RunLocalCommit(const RunOptions& opts, Collector* out);
void RunContendedMerge(const RunOptions& opts, Collector* out);
void RunRestartRecovery(const RunOptions& opts, Collector* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
