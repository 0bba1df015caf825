// Sample statistics and metric-name rules shared by every workload.
//
// Timings are reported as a median plus the highest percentile of
// kTailLadder that still has at least kMinBeyond samples above it
// (nearest-rank definition), so a tail figure is never read off a handful
// of outliers. The ladder stops at p90: on the shared 4-vCPU host the
// benchmark was sized on, p99 mostly measured preemption by neighbours and
// moved by more than 40% between runs of the same code.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

// Samples that must lie strictly above a reported percentile.
inline constexpr size_t kMinBeyond = 10;

// Percentiles a tail may be reported at, highest first.
inline constexpr double kTailLadder[] = {90.0, 75.0, 50.0};

// 1-based nearest rank of percentile `pct` (0 < pct <= 100) among n samples.
size_t NearestRank(size_t n, double pct);

// Value at percentile `pct` of an ascending-sorted, non-empty sample.
double PercentileOfSorted(const std::vector<double>& sorted, double pct);

// The highest ladder percentile that leaves at least kMinBeyond samples
// above it, or nullopt when even the median does not (n < 20).
std::optional<double> TailPercentile(size_t n);

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;      // Value at tail_pct.
  double tail_pct = 0;  // 0 when n is too small for any ladder percentile.
};

// Sorts `samples` in place and summarizes it. With too few samples for the
// rule, tail falls back to the maximum and tail_pct stays 0.
Summary Summarize(std::vector<double>& samples);

double Median(std::vector<double> values);

// A uniform random sample of at most `capacity` values from a stream of any
// length (Vitter's Algorithm R, seeded so a run repeats). The storage is
// allocated and touched up front, so the process's peak memory does not
// grow with how many values a faster system produces in a timed run.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity, uint64_t seed = 1);

  void Add(double value);
  // Values offered so far, kept or not.
  uint64_t seen() const { return seen_; }
  // The kept values, in no particular order.
  std::vector<double> Values() const;

 private:
  std::vector<float> slots_;
  uint64_t seen_ = 0;
  uint64_t rng_;
};

// Metric names follow the grammar [A-Za-z0-9_.-]+, start with a letter or a
// digit and are at most 64 characters long.
bool ValidMetricName(std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
