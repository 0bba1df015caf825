#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

size_t NearestRank(size_t n, double pct) {
  if (n == 0) return 0;
  const double exact = pct / 100.0 * static_cast<double>(n);
  // Guard against 0.99 * 1000 landing a hair above 990 in binary.
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double PercentileOfSorted(const std::vector<double>& sorted, double pct) {
  return sorted[NearestRank(sorted.size(), pct) - 1];
}

std::optional<double> TailPercentile(size_t n) {
  for (double pct : kTailLadder) {
    if (n - NearestRank(n, pct) >= kMinBeyond && n > 0) return pct;
  }
  return std::nullopt;
}

Summary Summarize(std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileOfSorted(samples, 50.0);
  if (auto pct = TailPercentile(s.n)) {
    s.tail_pct = *pct;
    s.tail = PercentileOfSorted(samples, *pct);
  } else {
    s.tail = samples.back();
  }
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : slots_(capacity, -1.0f), rng_(seed) {}

void Reservoir::Add(double value) {
  const uint64_t i = seen_++;
  if (i < slots_.size()) {
    slots_[i] = static_cast<float>(value);
    return;
  }
  // SplitMix64 step; keep the value with probability capacity / seen.
  uint64_t z = (rng_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const uint64_t j = z % seen_;
  if (j < slots_.size()) slots_[j] = static_cast<float>(value);
}

std::vector<double> Reservoir::Values() const {
  const size_t kept = std::min<uint64_t>(seen_, slots_.size());
  return std::vector<double>(slots_.begin(), slots_.begin() + kept);
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
           ch == '.' || ch == '-';
  });
}

}  // namespace perfbench
