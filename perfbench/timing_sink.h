// TimingSink: the benchmark's LogSink, passed in SystemConfig::log_sink.
//
// It forwards every Sync to a BufferedSink (fflush: the bytes reach the
// operating system, the crash boundary the library's crash injection
// models) and times each call per site: the client private logs
// ("client<N>.log.*"), the server log ("server.log.*") and the server's
// page store ("server.disk.*"). It does not fdatasync, also in real-clock
// mode: on the shared disk this benchmark was sized on, fdatasync latency
// drifted twofold between runs, which no regression bound survives (see
// README.md). With tracing on, each Sync is also a span, nested under
// whatever benchmark span is open on the calling thread.

#ifndef PERFBENCH_TIMING_SINK_H_
#define PERFBENCH_TIMING_SINK_H_

#include <array>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "log/log_sink.h"
#include "trace.h"

namespace perfbench {

enum class SyncSite : uint8_t { kClientLog, kServerLog, kServerDisk, kCount };

inline constexpr size_t kSyncSites = static_cast<size_t>(SyncSite::kCount);

inline SyncSite ClassifySite(std::string_view site) {
  if (site.starts_with("server.log")) return SyncSite::kServerLog;
  if (site.starts_with("server.disk")) return SyncSite::kServerDisk;
  return SyncSite::kClientLog;
}

class TimingSink final : public finelog::LogSink {
 public:
  // Per-call durations are kept only with `keep_samples` (traced runs), so
  // an untraced run's memory does not grow with its sync count.
  explicit TimingSink(bool keep_samples) : keep_samples_(keep_samples) {}

  finelog::Status Sync(std::FILE* file, const std::string& site) override {
    const SyncSite s = ClassifySite(site);
    static constexpr SpanKind kKinds[kSyncSites] = {
        SpanKind::kSyncClientLog, SpanKind::kSyncServerLog,
        SpanKind::kSyncServerDisk};
    ScopedSpan span(kKinds[static_cast<size_t>(s)]);
    const int64_t t0 = keep_samples_ ? NowNs() : 0;
    finelog::Status st = inner_.Sync(file, site);
    if (!keep_samples_) return st;
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    Site& slot = sites_[static_cast<size_t>(s)];
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.us.push_back(us);
    return st;
  }

  // Durations in microseconds of every Sync at `site` since the last call,
  // in no particular order.
  std::vector<double> TakeSamples(SyncSite site) {
    Site& slot = sites_[static_cast<size_t>(site)];
    std::lock_guard<std::mutex> lock(slot.mu);
    return std::exchange(slot.us, {});
  }

 private:
  struct Site {
    std::mutex mu;
    std::vector<double> us;
  };

  const bool keep_samples_;
  finelog::BufferedSink inner_;
  std::array<Site, kSyncSites> sites_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_SINK_H_
