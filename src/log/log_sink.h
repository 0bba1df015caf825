// LogSink: the durability seam behind every force point (DESIGN.md
// section 17).
//
// LogManager::Force(), header writes and DiskManager's page/journal writes
// end with "make these bytes durable". What that means depends on the
// execution mode:
//
//  - BufferedSink (ExecMode::kSimulated default): fflush() only -- bytes
//    leave the stdio buffer and reach the OS page cache. Durability is
//    *modelled* (the simulated crash boundary is process state, not the
//    kernel), and the cost model charges log_force_us of simulated time.
//
//  - DurableSink (ExecMode::kRealClock default): fflush() + fdatasync() --
//    the force blocks until the kernel reports the bytes on stable storage,
//    so wall-clock commit latency includes the real fsync, which is the
//    honest number E15 measures. The sink counts syncs with a relaxed
//    atomic (fsyncs/sec is a benchmark output).
//
// Sinks are stateless apart from the counter and shared by every log and
// disk instance of a System; Sync() may be called from any client thread
// concurrently (fdatasync on distinct files is naturally
// parallel; two Syncs on the same file are serialized by the owning
// component's capability).

#ifndef FINELOG_LOG_LOG_SINK_H_
#define FINELOG_LOG_LOG_SINK_H_

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "common/status.h"

namespace finelog {

class LogSink {
 public:
  LogSink() = default;
  LogSink(const LogSink&) = delete;
  LogSink& operator=(const LogSink&) = delete;
  virtual ~LogSink() = default;

  // Makes everything written to `file` durable to this sink's standard.
  // `site` names the caller for error messages ("client0.log", ...).
  virtual Status Sync(std::FILE* file, const std::string& site) = 0;

  // Number of real device syncs performed (0 for buffered sinks).
  virtual uint64_t sync_count() const { return 0; }
};

// The simulation's volatility boundary: flush stdio buffering only.
class BufferedSink final : public LogSink {
 public:
  Status Sync(std::FILE* file, const std::string& site) override {
    if (std::fflush(file) != 0) {
      return Status::IoError("fflush failed: " + site);
    }
    return Status::OK();
  }
};

// Real durability: flush stdio buffering, then fdatasync the descriptor.
class DurableSink final : public LogSink {
 public:
  Status Sync(std::FILE* file, const std::string& site) override {
    if (std::fflush(file) != 0) {
      return Status::IoError("fflush failed: " + site);
    }
    if (fdatasync(fileno(file)) != 0) {
      return Status::IoError("fdatasync failed: " + site);
    }
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  uint64_t sync_count() const override {
    return syncs_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace finelog

#endif  // FINELOG_LOG_LOG_SINK_H_
