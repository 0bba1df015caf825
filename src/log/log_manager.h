// LogManager: an append-only write-ahead log over one file.
//
// Used both for client private logs and for the server log. LSNs are byte
// addresses in the file (Section 2: "the LSN of a log record corresponds to
// the address of the log record in the private log file"), so they are
// monotonically increasing and records can be fetched by LSN in O(1).
//
// Appends are buffered in memory; Force() makes everything appended so far
// durable. A simulated crash simply reopens the file, dropping whatever was
// never forced -- exactly the volatility boundary the WAL protocol assumes.
//
// Bounded logs (capacity > 0) model the finite client log disk of Section
// 3.6: the logical space in use is end_lsn - reclaim_lsn, where reclaim_lsn
// is advanced by the client as its minimum DPT RedoLSN moves forward. An
// append that would overflow fails with kLogFull, which triggers the log
// space management protocol.

#ifndef FINELOG_LOG_LOG_MANAGER_H_
#define FINELOG_LOG_LOG_MANAGER_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "log/log_record.h"
#include "util/fault.h"

namespace finelog {

class LogSink;

// Fault-injection and durability wiring for one log instance. `name`
// prefixes the fail-points this log reports: "<name>.append", "<name>.force"
// and "<name>.header". `sink` is the durability seam (DESIGN.md section 17):
// null keeps the simulation's fflush-only volatility boundary; the
// real-clock mode passes a DurableSink so every Force() ends in fdatasync.
// `debug_trust_tail` is a deliberately broken recovery mode for harness
// self-tests: reopen trusts the whole file instead of CRC-scanning for the
// durable end, so an injected torn tail is replayed as if it were valid.
struct LogIoOptions {
  FaultInjector* injector = nullptr;
  LogSink* sink = nullptr;
  std::string name = "log";
  bool debug_trust_tail = false;
};

class FINELOG_SHARED_STATE_CLASS LogManager {
 public:
  static constexpr uint32_t kMagic = 0xF17E70Au;
  static constexpr size_t kFileHeaderSize = 32;
  static constexpr size_t kFrameHeaderSize = 8;  // u32 length + u32 crc.

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;
  ~LogManager();

  // Opens (or creates) the log at `path`. On open, scans forward from the
  // header validating checksums to locate the durable end of the log;
  // anything after the first invalid frame is discarded (torn tail).
  static Result<std::unique_ptr<LogManager>> Open(const std::string& path,
                                                  uint64_t capacity_bytes = 0,
                                                  const LogIoOptions& io = {});

  // Appends a record and returns its LSN. The record is durable only after
  // the next Force(). Fails with kLogFull on a bounded log that is out of
  // reclaimable space, unless `enforce_capacity` is false (checkpoint
  // records must always fit -- they are what unpins the log tail).
  Result<Lsn> Append(const LogRecord& record, bool enforce_capacity = true);

  // Makes all appended records durable.
  Status Force();

  // Reads a single record by LSN (durable or still buffered).
  Result<LogRecord> Read(Lsn lsn) const;

  // Calls `cb` for every record with LSN >= `from`, in LSN order, until the
  // end of the log. The record's `lsn` field is filled in. `cb` may return a
  // non-OK status to stop the scan (propagated to the caller).
  Status Scan(Lsn from, const std::function<Status(const LogRecord&)>& cb) const;

  // Like Scan, but calls `cb` only for the records that touch `pid`: an
  // Update or CLR on the page, or a Callback for an object on it (slot or
  // whole-page). First brings the per-page index up to end_lsn() with one
  // pass over the frames not yet indexed, then reads only the page's frames
  // at or after `from`.
  Status ScanPage(PageId pid, Lsn from,
                  const std::function<Status(const LogRecord&)>& cb);

  // LSN one past the last appended record (the next LSN to be assigned).
  Lsn end_lsn() const {
    SimMutexLock lock(mu_);
    return end_lsn_;
  }
  // LSN one past the last durable record.
  Lsn durable_lsn() const {
    SimMutexLock lock(mu_);
    return durable_end_;
  }
  // LSN of the first record.
  Lsn begin_lsn() const { return Lsn{kFileHeaderSize}; }

  // Checkpoint anchor, stored in the file header (the "master record").
  Status SetCheckpointLsn(Lsn lsn);
  Lsn checkpoint_lsn() const {
    SimMutexLock lock(mu_);
    return checkpoint_lsn_;
  }

  // Log space management (Section 3.6).
  void SetReclaimLsn(Lsn lsn);
  Lsn reclaim_lsn() const {
    SimMutexLock lock(mu_);
    return reclaim_lsn_;
  }
  uint64_t capacity() const { return capacity_; }
  uint64_t used_bytes() const {
    SimMutexLock lock(mu_);
    return end_lsn_ - reclaim_lsn_;
  }

  // Metrics.
  uint64_t bytes_appended() const {
    SimMutexLock lock(mu_);
    return bytes_appended_;
  }
  uint64_t force_count() const {
    SimMutexLock lock(mu_);
    return force_count_;
  }
  // Frames decoded by Read, Scan and ScanPage (the index catch-up included).
  uint64_t frames_read() const {
    SimMutexLock lock(mu_);
    return frames_read_;
  }
  // Unforced frame bytes currently buffered, and the largest that buffer has
  // ever grown (group commit lets it hold several transactions' records).
  uint64_t pending_bytes() const {
    SimMutexLock lock(mu_);
    return pending_.size();
  }
  uint64_t pending_high_water() const {
    SimMutexLock lock(mu_);
    return pending_high_water_;
  }

 private:
  LogManager(std::FILE* f, uint64_t capacity, const LogIoOptions& io)
      : file_(f), capacity_(capacity), io_(io) {}

  Status WriteHeader() FINELOG_REQUIRES(mu_);
  Status RecoverExisting() FINELOG_REQUIRES(mu_);
  // Read plus the frame's on-disk footprint, so Scan can advance without
  // re-encoding the record. `frame_size` may be null.
  Result<LogRecord> ReadFrame(Lsn lsn, uint64_t* frame_size) const
      FINELOG_REQUIRES(mu_);

  // One log = one appender; the real-clock mode serializes the owner's
  // appends and group-commit forces through this capability.
  mutable SimMutex mu_;
  std::FILE* file_ FINELOG_PT_GUARDED_BY(mu_);
  uint64_t capacity_ FINELOG_UNGUARDED("immutable after Open");
  LogIoOptions io_ FINELOG_UNGUARDED("immutable after Open");
  Lsn durable_end_ FINELOG_GUARDED_BY(mu_){kFileHeaderSize};
  Lsn end_lsn_ FINELOG_GUARDED_BY(mu_){kFileHeaderSize};
  Lsn checkpoint_lsn_ FINELOG_GUARDED_BY(mu_) = kNullLsn;
  Lsn reclaim_lsn_ FINELOG_GUARDED_BY(mu_){kFileHeaderSize};
  // Frames appended but not yet forced.
  std::string pending_ FINELOG_GUARDED_BY(mu_);
  // Reused per-append serialization scratch.
  std::string encode_buf_ FINELOG_GUARDED_BY(mu_);
  uint64_t pending_high_water_ FINELOG_GUARDED_BY(mu_) = 0;
  uint64_t bytes_appended_ FINELOG_GUARDED_BY(mu_) = 0;
  uint64_t force_count_ FINELOG_GUARDED_BY(mu_) = 0;
  mutable uint64_t frames_read_ FINELOG_GUARDED_BY(mu_) = 0;
  // ScanPage's index: for each page, the ascending LSNs of the records below
  // indexed_to_ that touch it. Append leaves it alone; ScanPage catches it
  // up. LSNs are never reused within one LogManager, and a crash reopens the
  // log as a new LogManager, so the index never needs invalidating.
  std::unordered_map<PageId, std::vector<Lsn>> page_index_
      FINELOG_GUARDED_BY(mu_);
  Lsn indexed_to_ FINELOG_GUARDED_BY(mu_){kFileHeaderSize};
};

}  // namespace finelog

#endif  // FINELOG_LOG_LOG_MANAGER_H_
