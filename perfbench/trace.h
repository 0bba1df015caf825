// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into the library
// (the Client and System calls of the timed phases, generator steps)
// and by the timing sink around every LogSink::Sync. Each span has a kind,
// start and end (steady clock, ns), the span that encloses it on the same
// thread, the thread, and a transaction id (inherited from the enclosing
// span when the caller has none). Recording is off unless SetEnabled(true);
// a disabled ScopedSpan costs one relaxed load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kClientBegin,
  kClientRead,
  kClientWrite,
  kClientCommit,
  kClientAbort,
  kGeneratorStep,  // A WorkloadGen step that completed no client call.
  kSystemRecoverServer,
  kSystemDrainRecovery,
  kSystemCrashClient,
  kSystemRecoverClient,
  kSyncClientLog,
  kSyncServerLog,
  kSyncServerDisk,
  kCount,
};

inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

std::string_view SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kCount;
  uint32_t thread = 0;
  int32_t parent = -1;  // Index into the same thread's spans; -1 = root.
  uint64_t txn = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

int64_t NowNs();

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();

  // Opens a span on the calling thread and returns its index, or -1 while
  // recording is off.
  static int32_t Open(SpanKind kind, uint64_t txn);
  static void Close(int32_t index);
  static void Rename(int32_t index, SpanKind kind);

  // Hands over every recorded span, one vector per thread, and clears the
  // buffers. Call only while no thread is recording.
  static std::vector<std::vector<Span>> Drain();
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t txn = 0)
      : index_(Tracer::Open(kind, txn)) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(SpanKind kind) {
    if (index_ >= 0) Tracer::Rename(index_, kind);
  }

 private:
  int32_t index_;
};

// Self time of every span of one thread: its duration minus the durations
// of its children. Spans on one thread nest strictly (they are scoped), so
// the children never overlap each other or stick out of their parent.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
