#include "trace.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;  // Indices of the open spans, innermost last.
};

std::atomic<bool> g_enabled{false};

// Buffers outlive their threads (a System's reactor thread ends before the
// spans are drained), so the registry owns them.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->thread = static_cast<uint32_t>(g_registry.size() - 1);
  }
  return *buffer;
}

}  // namespace

std::string_view SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientBegin: return "client.Begin";
    case SpanKind::kClientRead: return "client.Read";
    case SpanKind::kClientWrite: return "client.Write";
    case SpanKind::kClientCommit: return "client.Commit";
    case SpanKind::kClientAbort: return "client.Abort";
    case SpanKind::kGeneratorStep: return "core.GeneratorStep";
    case SpanKind::kSystemRecoverServer: return "system.RecoverServer";
    case SpanKind::kSystemDrainRecovery: return "system.DrainRecovery";
    case SpanKind::kSystemCrashClient: return "system.CrashClient";
    case SpanKind::kSystemRecoverClient: return "system.RecoverClient";
    case SpanKind::kSyncClientLog: return "sink.Sync.client_log";
    case SpanKind::kSyncServerLog: return "sink.Sync.server_log";
    case SpanKind::kSyncServerDisk: return "sink.Sync.server_disk";
    case SpanKind::kCount: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int32_t Tracer::Open(SpanKind kind, uint64_t txn) {
  if (!enabled()) return -1;
  ThreadBuffer& b = LocalBuffer();
  Span s;
  s.kind = kind;
  s.thread = b.thread;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.txn = (txn == 0 && s.parent >= 0) ? b.spans[s.parent].txn : txn;
  const auto index = static_cast<int32_t>(b.spans.size());
  b.open.push_back(index);
  s.start_ns = NowNs();
  b.spans.push_back(s);
  return index;
}

void Tracer::Close(int32_t index) {
  ThreadBuffer& b = LocalBuffer();
  b.spans[index].end_ns = NowNs();
  b.open.pop_back();  // Scoped spans close innermost first.
}

void Tracer::Rename(int32_t index, SpanKind kind) {
  LocalBuffer().spans[index].kind = kind;
}

std::vector<std::vector<Span>> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<std::vector<Span>> out;
  for (auto& b : g_registry) {
    if (!b->spans.empty()) out.push_back(std::move(b->spans));
    b->spans.clear();
    b->open.clear();
  }
  return out;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent >= 0) {
      self[spans[i].parent] -= spans[i].end_ns - spans[i].start_ns;
    }
  }
  return self;
}

}  // namespace perfbench
