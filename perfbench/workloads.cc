#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/oracle.h"
#include "core/system.h"
#include "core/workload_gen.h"
#include "util/metrics.h"

namespace perfbench {

using finelog::Client;
using finelog::Counter;
using finelog::ObjectId;
using finelog::PageId;
using finelog::Rng;
using finelog::SlotId;
using finelog::Status;
using finelog::System;
using finelog::SystemConfig;
using finelog::TxnId;

void Collector::Fail(const std::string& what) {
  correct = false;
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

void Collector::FoldSpans(const std::vector<std::vector<Span>>& threads) {
  for (const std::vector<Span>& thread : threads) {
    const std::vector<int64_t> self = SelfTimes(thread);
    for (size_t i = 0; i < thread.size(); ++i) {
      const auto k = static_cast<size_t>(thread[i].kind);
      if (k >= kSpanKinds) continue;
      span_us[k].push_back(
          static_cast<double>(thread[i].end_ns - thread[i].start_ns) / 1e3);
      span_self_us[k].push_back(static_cast<double>(self[i]) / 1e3);
    }
    spans += thread.size();
  }
}

namespace {

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

// CPU time of the whole process, every thread included (the reactor's too).
int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// Times one round's set-up. setup_s is its CPU time: the library persists
// the space map by writing a temporary file and renaming it over the old
// one for every page it allocates, and on ext4 each such rename starts a
// write-out, so the set-up's wall time follows the disk queue (see
// README.md). The wall time is kept too, for the per-layer metrics.
class SetupTimer {
 public:
  SetupTimer() : wall0_(NowNs()), cpu0_(CpuNs()) {}
  void Record(Collector* out) const {
    out->setup_s.push_back(static_cast<double>(CpuNs() - cpu0_) / 1e9);
    out->setup_wall_s.push_back(Seconds(wall0_, NowNs()));
  }

 private:
  const int64_t wall0_;
  const int64_t cpu0_;
};

uint64_t RoundSeed(uint64_t seed, uint64_t round) {
  return seed * 0x9E3779B97F4A7C15ull + (round + 1) * 0xBF58476D1CE4E5B9ull;
}

// A fresh, empty directory for one round's database and logs.
std::string RoundDir(const RunOptions& opts, uint64_t round) {
  std::string dir = opts.work_dir + "/" + opts.workload + "_r" +
                    std::to_string(round);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Library counters at one instant, for deltas over a timed phase.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t frames = 0;

  static Snapshot Take(System& sys) {
    Snapshot s;
    s.counters = sys.metrics().Snapshot();
    s.messages = sys.channel().total_messages();
    s.bytes = sys.channel().total_bytes();
    if (sys.transport() != nullptr) {
      s.frames = sys.transport()->frames_executed();
    }
    return s;
  }
};

void AddDelta(const Snapshot& before, const Snapshot& after, Collector* out) {
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value > base) out->counters[name] += value - base;
  }
  out->net_messages += after.messages - before.messages;
  out->net_bytes += after.bytes - before.bytes;
  out->frames_executed += after.frames - before.frames;
}

void TakeSyncSamples(TimingSink& sink, Collector* out) {
  for (size_t s = 0; s < kSyncSites; ++s) {
    std::vector<double> us = sink.TakeSamples(static_cast<SyncSite>(s));
    for (double v : us) out->sync_total_us += v;
    out->sync_us[s].insert(out->sync_us[s].end(), us.begin(), us.end());
  }
}

void DiscardSyncSamples(TimingSink& sink) {
  for (size_t s = 0; s < kSyncSites; ++s) {
    sink.TakeSamples(static_cast<SyncSite>(s));
  }
}

uint64_t ClientLogBytes(System& sys) {
  uint64_t total = 0;
  for (size_t i = 0; i < sys.num_clients(); ++i) {
    total += sys.client(i).log().bytes_appended();
  }
  return total;
}

// Reads every client's private log end to end through LogManager::Scan
// (frame decode plus CRC check), timing the scan.
void ScanClientLogs(System& sys, Collector* out) {
  for (size_t i = 0; i < sys.num_clients(); ++i) {
    finelog::LogManager& log = sys.client(i).log();
    const int64_t t0 = NowNs();
    Status st = log.Scan(log.begin_lsn(), [](const finelog::LogRecord&) {
      return Status::OK();
    });
    out->scan_s += Seconds(t0, NowNs());
    if (!st.ok()) {
      out->Fail("scan client" + std::to_string(i) + " log: " + st.ToString());
      return;
    }
    out->scan_bytes += log.end_lsn() - log.begin_lsn();
  }
}

std::unique_ptr<System> Create(const SystemConfig& config, Collector* out) {
  auto sys = System::Create(config);
  if (!sys.ok()) {
    out->Fail("System::Create: " + sys.status().ToString());
    return nullptr;
  }
  return std::move(sys).value();
}

bool Ok(const Status& st, const std::string& what, Collector* out) {
  if (st.ok()) return true;
  out->Fail(what + ": " + st.ToString());
  return false;
}

// Rounds repeat until the timed phases add up to --seconds; a traced run
// alternates untraced and traced rounds and needs at least one of each.
bool MoreRounds(const RunOptions& opts, const Collector& c) {
  if (!c.correct) return false;
  if (opts.trace && c.rounds < 2) return true;
  return c.timed_s + c.timed_s_traced < opts.seconds;
}

bool TracedRound(const RunOptions& opts, uint64_t round) {
  return opts.trace && round % 2 == 1;
}

// Starts or ends a timed phase: tracing follows the round's mode.
void BeginTimed(bool traced) { Tracer::SetEnabled(traced); }

void EndTimed(bool traced, double seconds, Collector* out) {
  Tracer::SetEnabled(false);
  if (traced) {
    out->FoldSpans(Tracer::Drain());
    out->timed_s_traced += seconds;
  } else {
    Tracer::Drain();
    out->timed_s += seconds;
  }
}

void AddUnit(bool traced, double us, Collector* out) {
  (traced ? out->unit_us_traced : out->unit_us).Add(us);
  out->unit_total_us += us;
}

// ---------------------------------------------------------------------------
// local_commit: client threads in a closed loop, read-modify-write of 4 of
// the client's own objects per transaction, every commit forced to the
// client's private log before it is acknowledged. A round is a fixed number
// of transactions, not a time slice: a Client keeps every transaction it
// ever ran until it crashes, so the peak memory of a round must not depend
// on how fast the round went.

// One vCPU of the 4-vCPU host stays free for the reactor, the kernel's
// page-cache writeback and the host; with 4 busy client threads the tail
// measured preemption (p99 doubled in some runs).
constexpr uint32_t kLcClients = 3;
constexpr uint32_t kLcPagesPerClient = 8;
constexpr uint32_t kLcObjectsPerPage = 16;
constexpr uint32_t kLcObjects = kLcPagesPerClient * kLcObjectsPerPage;
constexpr uint32_t kLcOpsPerTxn = 4;
constexpr uint32_t kLcObjectSize = 128;
constexpr uint32_t kLcCounterDigits = 20;
constexpr uint32_t kLcTxnsPerClientPerRound = 5000;

std::string EncodeCounter(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020" PRIu64, v);
  std::string s(buf, kLcCounterDigits);
  s.resize(kLcObjectSize, '.');
  return s;
}

bool DecodeCounter(const std::string& s, uint64_t* v) {
  if (s.size() != kLcObjectSize) return false;
  uint64_t n = 0;
  for (uint32_t i = 0; i < kLcCounterDigits; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    n = n * 10 + static_cast<uint64_t>(s[i] - '0');
  }
  *v = n;
  return true;
}

ObjectId LcObject(uint32_t client, uint32_t index) {
  const uint32_t page = client * kLcPagesPerClient + index / kLcObjectsPerPage;
  return ObjectId{PageId(page), static_cast<SlotId>(index % kLcObjectsPerPage)};
}

SystemConfig LocalCommitConfig(const std::string& dir, TimingSink* sink) {
  SystemConfig config;
  config.dir = dir;
  config.exec_mode = finelog::ExecMode::kRealClock;
  config.log_sink = sink;
  config.num_clients = kLcClients;
  config.page_size = 4096;
  config.num_pages = kLcClients * kLcPagesPerClient + 8;
  config.preloaded_pages = kLcClients * kLcPagesPerClient;
  config.objects_per_page = kLcObjectsPerPage;
  config.object_size = kLcObjectSize;
  // The whole database fits both caches: steady state never leaves the
  // client, and the server cache never evicts.
  config.client_cache_pages = kLcPagesPerClient * 2;
  config.server_cache_pages = config.num_pages * 2;
  return config;
}

struct LcThread {
  LcThread() { latency_us.reserve(kLcTxnsPerClientPerRound); }
  std::vector<double> latency_us;
  std::vector<uint64_t> increments = std::vector<uint64_t>(kLcObjects, 0);
  uint64_t attempted = 0;
  uint64_t committed = 0;
  std::string error;
};

void LcClientLoop(Client& c, uint64_t seed, LcThread* out) {
  Rng rng(seed);
  uint32_t picks[kLcOpsPerTxn];
  for (uint32_t t = 0; t < kLcTxnsPerClientPerRound; ++t) {
    for (uint32_t k = 0; k < kLcOpsPerTxn; ++k) {
      bool dup;
      do {
        picks[k] = static_cast<uint32_t>(rng.Uniform(kLcObjects));
        dup = std::find(picks, picks + k, picks[k]) != picks + k;
      } while (dup);
    }
    ++out->attempted;
    const int64_t t0 = NowNs();
    TxnId txn;
    {
      ScopedSpan span(SpanKind::kClientBegin);
      auto begun = c.Begin();
      if (!begun.ok()) {
        out->error = "Begin: " + begun.status().ToString();
        return;
      }
      txn = begun.value();
    }
    for (uint32_t k = 0; k < kLcOpsPerTxn; ++k) {
      const ObjectId oid = LcObject(c.id().value(), picks[k]);
      finelog::Result<std::string> value = std::string();
      {
        ScopedSpan span(SpanKind::kClientRead, txn.value());
        value = c.Read(txn, oid);
      }
      uint64_t n = 0;
      if (!value.ok() || !DecodeCounter(value.value(), &n)) {
        out->error = "Read " + finelog::ToString(oid) + ": " +
                     (value.ok() ? "bad counter" : value.status().ToString());
        return;
      }
      Status st;
      {
        ScopedSpan span(SpanKind::kClientWrite, txn.value());
        st = c.Write(txn, oid, EncodeCounter(n + 1));
      }
      if (!st.ok()) {
        out->error = "Write " + finelog::ToString(oid) + ": " + st.ToString();
        return;
      }
    }
    Status st;
    {
      ScopedSpan span(SpanKind::kClientCommit, txn.value());
      st = c.Commit(txn);
    }
    if (!st.ok()) {
      out->error = "Commit: " + st.ToString();
      return;
    }
    out->latency_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++out->committed;
    for (uint32_t k = 0; k < kLcOpsPerTxn; ++k) ++out->increments[picks[k]];
  }
}

// Writes a zero counter into every object of every client, which also pulls
// each client's pages and locks into its cache.
bool LcInitialize(System& sys, Collector* out) {
  for (uint32_t i = 0; i < kLcClients; ++i) {
    Client& c = sys.client(i);
    auto txn = c.Begin();
    if (!Ok(txn.status(), "init Begin", out)) return false;
    for (uint32_t k = 0; k < kLcObjects; ++k) {
      if (!Ok(c.Write(txn.value(), LcObject(i, k), EncodeCounter(0)),
              "init Write", out)) {
        return false;
      }
    }
    if (!Ok(c.Commit(txn.value()), "init Commit", out)) return false;
  }
  return true;
}

// Every committed increment must be in the final value, and nothing else.
void LcVerify(System& sys, const std::vector<LcThread>& threads,
              Collector* out) {
  for (uint32_t i = 0; i < kLcClients; ++i) {
    Client& c = sys.client(i);
    auto txn = c.Begin();
    if (!Ok(txn.status(), "verify Begin", out)) return;
    for (uint32_t k = 0; k < kLcObjects; ++k) {
      const ObjectId oid = LcObject(i, k);
      auto value = c.Read(txn.value(), oid);
      uint64_t n = 0;
      if (!value.ok() || !DecodeCounter(value.value(), &n) ||
          n != threads[i].increments[k]) {
        out->Fail("local_commit: object " + finelog::ToString(oid) +
                  " does not hold its committed increment count");
        return;
      }
    }
    if (!Ok(c.Commit(txn.value()), "verify Commit", out)) return;
  }
}

// ---------------------------------------------------------------------------
// contended_merge: the simulation driving 4 clients through WorkloadGen over
// a database larger than both caches; a Zipf mixed phase then a merge storm.

constexpr uint32_t kCmClients = 4;
constexpr uint32_t kCmPages = 256;
constexpr uint32_t kCmMixedTxnsPerClient = 300;
constexpr uint32_t kCmStormTxnsPerClient = 75;

SystemConfig ContendedConfig(const std::string& dir, TimingSink* sink) {
  SystemConfig config;
  config.dir = dir;
  config.exec_mode = finelog::ExecMode::kSimulated;
  config.log_sink = sink;
  config.num_clients = kCmClients;
  config.page_size = 4096;
  config.num_pages = kCmPages + 16;
  config.preloaded_pages = kCmPages;
  config.objects_per_page = 16;
  config.object_size = 128;
  config.client_cache_pages = 24;
  config.server_cache_pages = 64;
  return config;
}

finelog::WorkloadGenOptions ContendedPhases(uint64_t seed) {
  finelog::WorkloadGenOptions gen;
  gen.seed = seed;
  finelog::PhaseOptions mixed;
  mixed.kind = finelog::PhaseKind::kMixed;
  mixed.txns_per_client = kCmMixedTxnsPerClient;
  mixed.ops_per_txn = 8;
  mixed.write_fraction = 0.3;
  mixed.zipf_theta = 0.9;
  finelog::PhaseOptions storm;
  storm.kind = finelog::PhaseKind::kMergeStorm;
  storm.txns_per_client = kCmStormTxnsPerClient;
  storm.ops_per_txn = 8;
  storm.write_fraction = 0.5;
  storm.storm_pages = 4;
  gen.phases = {mixed, storm};
  return gen;
}

// Names a generator step after the client call it completed, read off the
// client counters; a step that completed no call (a would-block retry)
// keeps the generic generator-step kind.
SpanKind StepKind(const uint64_t before[5], const uint64_t after[5]) {
  static constexpr SpanKind kKinds[5] = {
      SpanKind::kClientAbort, SpanKind::kClientCommit, SpanKind::kClientBegin,
      SpanKind::kClientWrite, SpanKind::kClientRead};
  for (int k = 0; k < 5; ++k) {
    if (after[k] != before[k]) return kKinds[k];
  }
  return SpanKind::kGeneratorStep;
}

void ReadStepCounters(finelog::Metrics& m, uint64_t out[5]) {
  out[0] = m.Get(Counter::kClientAborts);
  out[1] = m.Get(Counter::kClientCommits);
  out[2] = m.Get(Counter::kClientTxnBegins);
  out[3] = m.Get(Counter::kClientWrites);
  out[4] = m.Get(Counter::kClientReads);
}

// ---------------------------------------------------------------------------
// restart_recovery: a seeded sequential load on private and shared pages,
// dirty pages shipped, the server crashed; then instant restart, a first
// read of an unrecovered page, a full drain, and a client crash + restart.

constexpr uint32_t kRrClients = 4;
constexpr uint32_t kRrPrivatePages = 16;
constexpr uint32_t kRrSharedPages = 8;
constexpr uint32_t kRrSlotsPerClientOnShared = 4;
constexpr uint32_t kRrTxnsPerClient = 30;
constexpr uint32_t kRrObjectSize = 128;

constexpr uint32_t kRrFirstShared = kRrClients * kRrPrivatePages;

SystemConfig RestartConfig(const std::string& dir, TimingSink* sink) {
  SystemConfig config;
  config.dir = dir;
  config.exec_mode = finelog::ExecMode::kRealClock;
  config.log_sink = sink;
  config.instant_restart = true;
  config.num_clients = kRrClients;
  config.page_size = 4096;
  config.preloaded_pages = kRrFirstShared + kRrSharedPages;
  config.num_pages = config.preloaded_pages + 8;
  config.objects_per_page = 16;
  config.object_size = kRrObjectSize;
  config.client_cache_pages = kRrPrivatePages + kRrSharedPages + 8;
  // No server eviction: a server cache smaller than the database hangs the
  // real-clock mode (see README.md).
  config.server_cache_pages = config.num_pages + 8;
  return config;
}

uint32_t RrOwner(ObjectId oid) {
  if (oid.page.value() >= kRrFirstShared) {
    return oid.slot / kRrSlotsPerClientOnShared;
  }
  return oid.page.value() / kRrPrivatePages;
}

std::string RrValue(uint64_t seed, uint32_t client, uint32_t txn, uint32_t k) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "s%016" PRIx64 "-c%u-t%u-w%u", seed, client,
                txn, k);
  std::string s(buf);
  s.resize(kRrObjectSize, '~');
  return s;
}

// One client at a time, in a seeded order: 3 writes to the client's private
// pages and 1 to its own slots of a shared page per transaction. Returns
// the acknowledged value of every object written.
bool RrLoad(System& sys, uint64_t seed, std::map<ObjectId, std::string>* acked,
            Collector* out) {
  Rng rng(seed);
  for (uint32_t t = 0; t < kRrTxnsPerClient; ++t) {
    for (uint32_t c = 0; c < kRrClients; ++c) {
      Client& client = sys.client(c);
      auto txn = client.Begin();
      if (!Ok(txn.status(), "load Begin", out)) return false;
      std::vector<std::pair<ObjectId, std::string>> writes;
      for (uint32_t k = 0; k < 3; ++k) {
        const auto page = static_cast<uint32_t>(rng.Uniform(kRrPrivatePages));
        ObjectId oid{PageId(c * kRrPrivatePages + page),
                     static_cast<SlotId>(rng.Uniform(16))};
        writes.emplace_back(oid, RrValue(seed, c, t, k));
      }
      ObjectId shared{
          PageId(kRrFirstShared +
                 static_cast<uint32_t>(rng.Uniform(kRrSharedPages))),
          static_cast<SlotId>(c * kRrSlotsPerClientOnShared +
                              rng.Uniform(kRrSlotsPerClientOnShared))};
      writes.emplace_back(shared, RrValue(seed, c, t, 3));
      for (const auto& [oid, value] : writes) {
        if (!Ok(client.Write(txn.value(), oid, value), "load Write", out)) {
          return false;
        }
      }
      if (!Ok(client.Commit(txn.value()), "load Commit", out)) return false;
      ++out->txn_attempts;
      ++out->txn_commits;
      for (auto& [oid, value] : writes) (*acked)[oid] = std::move(value);
    }
  }
  return true;
}

// Issued on the reactor (QueueTransport::RunOnReactor, the path System's
// harness operations take): from a client thread, the first read after an
// instant restart never returns in real-clock mode (see README.md).
bool RrReadOne(System& sys, ObjectId oid, const std::string& expected,
               Collector* out) {
  Client& c = sys.client(RrOwner(oid));
  finelog::Result<TxnId> txn = TxnId();
  {
    ScopedSpan span(SpanKind::kClientBegin);
    txn = c.Begin();
  }
  if (!Ok(txn.status(), "first read Begin", out)) return false;
  finelog::Result<std::string> value = std::string();
  {
    ScopedSpan span(SpanKind::kClientRead, txn.value().value());
    value = c.Read(txn.value(), oid);
  }
  if (!Ok(value.status(), "first read", out)) return false;
  if (value.value() != expected) {
    out->Fail("restart_recovery: first read of " + finelog::ToString(oid) +
              " returned a value that was not acknowledged");
    return false;
  }
  ScopedSpan span(SpanKind::kClientCommit, txn.value().value());
  return Ok(c.Commit(txn.value()), "first read Commit", out);
}

// Reads back every acknowledged write through its owning client.
void RrVerify(System& sys, const std::map<ObjectId, std::string>& acked,
              Collector* out) {
  for (uint32_t c = 0; c < kRrClients; ++c) {
    Client& client = sys.client(c);
    auto txn = client.Begin();
    if (!Ok(txn.status(), "verify Begin", out)) return;
    for (const auto& [oid, value] : acked) {
      if (RrOwner(oid) != c) continue;
      auto got = client.Read(txn.value(), oid);
      if (!got.ok() || got.value() != value) {
        out->Fail("restart_recovery: acknowledged write to " +
                  finelog::ToString(oid) + " lost after restart");
        return;
      }
    }
    if (!Ok(client.Commit(txn.value()), "verify Commit", out)) return;
  }
}

void CheckFrames(System& sys, Collector* out) {
  if (sys.transport() == nullptr) return;
  const uint64_t abandoned = sys.transport()->frames_abandoned();
  out->frames_abandoned += abandoned;
  if (abandoned != 0) {
    out->Fail(std::to_string(abandoned) + " RPC frames were abandoned");
  }
}

}  // namespace

void RunLocalCommit(const RunOptions& opts, Collector* out) {
  for (uint64_t round = 0; MoreRounds(opts, *out); ++round) {
    const bool traced = TracedRound(opts, round);
    const uint64_t seed = RoundSeed(opts.seed, round);
    TimingSink sink(/*keep_samples=*/opts.trace);

    const std::string dir = RoundDir(opts, round);
    const SetupTimer setup;
    std::unique_ptr<System> sys = Create(LocalCommitConfig(dir, &sink), out);
    if (sys == nullptr || !LcInitialize(*sys, out)) return;
    setup.Record(out);

    DiscardSyncSamples(sink);
    const Snapshot before = Snapshot::Take(*sys);
    const uint64_t log0 = ClientLogBytes(*sys);
    std::vector<LcThread> results(kLcClients);
    BeginTimed(traced);
    const int64_t t0 = NowNs();
    {
      std::vector<std::thread> threads;
      for (uint32_t i = 0; i < kLcClients; ++i) {
        threads.emplace_back(LcClientLoop, std::ref(sys->client(i)),
                             seed + 0x1000 * (i + 1), &results[i]);
      }
      for (auto& t : threads) t.join();
    }
    const int64_t t1 = NowNs();
    EndTimed(traced, Seconds(t0, t1), out);
    AddDelta(before, Snapshot::Take(*sys), out);
    TakeSyncSamples(sink, out);
    out->log_bytes += ClientLogBytes(*sys) - log0;

    uint64_t committed = 0;
    for (const LcThread& r : results) {
      out->attempted += r.attempted;
      out->txn_attempts += r.attempted;
      committed += r.committed;
      for (double us : r.latency_us) AddUnit(traced, us, out);
      if (!r.error.empty()) out->Fail("local_commit: " + r.error);
    }
    out->txn_commits += committed;
    if (traced) {
      out->traced_txns += committed;
    } else {
      out->txns_untraced += committed;
    }
    ++out->rounds;

    CheckFrames(*sys, out);
    if (out->correct) LcVerify(*sys, results, out);
    if (out->correct && opts.trace) ScanClientLogs(*sys, out);
    sys.reset();
    std::filesystem::remove_all(dir);
  }
}

void RunContendedMerge(const RunOptions& opts, Collector* out) {
  for (uint64_t round = 0; MoreRounds(opts, *out); ++round) {
    const bool traced = TracedRound(opts, round);
    TimingSink sink(/*keep_samples=*/opts.trace);

    const std::string dir = RoundDir(opts, round);
    const SetupTimer setup;
    std::unique_ptr<System> sys = Create(ContendedConfig(dir, &sink), out);
    if (sys == nullptr) return;
    finelog::Oracle oracle;
    finelog::WorkloadGen gen(sys.get(), &oracle,
                             ContendedPhases(RoundSeed(opts.seed, round)));
    setup.Record(out);

    DiscardSyncSamples(sink);
    const Snapshot before = Snapshot::Take(*sys);
    const uint64_t log0 = ClientLogBytes(*sys);
    finelog::Metrics& m = sys->metrics();
    uint64_t steps = 0;
    BeginTimed(traced);
    const int64_t t0 = NowNs();
    for (;;) {
      uint64_t c0[5];
      uint64_t c1[5];
      const int64_t s0 = NowNs();
      finelog::Result<bool> done = false;
      {
        ScopedSpan span(SpanKind::kGeneratorStep);
        if (traced) ReadStepCounters(m, c0);
        done = gen.RunSteps(1);
        if (traced) {
          ReadStepCounters(m, c1);
          span.Rename(StepKind(c0, c1));
        }
      }
      AddUnit(traced, static_cast<double>(NowNs() - s0) / 1e3, out);
      ++steps;
      if (!done.ok()) {
        out->Fail("contended_merge step: " + done.status().ToString());
        break;
      }
      if (done.value()) break;
    }
    const int64_t t1 = NowNs();
    EndTimed(traced, Seconds(t0, t1), out);
    AddDelta(before, Snapshot::Take(*sys), out);
    TakeSyncSamples(sink, out);
    out->log_bytes += ClientLogBytes(*sys) - log0;

    const finelog::WorkloadStats stats = gen.TotalWorkloadStats();
    out->attempted += steps;
    out->txn_commits += stats.commits;
    out->txn_attempts += stats.commits + stats.aborts;
    out->would_blocks += stats.would_blocks;
    if (traced) {
      out->traced_txns += stats.commits;
    } else {
      out->txns_untraced += stats.commits;
    }
    ++out->rounds;

    if (stats.read_mismatches != 0) {
      out->Fail("contended_merge: " + std::to_string(stats.read_mismatches) +
                " reads disagreed with the oracle");
    }
    CheckFrames(*sys, out);
    if (out->correct) {
      auto mismatches = oracle.Verify(sys.get(), 0);
      if (!mismatches.ok()) {
        out->Fail("Oracle::Verify: " + mismatches.status().ToString());
      } else if (mismatches.value() != 0) {
        out->Fail("contended_merge: Oracle::Verify found " +
                  std::to_string(mismatches.value()) + " mismatches");
      }
    }
    if (out->correct && opts.trace) ScanClientLogs(*sys, out);
    sys.reset();
    std::filesystem::remove_all(dir);
  }
}

void RunRestartRecovery(const RunOptions& opts, Collector* out) {
  for (uint64_t round = 0; MoreRounds(opts, *out); ++round) {
    const bool traced = TracedRound(opts, round);
    const uint64_t seed = RoundSeed(opts.seed, round);
    TimingSink sink(/*keep_samples=*/opts.trace);

    const std::string dir = RoundDir(opts, round);
    const SetupTimer setup;
    std::unique_ptr<System> sys = Create(RestartConfig(dir, &sink), out);
    if (sys == nullptr) return;
    std::map<ObjectId, std::string> acked;
    if (!RrLoad(*sys, seed, &acked, out)) return;
    const uint64_t log_bytes = ClientLogBytes(*sys);
    for (uint32_t c = 0; c < kRrClients; ++c) {
      if (!Ok(sys->client(c).ShipAllDirtyPages(), "ShipAllDirtyPages", out)) {
        return;
      }
    }
    if (!Ok(sys->CrashServer(), "CrashServer", out)) return;
    setup.Record(out);

    DiscardSyncSamples(sink);
    const Snapshot before = Snapshot::Take(*sys);
    // The highest written object sits on a shared page, last in the sweep
    // order, so the first read finds it unrecovered and repairs it on demand.
    const auto& [first_oid, first_value] = *acked.rbegin();
    BeginTimed(traced);
    ++out->attempted;
    const int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan span(SpanKind::kSystemRecoverServer);
      st = sys->RecoverServer();
    }
    if (!Ok(st, "RecoverServer", out)) return;
    const int64_t t1 = NowNs();
    finelog::Metrics& m = sys->metrics();
    const uint64_t repairs0 = m.Get(Counter::kRecoveryDemandRepairs);
    bool read_ok = false;
    st = sys->transport()->RunOnReactor([&] {
      read_ok = RrReadOne(*sys, first_oid, first_value, out);
      return Status::OK();
    });
    if (!Ok(st, "first read", out) || !read_ok) return;
    const int64_t t2 = NowNs();
    if (m.Get(Counter::kRecoveryDemandRepairs) == repairs0) {
      out->Fail("restart_recovery: the first read found " +
                finelog::ToString(first_oid) +
                " already recovered; admit_ms would time a plain fetch");
      return;
    }
    {
      ScopedSpan span(SpanKind::kSystemDrainRecovery);
      st = sys->DrainRecovery(0);
    }
    if (!Ok(st, "DrainRecovery", out)) return;
    const int64_t t3 = NowNs();
    {
      ScopedSpan span(SpanKind::kSystemCrashClient);
      st = sys->CrashClient(0);
    }
    if (!Ok(st, "CrashClient", out)) return;
    {
      ScopedSpan span(SpanKind::kSystemRecoverClient);
      st = sys->RecoverClient(0);
    }
    if (!Ok(st, "RecoverClient", out)) return;
    const int64_t t4 = NowNs();
    EndTimed(traced, Seconds(t0, t4), out);
    AddDelta(before, Snapshot::Take(*sys), out);
    TakeSyncSamples(sink, out);

    AddUnit(traced, static_cast<double>(t4 - t0) / 1e3, out);
    out->restart_call_ms.push_back(Seconds(t0, t1) * 1e3);
    out->admit_ms.push_back(Seconds(t0, t2) * 1e3);
    out->drain_call_s.push_back(Seconds(t2, t3));
    out->full_s.push_back(Seconds(t0, t3));
    out->client_restart_s.push_back(Seconds(t3, t4));
    const uint64_t load_txns = uint64_t{kRrClients} * kRrTxnsPerClient;
    out->log_bytes += log_bytes;
    if (traced) {
      out->traced_txns += load_txns;
    } else {
      out->txns_untraced += load_txns;
    }
    ++out->rounds;

    if (sys->RecoveryPagesPending() != 0) {
      out->Fail("restart_recovery: pages still pending after a full drain");
    }
    CheckFrames(*sys, out);
    if (out->correct) RrVerify(*sys, acked, out);
    if (out->correct && opts.trace) ScanClientLogs(*sys, out);
    sys.reset();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace perfbench
