// E15 -- Real-clock concurrent execution (DESIGN.md section 17).
//
// Every other experiment measures the protocol under the deterministic
// simulation: costs are modeled, results are byte-reproducible. E15 runs the
// SAME protocol stack against the wall clock -- ExecMode::kRealClock gives
// every client its own thread, serializes every server call on the
// TokenTransport's execution token, and ends every log force in a real fdatasync -- and reports what
// an actual deployment of the paper's design would observe: committed
// transactions per wall-clock second, commit latency percentiles, and
// fsyncs per second.
//
// Workload: each client thread runs kTxnsPerClient update transactions
// against its own private pages (the scaling dimension under study is the
// shared server/token/log path, not data contention -- E14 sweeps
// contention). Swept: clients {4, 16, 64} x message batching {1, 8} x group
// commit {off, 8 txns}.
//
// Wall-clock numbers are inherently machine-dependent, so every metric of
// this experiment is registered as *advisory* in tools/bench_tolerances.json:
// the perf gate reports drift but never fails on it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "log/log_sink.h"
#include "net/transport.h"

using namespace finelog;
using namespace finelog::bench;

namespace {

constexpr int kTxnsPerClient = 20;
constexpr uint32_t kPagesPerClient = 2;

struct Row {
  uint32_t clients;
  uint32_t batch;
  uint32_t group;
  double wall_ms;
  double txns_per_sec;
  double commit_p50_us;
  double commit_p99_us;
  double fsyncs_per_sec;
  uint64_t frames_executed;
};

void Must(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "e15: %s failed: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

uint64_t Percentile(std::vector<uint64_t>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_us.size()));
  if (idx >= sorted_us.size()) idx = sorted_us.size() - 1;
  return sorted_us[idx];
}

Row RunOne(uint32_t clients, uint32_t batch, uint32_t group) {
  SystemConfig config = BenchConfig("e15");
  config.exec_mode = ExecMode::kRealClock;
  config.num_clients = clients;
  config.num_pages = clients * kPagesPerClient + 32;
  config.preloaded_pages = config.num_pages;
  config.client_cache_pages = kPagesPerClient + 8;
  config.server_cache_pages = config.num_pages;
  config.max_batch_items = batch;
  if (group > 0) {
    config.group_commit_window = 1000ull * 1000 * 1000;
    config.group_commit_max_txns = group;
  }
  auto system = MustCreate(config);

  const uint64_t syncs0 = system->log_sink()->sync_count();
  std::vector<std::vector<uint64_t>> latencies(clients);

  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      Client& c = system->client(i);
      latencies[i].reserve(kTxnsPerClient);
      for (int t = 0; t < kTxnsPerClient; ++t) {
        TxnId txn = c.Begin().value();
        std::vector<std::pair<ObjectId, std::string>> writes;
        writes.reserve(kPagesPerClient);
        for (uint32_t j = 0; j < kPagesPerClient; ++j) {
          ObjectId oid{static_cast<PageId>(i * kPagesPerClient + j),
                       static_cast<SlotId>(t % 8)};
          writes.emplace_back(oid,
                              std::string(config.object_size, 'a' + t % 26));
        }
        Must(c.WriteBatch(txn, writes), "WriteBatch");
        const auto c0 = std::chrono::steady_clock::now();
        Must(c.Commit(txn), "Commit");
        const auto c1 = std::chrono::steady_clock::now();
        latencies[i].push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(c1 - c0)
                .count()));
      }
      // Close any open commit group so every transaction is durable before
      // the clock stops.
      Must(c.FlushCommitGroup(), "FlushCommitGroup");
    });
  }
  for (auto& t : threads) t.join();
  const auto wall1 = std::chrono::steady_clock::now();

  const double wall_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall1 - wall0)
          .count());
  const double wall_sec = wall_us / 1e6;
  const uint64_t syncs = system->log_sink()->sync_count() - syncs0;
  const uint64_t txns = uint64_t{clients} * kTxnsPerClient;

  std::vector<uint64_t> all;
  all.reserve(txns);
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  Row row;
  row.clients = clients;
  row.batch = batch;
  row.group = group;
  row.wall_ms = wall_us / 1e3;
  row.txns_per_sec = static_cast<double>(txns) / wall_sec;
  row.commit_p50_us = static_cast<double>(Percentile(all, 0.50));
  row.commit_p99_us = static_cast<double>(Percentile(all, 0.99));
  row.fsyncs_per_sec = static_cast<double>(syncs) / wall_sec;
  row.frames_executed = system->transport()->frames_executed();
  return row;
}

}  // namespace

int main() {
  std::printf(
      "E15: real-clock concurrent execution "
      "(%d txns/client, %u pages/client)\n\n",
      kTxnsPerClient, kPagesPerClient);
  std::printf(
      "%8s %6s %6s %10s %12s %12s %12s %12s\n", "clients", "batch", "group",
      "wall_ms", "txns/s", "p50_us", "p99_us", "fsync/s");

  BenchJson json("e15_realclock");
  for (uint32_t clients : {4u, 16u, 64u}) {
    for (uint32_t batch : {1u, 8u}) {
      for (uint32_t group : {0u, 8u}) {
        Row row = RunOne(clients, batch, group);
        std::printf("%8u %6u %6u %10.1f %12.1f %12.1f %12.1f %12.1f\n",
                    row.clients, row.batch, row.group, row.wall_ms,
                    row.txns_per_sec, row.commit_p50_us, row.commit_p99_us,
                    row.fsyncs_per_sec);
        json.BeginRow();
        json.Field("clients", static_cast<uint64_t>(row.clients));
        json.Field("max_batch_items", static_cast<uint64_t>(row.batch));
        json.Field("group_commit_max_txns", static_cast<uint64_t>(row.group));
        json.Field("wall_ms", row.wall_ms);
        json.Field("txns_per_sec", row.txns_per_sec);
        json.Field("commit_p50_us", row.commit_p50_us);
        json.Field("commit_p99_us", row.commit_p99_us);
        json.Field("fsyncs_per_sec", row.fsyncs_per_sec);
        json.Field("frames_executed", row.frames_executed);
      }
    }
  }
  return json.Write() ? 0 : 1;
}
