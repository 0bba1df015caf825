// finelog repository benchmark program.
//
//   perfbench --workload <local_commit|contended_merge|restart_recovery>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Runs one workload for --seconds of timed work, checks its outputs, prints
// a human-readable summary and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set; with --trace 1 they are the per-layer set taken
// from counters, sync timings and spans. Exits 1 when any check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB.
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t CounterOf(const Collector& c, const char* name) {
  auto it = c.counters.find(name);
  return it == c.counters.end() ? 0 : it->second;
}

double SpanP50(const Collector& c, SpanKind kind, bool self = false) {
  const auto k = static_cast<size_t>(kind);
  std::vector<double> v = self ? c.span_self_us[k] : c.span_us[k];
  return Summarize(v).p50;
}

double SpanTail(const Collector& c, SpanKind kind) {
  std::vector<double> v = c.span_us[static_cast<size_t>(kind)];
  return Summarize(v).tail;
}

Summary SyncSummary(const Collector& c, SyncSite site) {
  std::vector<double> v = c.sync_us[static_cast<size_t>(site)];
  return Summarize(v);
}

std::vector<Metric> EndToEnd(Collector& c) {
  std::vector<double> unit = c.unit_us.Values();
  const Summary s = Summarize(unit);
  std::printf("unit latency: n=%llu kept=%zu p50=%.1f us tail(p%.0f)=%.1f us\n",
              static_cast<unsigned long long>(c.unit_us.seen()), s.n, s.p50,
              s.tail_pct, s.tail);
  std::printf("set-up: cpu p50=%.4f s wall p50=%.4f s over %zu rounds\n",
              Median(c.setup_s), Median(c.setup_wall_s), c.setup_s.size());
  return {
      {"setup_s", Median(c.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"commit_ratio", Ratio(double(c.txn_commits), double(c.txn_attempts)),
       "ratio"},
      {"txn_per_s", Ratio(double(c.txns_untraced), c.timed_s), "1/s"},
      {"p50_us", s.p50, "us"},
      {"tail_us", s.tail, "us"},
  };
}

// One summary line per span kind recorded in the traced rounds.
void PrintSpans(const Collector& c) {
  for (size_t k = 0; k < kSpanKinds; ++k) {
    if (c.span_us[k].empty()) continue;
    std::vector<double> v = c.span_us[k];
    std::vector<double> self = c.span_self_us[k];
    const Summary s = Summarize(v);
    std::printf("span %-22s n=%zu p50=%.2f us tail(p%.0f)=%.2f us "
                "self_p50=%.2f us\n",
                std::string(SpanName(static_cast<SpanKind>(k))).c_str(), s.n,
                s.p50, s.tail_pct, s.tail, Summarize(self).p50);
  }
}

std::vector<Metric> PerLayer(Collector& c) {
  PrintSpans(c);
  const double txns = static_cast<double>(c.txn_commits);
  auto per_txn = [&](const char* counter) {
    return Ratio(double(CounterOf(c, counter)), txns);
  };
  const double restarts = static_cast<double>(c.full_s.size());
  auto per_restart = [&](const char* counter) {
    return Ratio(double(CounterOf(c, counter)), restarts);
  };
  std::vector<double> unit = c.unit_us.Values();
  const Summary units = Summarize(unit);
  const Summary client_sync = SyncSummary(c, SyncSite::kClientLog);
  const Summary server_sync = SyncSummary(c, SyncSite::kServerLog);
  const Summary disk_sync = SyncSummary(c, SyncSite::kServerDisk);
  const double lock_hits = double(CounterOf(c, "client.lock_hits"));
  const double lock_misses = double(CounterOf(c, "client.lock_misses"));
  const double repaired = double(CounterOf(c, "recovery.pages_repaired"));
  double full_s_total = 0;
  for (double v : c.full_s) full_s_total += v;

  return {
      {"core.samples", double(c.unit_us.seen() + c.unit_us_traced.seen()),
       "count"},
      {"core.tail_pct", units.tail_pct, "pct"},
      {"core.rounds", double(c.rounds), "count"},
      {"core.setup_wall_s", Median(c.setup_wall_s), "s"},
      {"core.abort_rate",
       Ratio(double(c.txn_attempts - c.txn_commits), double(c.txn_attempts)),
       "ratio"},
      {"trace.overhead_pct",
       (Ratio(Median(c.unit_us_traced.Values()), Median(c.unit_us.Values())) -
        1.0) * 100.0,
       "%"},
      {"trace.spans_per_txn", Ratio(double(c.spans), double(c.traced_txns)),
       "count"},
      {"client.begin_call_us", SpanP50(c, SpanKind::kClientBegin), "us"},
      {"client.read_call_us", SpanP50(c, SpanKind::kClientRead), "us"},
      {"client.write_call_us", SpanP50(c, SpanKind::kClientWrite), "us"},
      {"client.commit_call_us", SpanP50(c, SpanKind::kClientCommit), "us"},
      {"client.commit_call_tail_us", SpanTail(c, SpanKind::kClientCommit),
       "us"},
      {"client.commit_self_us", SpanP50(c, SpanKind::kClientCommit, true),
       "us"},
      {"core.blocked_step_us", SpanP50(c, SpanKind::kGeneratorStep), "us"},
      {"lock.hit_ratio", Ratio(lock_hits, lock_hits + lock_misses), "ratio"},
      {"lock.callbacks_per_txn",
       Ratio(double(CounterOf(c, "server.callbacks_object") +
                    CounterOf(c, "server.callbacks_page")),
             txns),
       "count"},
      {"lock.callbacks_denied_per_txn", per_txn("server.callbacks_denied"),
       "count"},
      {"lock.would_block_per_txn", Ratio(double(c.would_blocks), txns),
       "count"},
      {"log.syncs_per_txn", Ratio(double(client_sync.n), txns), "count"},
      {"log.client_sync_p50_us", client_sync.p50, "us"},
      {"log.client_sync_tail_us", client_sync.tail, "us"},
      {"log.server_sync_p50_us", server_sync.p50, "us"},
      {"log.server_sync_tail_us", server_sync.tail, "us"},
      {"log.sync_share", Ratio(c.sync_total_us, c.unit_total_us), "ratio"},
      {"log.bytes_per_txn", Ratio(double(c.log_bytes), txns), "B"},
      {"log.scan_mb_per_s", Ratio(double(c.scan_bytes) / 1e6, c.scan_s),
       "MB/s"},
      {"server.merges_per_txn", per_txn("server.pages_merged"), "count"},
      {"server.lock_requests_per_txn", per_txn("server.lock_requests"),
       "count"},
      {"buffer.client_fetches_per_txn", per_txn("client.page_fetches"),
       "count"},
      {"buffer.client_ships_per_txn", per_txn("client.pages_shipped"),
       "count"},
      {"buffer.server_disk_reads_per_txn", per_txn("server.disk_reads"),
       "count"},
      {"buffer.server_disk_writes_per_txn", per_txn("server.disk_writes"),
       "count"},
      {"net.msgs_per_txn", Ratio(double(c.net_messages), txns), "count"},
      {"net.bytes_per_txn", Ratio(double(c.net_bytes), txns), "B"},
      {"net.frames_per_txn", Ratio(double(c.frames_executed), txns), "count"},
      {"net.frames_abandoned", double(c.frames_abandoned), "count"},
      {"storage.sync_p50_us", disk_sync.p50, "us"},
      {"storage.sync_tail_us", disk_sync.tail, "us"},
      {"storage.syncs_per_txn", Ratio(double(disk_sync.n), txns), "count"},
      {"recovery.restart_call_ms", Median(c.restart_call_ms), "ms"},
      {"recovery.admit_ms", Median(c.admit_ms), "ms"},
      {"recovery.drain_call_s", Median(c.drain_call_s), "s"},
      {"recovery.full_s", Median(c.full_s), "s"},
      {"recovery.client_restart_s", Median(c.client_restart_s), "s"},
      {"recovery.us_per_page_repaired",
       Ratio(full_s_total * 1e6, repaired), "us"},
      {"recovery.pages_repaired_per_restart", Ratio(repaired, restarts),
       "count"},
      {"recovery.demand_repairs", per_restart("recovery.demand_repairs"),
       "count"},
      {"recovery.sweep_repairs", per_restart("recovery.sweep_repairs"),
       "count"},
      {"recovery.client_redos", per_restart("client.redos"), "count"},
      {"recovery.replay_redos", per_restart("client.recovery_redos"),
       "count"},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <local_commit|contended_merge|"
               "restart_recovery> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--workdir") {
      opts.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (opts.work_dir.empty() || !(opts.seconds > 0)) return Usage();
  std::filesystem::create_directories(opts.work_dir);

  Collector c;
  if (opts.workload == "local_commit") {
    RunLocalCommit(opts, &c);
  } else if (opts.workload == "contended_merge") {
    RunContendedMerge(opts, &c);
  } else if (opts.workload == "restart_recovery") {
    RunRestartRecovery(opts, &c);
  } else {
    return Usage();
  }
  Tracer::SetEnabled(false);
  if (c.attempted == 0) c.Fail("no unit of work was attempted");
  for (const std::string& e : c.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  std::printf("workload=%s seed=%llu rounds=%llu timed_s=%.3f traced_s=%.3f\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(c.rounds), c.timed_s,
              c.timed_s_traced);
  std::vector<Metric> metrics = opts.trace ? PerLayer(c) : EndToEnd(c);
  std::string json = "{\"correct\": ";
  json += c.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(c.attempted);
  json += ", \"failed\": " + std::to_string(c.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!ValidMetricName(m.name)) {
      std::fprintf(stderr, "perfbench: bad metric name %s\n", m.name.c_str());
      return 1;
    }
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    // Names pass the grammar check and units are literals, so neither
    // needs JSON escaping.
    char entry[192];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return c.correct && c.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
