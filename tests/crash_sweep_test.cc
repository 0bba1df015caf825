// Crash-point sweep: systematic fault injection at every durability-critical
// I/O site (DESIGN.md "Fault model").
//
// One seeded workload is run once with an unarmed FaultInjector (a pure
// counting probe) to enumerate the M fail-point hits it performs. Then, for a
// strided sample of k in 1..M, the same workload is re-run against a fresh
// directory with a one-shot fault armed at global hit k -- a clean EIO, a
// torn write (a deterministic prefix of the payload reaches the file) or a
// short write. When the fault fires, every node is crashed on the spot,
// RecoverAll() runs, any in-doubt commit is settled by probing the database,
// the workload resumes to completion and the Oracle verifies that every
// committed update survived and no uncommitted one did.
//
// tests/scenario.h runs each crash point. Two "teeth" tests prove the sweep
// can actually fail: deliberately broken recovery modes (trusting the log
// tail without the CRC scan; ignoring the doublewrite journal) must turn at
// least one swept crash point into a detected failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tests/scenario.h"

namespace finelog {
namespace {

constexpr uint64_t kSeed = 4242;

Scenario SweepScenario(const std::string& name, FaultInjector* injector) {
  Scenario s;
  s.config = SmallCacheConfig(name, injector);
  s.workload = SeededWorkload(6, kSeed);
  return s;
}

constexpr FaultAction kActions[] = {FaultAction::kTornWrite,
                                    FaultAction::kError,
                                    FaultAction::kShortWrite};
constexpr double kCuts[] = {0.5, 0.25, 0.75};

// Crash point number `swept` of a sweep: a fault at hit `k`, rotating the
// fault action and the torn-write cut.
Scenario CrashPoint(Scenario s, uint64_t k, size_t swept) {
  s.hit = k;
  s.action = kActions[swept % 3];
  s.cut = kCuts[(swept / 3) % 3];
  return s;
}

std::string Repro(const Scenario& s, const ScenarioOutcome& out, uint64_t m) {
  std::ostringstream msg;
  msg << "crash at hit " << s.hit << " of " << m << " (" << out.fired << ", "
      << FaultActionName(s.action) << ", cut " << s.cut
      << (s.second_crash ? ", double crash" : "")
      << "): reproduce with seed " << kSeed;
  return msg.str();
}

// Two enumeration passes with the same seed must produce identical hit
// sequences -- the property that makes a crash point reproducible from its
// (seed, hit_index) pair.
TEST(CrashSweepTest, EnumerationIsDeterministic) {
  FaultInjector a, b;
  a.EnableTrace(true);
  b.EnableTrace(true);
  uint64_t hits_a = CountHits(SweepScenario("sweep_enum_a", &a));
  uint64_t hits_b = CountHits(SweepScenario("sweep_enum_b", &b));
  EXPECT_GT(hits_a, 0u);
  EXPECT_EQ(hits_a, hits_b);
  EXPECT_EQ(a.hit_counts(), b.hit_counts());
  EXPECT_EQ(a.trace(), b.trace());
}

// Every hit must also be mirrored into the system's Metrics registry, and
// those counters must be deterministic across runs too.
TEST(CrashSweepTest, HitMetricsAreDeterministic) {
  auto fault_counters = [](const std::string& tag) {
    FaultInjector injector;
    ScenarioRun<> run(SmallCacheConfig(tag, &injector),
                      SeededWorkload(6, kSeed));
    EXPECT_TRUE(run.Run()) << run.failure();
    const Metrics& metrics = run.system().metrics();
    std::map<std::string, uint64_t> counters;
    uint64_t mirrored = 0;
    for (const auto& [name, value] : metrics.counters()) {
      if (name.rfind("fault.", 0) == 0) {
        counters[name] = value;
        mirrored += value;
      }
    }
    // The Metrics mirror must agree with the injector's own counters
    // (bootstrap hits land in metrics too, hence >=).
    EXPECT_GE(mirrored, injector.total_hits());
    for (const auto& [point, count] : injector.hit_counts()) {
      EXPECT_EQ(metrics.Get("fault." + point), count) << point;
    }
    return counters;
  };
  EXPECT_EQ(fault_counters("sweep_met_a"), fault_counters("sweep_met_b"));
}

// The tentpole: sweep a strided sample of every fail-point hit the workload
// performs, crash at each, and require a clean recovery every time.
TEST(CrashSweepTest, EveryCrashPointRecovers) {
  FaultInjector injector;
  const uint64_t m = CountHits(SweepScenario("sweep_enum", &injector));
  ASSERT_GE(m, 100u) << "workload too small to sweep";

  const uint64_t stride = std::max<uint64_t>(1, m / 110);
  std::set<std::string> points;
  size_t swept = 0;
  for (uint64_t k = 1; k <= m; k += stride, ++swept) {
    Scenario s = CrashPoint(
        SweepScenario("sweep_k" + std::to_string(k), &injector), k, swept);
    ScenarioOutcome out = RunScenario(s);
    ASSERT_FALSE(out.fired.empty()) << "k=" << k << ": " << out.failure;
    EXPECT_EQ(out.failure, "") << Repro(s, out, m);
    points.insert(out.fired);
  }
  EXPECT_GE(swept, 100u);

  // The sample must have crashed all three durability domains.
  bool client_log = false, server_log = false, server_disk = false;
  for (const std::string& p : points) {
    if (p.rfind("client", 0) == 0) client_log = true;
    if (p.rfind("server.log", 0) == 0) server_log = true;
    if (p.rfind("server.disk", 0) == 0) server_disk = true;
  }
  EXPECT_TRUE(client_log) << "no client-log crash point swept";
  EXPECT_TRUE(server_log) << "no server-log crash point swept";
  EXPECT_TRUE(server_disk) << "no server-disk crash point swept";
}

// Same sweep through the instant-restart path: recovery is lazy, the resumed
// workload runs against the unrecovered backlog (demand repairs + degraded
// responses), every third point crashes everything a second time while pages
// are still unrecovered, and one mid-recovery repair is interrupted via the
// recovery.server.lazy_repair fail point. Zero oracle divergence required
// throughout.
TEST(CrashSweepTest, LazyRestartCrashPointsRecover) {
  FaultInjector injector;
  const uint64_t m = CountHits(SweepScenario("sweep_enum_lazy", &injector));
  ASSERT_GE(m, 100u) << "workload too small to sweep";

  const uint64_t stride = std::max<uint64_t>(1, m / 30);
  size_t swept = 0;
  for (uint64_t k = 1; k <= m; k += stride, ++swept) {
    Scenario s = CrashPoint(
        SweepScenario("sweep_lz" + std::to_string(k), &injector), k, swept);
    s.config.instant_restart = true;
    s.second_crash = swept % 3 == 2;
    ScenarioOutcome out = RunScenario(s);
    ASSERT_FALSE(out.fired.empty()) << "k=" << k << ": " << out.failure;
    EXPECT_EQ(out.failure, "") << "lazy " << Repro(s, out, m);
  }
  EXPECT_GE(swept, 25u);
}

// Group commit under fire: a crash inside the one force that covers a whole
// commit group must leave every member transaction all-or-nothing, and the
// transactions that did survive must form a prefix of the group's commit
// order (their records entered the log sequentially, and a torn force
// persists a prefix of the pending buffer). Swept over all fault actions and
// several torn-write cut fractions.
TEST(CrashSweepTest, GroupedForceCrashIsAtomicPerTransaction) {
  struct Case {
    FaultAction action;
    double cut;
  };
  constexpr Case kCases[] = {{FaultAction::kTornWrite, 0.15},
                             {FaultAction::kTornWrite, 0.4},
                             {FaultAction::kTornWrite, 0.6},
                             {FaultAction::kTornWrite, 0.85},
                             {FaultAction::kError, 0.5},
                             {FaultAction::kShortWrite, 0.5}};
  int case_idx = 0;
  for (const Case& cs : kCases) {
    SCOPED_TRACE(std::string(FaultActionName(cs.action)) + " cut " +
                 std::to_string(cs.cut));
    FaultInjector injector;
    SystemConfig config = SmallCacheConfig(
        "sweep_group_" + std::to_string(case_idx++), &injector);
    config.num_clients = 1;
    config.client_cache_pages = 16;  // No eviction forces mid-group.
    config.group_commit_window = 1000ull * 1000 * 1000;
    config.group_commit_max_txns = 4;
    auto system = System::Create(config).value();
    Client& c = system->client(0);
    injector.ResetCounts();
    injector.ArmPoint("client0.log.force", 1, cs.action, cs.cut);

    // Four transactions, two objects each; the 4th commit closes the group
    // and runs into the armed fault.
    auto oid = [](int t, SlotId slot) {
      return ObjectId{static_cast<PageId>(t), slot};
    };
    auto value = [&](int t) { return std::string(config.object_size, 'A' + t); };
    for (int t = 0; t < 4; ++t) {
      TxnId txn = c.Begin().value();
      ASSERT_TRUE(c.Write(txn, oid(t, 0), value(t)).ok());
      ASSERT_TRUE(c.Write(txn, oid(t, 1), value(t)).ok());
      Status st = c.Commit(txn);
      if (t < 3) {
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(c.log().force_count(), 0u);  // Still deferred.
      } else {
        EXPECT_FALSE(st.ok()) << "grouped force should have failed";
      }
    }
    ASSERT_TRUE(injector.triggered());

    ASSERT_TRUE(system->CrashClient(0).ok());
    ASSERT_TRUE(system->CrashServer().ok());
    ASSERT_TRUE(system->RecoverAll().ok());

    // Each transaction either committed whole (both objects carry its value)
    // or vanished whole (both carry the preloaded zero fill), and the
    // committed ones form a prefix of the commit order.
    const std::string preloaded(config.object_size, '\0');
    bool lost_seen = false;
    for (int t = 0; t < 4; ++t) {
      auto got0 = ProbeRead(system.get(), oid(t, 0));
      auto got1 = ProbeRead(system.get(), oid(t, 1));
      ASSERT_TRUE(got0.ok()) << got0.status().ToString();
      ASSERT_TRUE(got1.ok()) << got1.status().ToString();
      bool committed0 = got0.value() == value(t);
      bool committed1 = got1.value() == value(t);
      EXPECT_EQ(committed0, committed1) << "txn " << t << " torn in half";
      if (!committed0) {
        EXPECT_EQ(got0.value(), preloaded);
      }
      if (!committed1) {
        EXPECT_EQ(got1.value(), preloaded);
      }
      if (committed0) {
        EXPECT_FALSE(lost_seen)
            << "txn " << t << " survived after an earlier group member was "
            << "lost -- durable commits must form a prefix";
      } else {
        lost_seen = true;
      }
    }
    // A clean EIO leaves no bytes behind: the whole group must be gone.
    if (cs.action == FaultAction::kError) {
      EXPECT_TRUE(lost_seen);
    }
  }
}

// Picks up to `max` evenly spaced 1-based hit indices whose traced point
// satisfies `pred`.
template <typename Pred>
std::vector<uint64_t> CandidateHits(const std::vector<std::string>& trace,
                                    size_t max, Pred pred) {
  std::vector<uint64_t> all;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (pred(trace[i])) all.push_back(i + 1);
  }
  if (all.size() <= max) return all;
  std::vector<uint64_t> picked;
  for (size_t j = 0; j < max; ++j) {
    picked.push_back(all[j * all.size() / max]);
  }
  return picked;
}

// Teeth test 1: a recovery that trusts the log tail without the CRC scan
// must be caught by the sweep. A torn client-log force leaves garbage after
// the last complete frame; believing it is durable log breaks restart.
TEST(CrashSweepTest, BrokenLogTailScanIsCaught) {
  FaultInjector injector;
  injector.EnableTrace(true);
  CountHits(SweepScenario("sweep_teeth_log", &injector));
  std::vector<uint64_t> candidates =
      CandidateHits(injector.trace(), 8, [](const std::string& p) {
        return p.rfind("client", 0) == 0 &&
               p.size() >= 10 && p.compare(p.size() - 10, 10, ".log.force") == 0;
      });
  injector.EnableTrace(false);
  ASSERT_FALSE(candidates.empty()) << "workload never forces a client log";

  size_t failures = 0;
  for (uint64_t k : candidates) {
    Scenario s = SweepScenario("sweep_tl" + std::to_string(k), &injector);
    s.config.debug_trust_log_tail = true;
    s.hit = k;
    s.action = FaultAction::kTornWrite;
    s.cut = 0.5;
    if (!RunScenario(s).failure.empty()) ++failures;
  }
  EXPECT_GT(failures, 0u)
      << "skipping the log-tail CRC scan went undetected across "
      << candidates.size() << " torn-force crash points";
}

// Teeth test 2: a recovery that ignores the doublewrite journal must be
// caught. A torn in-place page write leaves a checksum-invalid page; only
// journal replay at reopen repairs it.
TEST(CrashSweepTest, BrokenJournalReplayIsCaught) {
  FaultInjector injector;
  injector.EnableTrace(true);
  CountHits(SweepScenario("sweep_teeth_disk", &injector));
  std::vector<uint64_t> candidates = CandidateHits(
      injector.trace(), 8,
      [](const std::string& p) { return p == "server.disk.page"; });
  injector.EnableTrace(false);
  ASSERT_FALSE(candidates.empty()) << "workload never writes a server page";

  size_t failures = 0;
  for (size_t j = 0; j < candidates.size(); ++j) {
    Scenario s =
        SweepScenario("sweep_sj" + std::to_string(candidates[j]), &injector);
    s.config.debug_skip_journal_replay = true;
    s.hit = candidates[j];
    s.action = FaultAction::kTornWrite;
    s.cut = kCuts[j % 3];
    if (!RunScenario(s).failure.empty()) ++failures;
  }
  EXPECT_GT(failures, 0u)
      << "skipping journal replay went undetected across "
      << candidates.size() << " torn-page crash points";
}

}  // namespace
}  // namespace finelog
