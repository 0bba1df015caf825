// One runner for every crash, chaos and fingerprint test (DESIGN.md
// sections 10 and 13).
//
// A scenario is a SystemConfig, workload options, a fault schedule and the
// checks that must hold at the end:
//   - faults: a one-shot fail point armed at a global hit (every node
//     crashes where it fires), live net faults (config.net_faults, healed
//     only for the final verification), a crash of everything once the
//     workload completes, a second crash while pages await lazy repair,
//     and (under instant restart) an interrupted lazy repair;
//   - checks: no stale read, the oracle agrees with every object, an
//     instant restart's backlog drains, and no durable page PSN goes
//     backwards across the crash.
// RunScenario plays one scenario and returns the run's Fingerprint plus its
// first failure as a string, so sweeps can count failures instead of
// aborting. Scripted tests (partitions, failovers, crash storms, soaks)
// drive a ScenarioRun directly: it owns the system, oracle and workload
// driver, keeps the crash bookkeeping of all three in step, and records the
// first failed check.

#ifndef FINELOG_TESTS_SCENARIO_H_
#define FINELOG_TESTS_SCENARIO_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/system.h"
#include "core/workload.h"
#include "core/workload_gen.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace finelog {

// SmallConfig with caches small enough that the workload ships client pages
// and evicts server pages, so it reaches every fail-point family: client log
// appends and forces, server replacement-log appends and forces, and
// journaled page writes.
inline SystemConfig SmallCacheConfig(const std::string& name,
                                     FaultInjector* injector = nullptr) {
  SystemConfig config = SmallConfig(name);
  config.client_cache_pages = 4;
  config.server_cache_pages = 8;
  config.fault_injector = injector;
  return config;
}

// The seeded hot/cold workload every sweep and fingerprint runs.
inline WorkloadOptions SeededWorkload(uint32_t txns_per_client, uint64_t seed) {
  WorkloadOptions options;
  options.txns_per_client = txns_per_client;
  options.ops_per_txn = 4;
  options.write_fraction = 0.7;
  options.pattern = AccessPattern::kHotCold;
  options.seed = seed;
  return options;
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Reads one object through a fresh transaction on client 0, retrying lock
// conflicts.
inline Result<std::string> ProbeRead(System* system, ObjectId oid) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto txn = system->client(0).Begin();
    if (!txn.ok()) return txn.status();
    auto got = system->client(0).Read(txn.value(), oid);
    if (got.ok()) {
      FINELOG_RETURN_IF_ERROR(system->client(0).Commit(txn.value()));
      return got;
    }
    FINELOG_RETURN_IF_ERROR(system->client(0).Abort(txn.value()));
    if (!got.status().IsWouldBlock()) return got.status();
  }
  return Status::Internal("probe read never granted");
}

// Prints a sweep's summary line as "[tag] line" and appends it to the file
// the environment variable `env` names, if any (CI uploads it).
inline void AppendSummary(const std::string& tag, const char* env,
                          const std::string& line) {
  std::printf("[%s] %s\n", tag.c_str(), line.c_str());
  const char* path = std::getenv(env);
  if (path == nullptr || path[0] == '\0') return;
  std::ofstream out(path, std::ios::app);
  out << line << '\n';
}

// Observable fingerprint of one run: every channel number, the simulated
// clock, client 0's forces and commits, and the exact bytes of its log.
struct Fingerprint {
  uint64_t total_messages = 0;
  uint64_t total_items = 0;
  uint64_t total_bytes = 0;
  uint64_t sim_us = 0;
  uint64_t forces = 0;
  uint64_t commits = 0;
  std::string log_bytes;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

inline WorkloadStats StatsOf(const Workload& w) { return w.stats(); }
inline WorkloadStats StatsOf(const WorkloadGen& g) {
  return g.TotalWorkloadStats();
}

// One system, its oracle and a workload driver (Workload or WorkloadGen).
// Every step records the first failed check; after a failure the steps do
// nothing, so a script reads straight through and reports failure() once.
template <typename Driver = Workload>
class ScenarioRun {
 public:
  template <typename Options>
  ScenarioRun(SystemConfig config, Options options)
      : config_(std::move(config)),
        system_(System::Create(config_).value()),
        driver_(system_.get(), &oracle_, std::move(options)) {}
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  System& system() { return *system_; }
  Oracle& oracle() { return oracle_; }
  Driver& driver() { return driver_; }
  const SystemConfig& config() const { return config_; }
  WorkloadStats stats() const { return StatsOf(driver_); }

  bool ok() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }

  // Records `what` unless `holds` or an earlier check failed; returns ok().
  bool Check(bool holds, const std::string& what) {
    if (ok() && !holds) failure_ = what;
    return ok();
  }
  bool Check(const Status& st, const std::string& what) {
    return Check(st.ok(), what + ": " + st.ToString());
  }

  // Drives at most `steps` operations. True once the workload is complete
  // or the run has failed, so `while (!run.Steps(n))` always ends.
  bool Steps(uint64_t steps, const std::string& what = "steps") {
    if (!ok()) return true;
    auto done = driver_.RunSteps(steps);
    return !Check(done.status(), what) || done.value();
  }
  bool Run(const std::string& what = "run") {
    return ok() && Check(driver_.Run(), what);
  }
  bool Flush(const std::string& what = "flush") {
    return ok() && Check(system_->FlushEverything(), what);
  }

  // Crashes client `i` unless it is down already; its open transaction
  // leaves the oracle and the driver.
  bool CrashClient(size_t i) {
    if (!ok() || system_->client(i).crashed()) return ok();
    if (!Check(system_->CrashClient(i), "crash client " + std::to_string(i))) {
      return false;
    }
    oracle_.CrashClient(static_cast<ClientId>(i));
    driver_.OnClientCrashed(i);
    return true;
  }
  bool CrashServer() {
    return ok() && Check(system_->CrashServer(), "crash server");
  }
  // Crashes every client, then the server. Volatile state is dropped;
  // whatever a fault left half-written on disk stays as it is.
  bool CrashAll() {
    for (size_t i = 0; i < system_->num_clients(); ++i) CrashClient(i);
    return CrashServer();
  }
  bool RecoverAll() {
    if (!ok() || !Check(system_->RecoverAll(), "recovery")) return false;
    for (size_t i = 0; i < system_->num_clients(); ++i) {
      if (!system_->client(i).crashed()) driver_.OnClientRecovered(i);
    }
    return true;
  }

  // Remembers every page's durable PSN for Verify() to compare against.
  void SnapshotPsns() { psns_ = ReadDurablePsns(config_); }

  // The final checks: no stale read, an instant restart's backlog drains,
  // the oracle agrees with every object, and no durable PSN is below its
  // snapshot. With `flush` the wire is healed and every cache flushed
  // first. Returns the first failure of the run, empty if none.
  const std::string& Verify(bool flush = true) {
    const uint64_t stale = stats().read_mismatches;
    Check(stale == 0, std::to_string(stale) + " stale reads");
    if (config_.instant_restart && ok()) {
      // An armed interruption may be unconsumed; it must not stop the drain.
      if (config_.fault_injector != nullptr) config_.fault_injector->Disarm();
      Check(system_->DrainRecovery(), "drain");
      Check(system_->RecoveryPagesPending() == 0,
            "recovery backlog did not drain");
    }
    if (flush && ok()) {
      // Oracle::Verify skips objects it cannot read, so reads must not be
      // lossy while it runs.
      system_->rpc().faults() = NetFaultConfig{};
      Flush();
    }
    if (ok()) {
      auto mismatches = oracle_.Verify(system_.get(), 0);
      if (Check(mismatches.status(), "verify")) {
        Check(mismatches.value() == 0,
              std::to_string(mismatches.value()) + " oracle mismatches");
      }
    }
    if (!psns_.empty() && ok()) {
      std::vector<uint64_t> after = ReadDurablePsns(config_);
      for (size_t p = 0; p < psns_.size(); ++p) {
        Check(after[p] >= psns_[p],
              "page " + std::to_string(p) + " durable PSN went backwards: " +
                  std::to_string(psns_[p]) + " -> " + std::to_string(after[p]));
      }
    }
    return failure_;
  }

  Fingerprint TakeFingerprint() {
    Fingerprint fp;
    fp.total_messages = system_->channel().total_messages();
    fp.total_items = system_->channel().total_items();
    fp.total_bytes = system_->channel().total_bytes();
    fp.sim_us = system_->clock().now_us();
    fp.forces = system_->client(0).log().force_count();
    fp.commits = system_->client(0).commits();
    fp.log_bytes = ReadFile(config_.dir + "/client0.log");
    return fp;
  }

 private:
  SystemConfig config_;
  std::unique_ptr<System> system_;
  Oracle oracle_;
  Driver driver_;
  std::vector<uint64_t> psns_;
  std::string failure_;
};

struct Scenario {
  SystemConfig config;
  WorkloadOptions workload = SeededWorkload(8, 99);

  // Fault schedule, in the order it plays out. With config.fault_injector
  // set, the workload runs one step at a time (the chunk size is part of the
  // schedule), and hits are counted from the end of bootstrap, which
  // performs the same hit prefix in every run.
  uint64_t hit = 0;  // Arms a one-shot fault here; every node crashes when
                     // it fires, recovers, and the workload resumes.
  FaultAction action = FaultAction::kError;
  double cut = 0.5;
  bool crash_all = false;     // Crash everything once the run ends.
  bool second_crash = false;  // Crash everything again while pages still
                              // await lazy repair.

  // Checks. Without `verify` the scenario only runs (to count fail-point
  // hits); without `flush` the oracle reads the caches as the run left them.
  bool verify = true;
  bool flush = true;
  std::function<void(System&)> inspect;  // Extra checks, after Verify().
};

struct ScenarioOutcome {
  std::string failure;      // First failed check; empty when all held.
  std::string fired;        // Fail point the armed fault fired at.
  uint64_t fault_hits = 0;  // Fail-point hits before the crash.
  uint64_t net_drops = 0;   // Messages the wire dropped before the crash.
  WorkloadStats stats;
  Fingerprint fingerprint;
};

// Settles an in-doubt commit by reading back one object whose value differs
// between the committed and the aborted outcome. Recovery made the
// transaction atomic, so one such object decides it (Verify cross-checks
// every other object).
inline void SettleInDoubt(ScenarioRun<>* run, TxnId txn) {
  const auto* writes = run->oracle().InDoubt(txn);
  if (writes == nullptr || !run->ok()) return;
  bool committed = false;
  for (const auto& [oid, value] : *writes) {
    auto prior = run->oracle().CommittedValue(oid);
    std::optional<std::string> if_aborted =
        prior.has_value() ? *prior
                          : std::optional<std::string>(
                                std::string(run->config().object_size, '\0'));
    if (value == if_aborted) continue;
    auto got = ProbeRead(&run->system(), oid);
    if (!run->Check(got.status(), "in-doubt probe")) return;
    committed = value.has_value() && got.value() == *value;
    break;
  }
  run->oracle().ResolveInDoubt(txn, committed);
}

// Plays `s`: drives the workload (under an injector one step at a time,
// until the armed fault fires), crashes and recovers on schedule, resumes
// the workload to completion and runs the final checks.
inline ScenarioOutcome RunScenario(const Scenario& s) {
  FaultInjector* injector = s.config.fault_injector;
  if (injector != nullptr) injector->Disarm();
  ScenarioRun<> run(s.config, s.workload);
  ScenarioOutcome out;
  std::optional<TxnId> in_doubt;
  if (injector != nullptr) {
    injector->ResetCounts();
    if (s.hit > 0) injector->ArmGlobalHit(s.hit, s.action, s.cut);
    bool complete = false;
    while (!injector->triggered() && !complete && run.ok()) {
      auto done = run.driver().RunSteps(1);
      if (done.ok()) {
        complete = done.value();
        continue;
      }
      run.Check(injector->triggered(),
                "uninjected workload error: " + done.status().ToString());
      // A failed Commit() is in doubt: its commit record may have reached
      // the log before the failure was reported.
      const auto& fail = run.driver().last_failure();
      if (fail.has_value() && fail->during_commit) {
        run.oracle().MarkInDoubt(fail->txn);
        in_doubt = fail->txn;
      }
      break;
    }
    out.fault_hits = injector->total_hits();
    run.Check(s.hit == 0 || injector->triggered(),
              "fault at hit " + std::to_string(s.hit) + " never fired");
    if (injector->triggered()) out.fired = injector->fired()->point;
  } else {
    run.Run();
  }
  out.net_drops = run.system().metrics().Get(Counter::kNetDrops);

  if (!out.fired.empty() || s.crash_all) {
    run.SnapshotPsns();
    run.CrashAll();
    run.RecoverAll();
    if (s.second_crash && run.ok() && run.system().RecoveryPagesPending() > 0) {
      run.CrashAll();
      run.RecoverAll();
    }
    if (s.config.instant_restart && injector != nullptr) {
      // One mid-recovery repair degrades to WouldBlock(kRecoveringPage); the
      // workload's generic retry must absorb it.
      injector->ArmPoint("recovery.server.lazy_repair", 1, FaultAction::kError,
                         0.5);
    }
    if (in_doubt.has_value()) SettleInDoubt(&run, *in_doubt);
  }
  if (s.verify) {
    run.Run("resume");
    run.Verify(s.flush);
  }
  out.stats = run.stats();
  out.fingerprint = run.TakeFingerprint();
  if (s.inspect) s.inspect(run.system());
  out.failure = run.failure();
  return out;
}

// Runs `s` with its injector as a pure counting probe and returns the
// number of fail-point hits the workload performs. A crash point at any hit
// k up to that count replays the same schedule until k fires.
inline uint64_t CountHits(Scenario s) {
  s.hit = 0;
  s.verify = false;
  ScenarioOutcome out = RunScenario(s);
  EXPECT_EQ(out.failure, "");
  return out.fault_hits;
}

// Runs a flag-off fingerprint scenario, which verifies the caches as the
// workload left them, and expects it to pass with a non-empty client log.
inline Fingerprint ExpectFingerprint(Scenario s) {
  s.flush = false;
  ScenarioOutcome out = RunScenario(s);
  EXPECT_EQ(out.failure, "");
  EXPECT_FALSE(out.fingerprint.log_bytes.empty());
  return out.fingerprint;
}
inline Fingerprint ExpectFingerprint(SystemConfig config) {
  Scenario s;
  s.config = std::move(config);
  return ExpectFingerprint(s);
}

}  // namespace finelog

#endif  // FINELOG_TESTS_SCENARIO_H_
