// Chaos sweep: the standard multi-client workload under a matrix of wire
// fault mixes x seeds, with oracle verification that committed state
// survives, durable page PSNs stay monotone across a full crash/recovery,
// and the log prefix that recovery replays agrees with every committed
// update (DESIGN.md section 13).
//
// Three layers:
//   1. A defaults fingerprint: with every network-fault knob off, a seeded
//      run is byte-identical (message counts, simulated clock, raw client
//      log bytes) to a run that never heard of NetFaultConfig.
//   2. The matrix: 3 fault mixes x 8 net seeds; each run must complete,
//      survive a full crash with faults still live on the wire, recover,
//      and verify with zero oracle divergence and non-decreasing durable
//      PSNs. Per-seed summary lines go to stdout and, when the
//      FINELOG_CHAOS_SUMMARY environment variable names a file, into that
//      file (the CI chaos-smoke job uploads it as an artifact).
//   3. Combined wire + disk faults: the crash-point sweep re-run with a
//      lossy network underneath -- a one-shot disk fault fires mid-run,
//      every node crashes, and recovery + resume + verify must still hold.
//
// tests/scenario.h runs every layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "tests/scenario.h"

namespace finelog {
namespace {

constexpr uint64_t kWorkloadSeed = 4242;

Scenario ChaosScenario(const std::string& name, const NetFaultConfig& net,
                       FaultInjector* injector = nullptr) {
  Scenario s;
  s.config = SmallCacheConfig(name, injector);
  s.config.net_faults = net;
  s.workload = SeededWorkload(6, kWorkloadSeed);
  return s;
}

constexpr char kSummaryEnv[] = "FINELOG_CHAOS_SUMMARY";

// ---------------------------------------------------------------------------
// Layer 1: defaults fingerprint.
// ---------------------------------------------------------------------------

// With every fault rate at zero and fail points off, the delivery layer and
// RPC chokepoint must be invisible: same message counts, same simulated
// clock, same log bytes -- even when the auxiliary knobs (timeout, retry
// budget, dedup cache size, seed) are set to unusual values.
TEST(ChaosNetTest, DefaultsFingerprintIsByteIdentical) {
  Fingerprint base = ExpectFingerprint(SmallConfig("chaos_fp_default"));

  SystemConfig tuned = SmallConfig("chaos_fp_tuned");
  tuned.net_faults.rpc_timeout_us = 12345;
  tuned.net_faults.max_attempts = 2;
  tuned.net_faults.backoff_base_us = 7;
  tuned.net_faults.dedup_cache_size = 1;
  tuned.net_faults.seed = 987654321;
  Fingerprint off = ExpectFingerprint(tuned);

  EXPECT_EQ(base, off);
}

// ---------------------------------------------------------------------------
// Layer 2: the fault-mix x seed matrix.
// ---------------------------------------------------------------------------

struct FaultMix {
  const char* name;
  double drop, dup, reorder, delay;
};

// The tentpole matrix: every mix x seed cell completes, survives a crash
// with faults live, recovers, and verifies with zero divergence. Recovery
// traffic rides the exempt recovery plane (fault_recovery off).
TEST(ChaosNetTest, MatrixPreservesInvariants) {
  constexpr FaultMix kMixes[] = {
      {"light", 0.02, 0.02, 0.02, 0.02},
      {"drop_heavy", 0.10, 0.05, 0.05, 0.0},
      {"chaos", 0.15, 0.10, 0.10, 0.10},
  };
  constexpr uint64_t kNetSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

  uint64_t total_commits = 0;
  uint64_t total_drops = 0;
  for (const FaultMix& mix : kMixes) {
    for (uint64_t seed : kNetSeeds) {
      SCOPED_TRACE(std::string(mix.name) + " net_seed=" + std::to_string(seed));
      NetFaultConfig net;
      net.drop_rate = mix.drop;
      net.dup_rate = mix.dup;
      net.reorder_rate = mix.reorder;
      net.delay_rate = mix.delay;
      net.seed = seed;
      Scenario s = ChaosScenario(
          "chaos_" + std::string(mix.name) + std::to_string(seed), net);
      s.crash_all = true;
      ScenarioOutcome out = RunScenario(s);
      EXPECT_EQ(out.failure, "");
      total_commits += out.stats.commits;
      total_drops += out.net_drops;
      std::ostringstream line;
      line << "mix=" << mix.name << " net_seed=" << seed
           << " commits=" << out.stats.commits << " drops=" << out.net_drops
           << " result=" << (out.failure.empty() ? "ok" : out.failure);
      AppendSummary("chaos", kSummaryEnv, line.str());
    }
  }
  // The matrix must actually have exercised the fault paths.
  EXPECT_GT(total_commits, 0u);
  EXPECT_GT(total_drops, 0u);
}

// ---------------------------------------------------------------------------
// Layer 3: combined wire faults + disk crash points.
// ---------------------------------------------------------------------------

// A lossy-but-survivable mix for the combined runs. Retries change the
// message schedule, so the enumeration pass below runs under the *same*
// mix -- hit k indexes the same disk operation in both passes. The resumed
// workload runs under the same lossy network: the recovered system must
// absorb retries, dups and ghosts exactly like the pre-crash one.
NetFaultConfig CombinedMix() {
  NetFaultConfig net;
  net.drop_rate = 0.05;
  net.dup_rate = 0.02;
  net.reorder_rate = 0.02;
  net.seed = 31;
  return net;
}

TEST(ChaosNetTest, CombinedWireFaultAndCrashPointRecovers) {
  FaultInjector injector;
  const uint64_t m = CountHits(
      ChaosScenario("chaos_combined_enum", CombinedMix(), &injector));
  ASSERT_GE(m, 10u) << "workload too small to sweep";

  struct Case {
    uint64_t k;
    FaultAction action;
    double cut;
  };
  const Case kCases[] = {
      {std::max<uint64_t>(1, m / 4), FaultAction::kTornWrite, 0.5},
      {std::max<uint64_t>(1, m / 2), FaultAction::kError, 0.5},
      {std::max<uint64_t>(1, 3 * m / 4), FaultAction::kShortWrite, 0.25},
  };
  for (const Case& cs : kCases) {
    SCOPED_TRACE("k=" + std::to_string(cs.k) + " of " + std::to_string(m) +
                 " action=" + std::string(FaultActionName(cs.action)));
    Scenario s = ChaosScenario("chaos_combined_" + std::to_string(cs.k),
                               CombinedMix(), &injector);
    s.hit = cs.k;
    s.action = cs.action;
    s.cut = cs.cut;
    std::string failure = RunScenario(s).failure;
    EXPECT_EQ(failure, "");
    AppendSummary("chaos", kSummaryEnv,
                  "combined k=" + std::to_string(cs.k) + "/" +
                      std::to_string(m) +
                      " action=" + std::string(FaultActionName(cs.action)) +
                      " result=" + (failure.empty() ? "ok" : failure));
  }
}

}  // namespace
}  // namespace finelog
