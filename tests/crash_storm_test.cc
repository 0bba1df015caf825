// Crash storms: multi-round randomized workloads with repeated crash +
// recovery cycles -- the harness that hardened the recovery protocol.
// Each round runs a burst of interleaved transactions, crashes a randomized
// subset of nodes (possibly everything), recovers, and continues. The
// invariants, checked continuously and at the end:
//   * reads never observe a value other than the oracle's expected one,
//   * after the final quiesce, every committed update is present and every
//     uncommitted one absent.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "tests/scenario.h"

namespace finelog {
namespace {

enum class CrashKind { kClients, kServer, kComplex, kEverything };

struct StormCase {
  const char* name;
  CrashKind kind;
  AccessPattern pattern;
  uint64_t seed;
  LockGranularity granularity = LockGranularity::kObject;
  SamePageUpdatePolicy same_page = SamePageUpdatePolicy::kMergeCopies;
  double resize_reserve = 0.0;
};

// Prints as the case's name and seed, which is also the test name suffix:
// gtest would print the raw bytes otherwise, name pointer included, and
// gtest_discover_tests puts that print into every ctest name.
void PrintTo(const StormCase& sc, std::ostream* os) {
  *os << sc.name << "_s" << sc.seed;
}

// Four clients with six-page caches running the case's workload.
SystemConfig StormConfig(const StormCase& sc, const std::string& prefix) {
  SystemConfig config =
      SmallConfig(prefix + sc.name + "_" + std::to_string(sc.seed));
  config.num_clients = 4;
  config.client_cache_pages = 6;
  config.lock_granularity = sc.granularity;
  config.same_page_policy = sc.same_page;
  config.resize_reserve = sc.resize_reserve;
  return config;
}

WorkloadOptions StormOptions(const StormCase& sc) {
  WorkloadOptions options;
  options.txns_per_client = 14;
  options.ops_per_txn = 5;
  options.write_fraction = 0.6;
  options.pattern = sc.pattern;
  options.seed = sc.seed;
  return options;
}

class CrashStormTest : public ::testing::TestWithParam<StormCase> {};

TEST_P(CrashStormTest, SurvivesRepeatedCrashes) {
  const StormCase& sc = GetParam();
  ScenarioRun<> run(StormConfig(sc, "storm_"), StormOptions(sc));

  Rng rng(sc.seed * 7919 + 13);
  for (int round = 0; round < 8; ++round) {
    if (run.Steps(15 + rng.Uniform(45))) break;
    if (round % 2 == 1) continue;

    if (sc.kind != CrashKind::kServer) {
      size_t n = run.system().num_clients();
      size_t victims =
          sc.kind == CrashKind::kEverything ? n : 1 + rng.Uniform(2);
      for (size_t v = 0; v < victims; ++v) {
        run.CrashClient(sc.kind == CrashKind::kEverything ? v
                                                          : rng.Uniform(n));
      }
    }
    if (sc.kind != CrashKind::kClients) run.CrashServer();
    run.RecoverAll();
    EXPECT_EQ(run.stats().read_mismatches, 0u)
        << "stale read after round " << round;
  }

  ASSERT_TRUE(run.Run()) << run.failure();
  EXPECT_GT(run.stats().commits, 0u);
  EXPECT_EQ(run.Verify(), "");
}

constexpr StormCase kStorms[] = {
    {"clients_uniform", CrashKind::kClients, AccessPattern::kUniform, 301},
    {"clients_hotcold", CrashKind::kClients, AccessPattern::kHotCold, 302},
    {"clients_shared", CrashKind::kClients, AccessPattern::kSharedHot, 303},
    {"server_uniform", CrashKind::kServer, AccessPattern::kUniform, 304},
    {"server_hotcold", CrashKind::kServer, AccessPattern::kHotCold, 305},
    {"server_shared", CrashKind::kServer, AccessPattern::kSharedHot, 306},
    {"complex_uniform", CrashKind::kComplex, AccessPattern::kUniform, 307},
    {"complex_hotcold", CrashKind::kComplex, AccessPattern::kHotCold, 308},
    {"complex_shared", CrashKind::kComplex, AccessPattern::kSharedHot, 309},
    {"complex_private", CrashKind::kComplex, AccessPattern::kPrivate, 310},
    {"everything_uniform", CrashKind::kEverything, AccessPattern::kUniform, 311},
    {"everything_hotcold", CrashKind::kEverything, AccessPattern::kHotCold, 312},
    {"everything_shared", CrashKind::kEverything, AccessPattern::kSharedHot, 313},
    {"complex_hotcold", CrashKind::kComplex, AccessPattern::kHotCold, 314},
    {"complex_shared", CrashKind::kComplex, AccessPattern::kSharedHot, 315},
    {"everything_uniform", CrashKind::kEverything, AccessPattern::kUniform, 316},
    // Baseline policies under the harshest crash kinds. (The page-locking
    // baseline is exercised up to complex crashes; the all-nodes-at-once
    // storm is a documented limitation of that baseline's approximated
    // recovery -- see DESIGN.md section 8, item 14.)
    {"pagelock_complex", CrashKind::kComplex, AccessPattern::kHotCold, 317,
     LockGranularity::kPage},
    {"token_server", CrashKind::kServer, AccessPattern::kSharedHot, 319,
     LockGranularity::kObject, SamePageUpdatePolicy::kUpdateToken},
    {"token_complex", CrashKind::kComplex, AccessPattern::kSharedHot, 320,
     LockGranularity::kObject, SamePageUpdatePolicy::kUpdateToken},
    // Footnote-3 reservation active during crash storms.
    {"reserve_complex", CrashKind::kComplex, AccessPattern::kHotCold, 321,
     LockGranularity::kObject, SamePageUpdatePolicy::kMergeCopies, 1.0},
    {"reserve_everything", CrashKind::kEverything, AccessPattern::kSharedHot,
     322, LockGranularity::kObject, SamePageUpdatePolicy::kMergeCopies, 1.0},
};

INSTANTIATE_TEST_SUITE_P(Storms, CrashStormTest, ::testing::ValuesIn(kStorms),
                         ::testing::PrintToStringParamName());

// The same storm with instant restart on (DESIGN.md section 18): after every
// server crash the workload resumes against an unrecovered backlog, with
// three extra mid-recovery hazards layered in round-robin --
//   * an armed recovery.server.lazy_repair interruption (one repair degrades
//     to WouldBlock(kRecoveringPage); the workload's retry absorbs it),
//   * a second crash of everything while pages are still unrecovered,
//   * a partial drain (budget 1-3) so later rounds crash a half-repaired
//     backlog.
// The oracle invariants are identical: no stale read ever, and zero
// divergence after the final quiesce.
class InstantRestartStormTest : public ::testing::TestWithParam<StormCase> {};

TEST_P(InstantRestartStormTest, SurvivesRepeatedCrashesMidRecovery) {
  const StormCase& sc = GetParam();
  FaultInjector injector;
  SystemConfig config = StormConfig(sc, "lazystorm_");
  config.instant_restart = true;
  config.fault_injector = &injector;
  ScenarioRun<> run(config, StormOptions(sc));

  Rng rng(sc.seed * 104729 + 7);
  for (int round = 0; round < 8; ++round) {
    if (run.Steps(15 + rng.Uniform(45))) break;
    if (round % 2 == 1) continue;

    run.CrashAll();
    run.RecoverAll();
    switch (round / 2 % 3) {
      case 0:
        // Interrupt the next lazy repair mid-stream.
        injector.ArmPoint("recovery.server.lazy_repair", 1,
                          FaultAction::kError, 0.5);
        break;
      case 1:
        // Second crash while N pages are still unrecovered.
        if (run.system().RecoveryPagesPending() > 0) {
          run.CrashAll();
          run.RecoverAll();
        }
        break;
      case 2: {
        // Partial drain: later rounds crash a half-repaired backlog.
        Status st = run.system().DrainRecovery(1 + rng.Uniform(3));
        run.Check(st.ok() || st.IsWouldBlock(),
                  "partial drain: " + st.ToString());
        break;
      }
    }
    EXPECT_EQ(run.stats().read_mismatches, 0u)
        << "stale read after round " << round;
  }

  ASSERT_TRUE(run.Run()) << run.failure();
  EXPECT_GT(run.stats().commits, 0u);
  // Verify() disarms an unconsumed interruption and drains the backlog.
  EXPECT_EQ(run.Verify(), "");
}

constexpr StormCase kLazyStorms[] = {
    {"lazy_uniform", CrashKind::kEverything, AccessPattern::kUniform, 701},
    {"lazy_hotcold", CrashKind::kEverything, AccessPattern::kHotCold, 702},
    {"lazy_shared", CrashKind::kEverything, AccessPattern::kSharedHot, 703},
    {"lazy_private", CrashKind::kEverything, AccessPattern::kPrivate, 704},
    {"lazy_token", CrashKind::kEverything, AccessPattern::kSharedHot, 705,
     LockGranularity::kObject, SamePageUpdatePolicy::kUpdateToken},
    {"lazy_reserve", CrashKind::kEverything, AccessPattern::kHotCold, 706,
     LockGranularity::kObject, SamePageUpdatePolicy::kMergeCopies, 1.0},
};

INSTANTIATE_TEST_SUITE_P(LazyStorms, InstantRestartStormTest,
                         ::testing::ValuesIn(kLazyStorms),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace finelog
