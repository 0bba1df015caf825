// Contention sweep: the scalable workload generator across client counts x
// Zipf skews, every cell oracle-verified (EXPERIMENTS.md E14's correctness
// twin). Three layers:
//
//   1. The sweep matrix: clients {4, 16, 64} x theta {0, 0.8, 1.2}. Every
//      cell must complete with zero oracle divergence and non-decreasing
//      durable page PSNs across the run.
//   2. Skew must actually concentrate contention: at fixed client count,
//      heavier theta produces at least as many lock conflicts
//      (WouldBlocks) as uniform access.
//   3. A defaults fingerprint: a generator run with one theta-0 mixed
//      phase is byte-identical (message counts, simulated clock, raw log
//      bytes) to a plain uniform Workload that never heard of the
//      generator -- the seam costs nothing when unused.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "tests/scenario.h"

namespace finelog {
namespace {

SystemConfig SweepConfig(const std::string& name, uint32_t clients) {
  SystemConfig config = SmallConfig(name);
  config.num_clients = clients;
  config.preloaded_pages = 32;
  config.client_cache_pages = 8;
  config.server_cache_pages = 64;
  return config;
}

struct CellResult {
  uint64_t commits = 0;
  uint64_t would_blocks = 0;
};

// Runs one (clients, theta) cell; returns a failure description or "".
std::string RunCell(uint32_t clients, double theta, CellResult* out) {
  std::string tag = "sweep_c" + std::to_string(clients) + "_t" +
                    std::to_string(static_cast<int>(theta * 10));
  // Hold total committed work roughly constant across client counts so the
  // matrix stays CI-sized while still crossing the old 64-client comfort
  // zone.
  uint32_t txns = std::max<uint32_t>(1, 48 / clients);

  WorkloadGenOptions options;
  options.seed = 1400 + clients;
  PhaseOptions mixed;
  mixed.kind = PhaseKind::kMixed;
  mixed.zipf_theta = theta;
  mixed.txns_per_client = txns;
  mixed.ops_per_txn = 3;
  mixed.write_fraction = 0.6;
  options.phases = {mixed};
  ScenarioRun<WorkloadGen> run(SweepConfig(tag, clients),
                               options);

  // Durable-PSN baseline after a slice of work, so monotonicity is checked
  // against a non-trivial on-disk state.
  run.Steps(clients * 6, "warmup");
  run.Flush("warmup flush");
  run.SnapshotPsns();
  run.Run();

  WorkloadStats totals = run.stats();
  run.Check(totals.commits == uint64_t{clients} * txns,
            "expected " + std::to_string(uint64_t{clients} * txns) +
                " commits, got " + std::to_string(totals.commits));
  out->commits = totals.commits;
  out->would_blocks = totals.would_blocks;
  return run.Verify();
}

TEST(ContentionSweepTest, MatrixVerifiesAtEveryScaleAndSkew) {
  constexpr uint32_t kClients[] = {4, 16, 64};
  constexpr double kThetas[] = {0.0, 0.8, 1.2};
  for (uint32_t clients : kClients) {
    CellResult uniform_cell;
    for (double theta : kThetas) {
      SCOPED_TRACE("clients=" + std::to_string(clients) +
                   " theta=" + std::to_string(theta));
      CellResult cell;
      EXPECT_EQ(RunCell(clients, theta, &cell), "");
      EXPECT_GT(cell.commits, 0u);
      if (theta == 0.0) uniform_cell = cell;
      // Layer 2: skew cannot produce *less* contention than uniform at
      // the same scale (it concentrates accesses on the head ranks).
      if (theta >= 1.0 && clients >= 16) {
        EXPECT_GE(cell.would_blocks, uniform_cell.would_blocks);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 3: defaults fingerprint.
// ---------------------------------------------------------------------------

// A fingerprint of one drive of the four-client sweep deployment.
template <typename Driver, typename Options>
Fingerprint DriveFingerprint(const std::string& tag, const Options& options) {
  ScenarioRun<Driver> run(SweepConfig(tag, 4), options);
  run.Run();
  EXPECT_EQ(run.Verify(/*flush=*/false), "");
  Fingerprint fp = run.TakeFingerprint();
  EXPECT_FALSE(fp.log_bytes.empty());
  return fp;
}

// One theta-0 mixed phase through the generator must be byte-identical to
// a plain uniform Workload with the matching per-phase seed: no extra RNG
// draws, no extra messages, no clock skew. This is the regression fence
// that keeps the generator seam free for every pre-existing test.
TEST(ContentionSweepTest, ThetaZeroFingerprintMatchesPlainWorkload) {
  constexpr uint64_t kSeed = 9001;
  constexpr uint32_t kTxns = 8;
  constexpr uint32_t kOps = 4;
  constexpr double kWriteFraction = 0.7;

  WorkloadGenOptions gen_options;
  gen_options.seed = kSeed;
  PhaseOptions phase;
  phase.kind = PhaseKind::kMixed;
  phase.zipf_theta = 0.0;
  phase.txns_per_client = kTxns;
  phase.ops_per_txn = kOps;
  phase.write_fraction = kWriteFraction;
  gen_options.phases = {phase};
  Fingerprint via_gen = DriveFingerprint<WorkloadGen>("fp_gen", gen_options);

  WorkloadOptions options;
  // The generator derives a per-phase stream from its base seed; phase 0
  // uses exactly this offset.
  options.seed = kSeed + 0x9E37;
  options.pattern = AccessPattern::kUniform;
  options.txns_per_client = kTxns;
  options.ops_per_txn = kOps;
  options.write_fraction = kWriteFraction;
  Fingerprint via_plain = DriveFingerprint<Workload>("fp_plain", options);

  EXPECT_EQ(via_gen.total_messages, via_plain.total_messages);
  EXPECT_EQ(via_gen.total_items, via_plain.total_items);
  EXPECT_EQ(via_gen.total_bytes, via_plain.total_bytes);
  EXPECT_EQ(via_gen.sim_us, via_plain.sim_us);
  EXPECT_EQ(via_gen.forces, via_plain.forces);
  EXPECT_EQ(via_gen.commits, via_plain.commits);
  EXPECT_TRUE(via_gen.log_bytes == via_plain.log_bytes)
      << "client log diverged (" << via_gen.log_bytes.size() << " vs "
      << via_plain.log_bytes.size() << " bytes)";
}

}  // namespace
}  // namespace finelog
