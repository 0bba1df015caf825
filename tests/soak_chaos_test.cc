// Long-running soak: the phase-based workload generator under continuous
// chaos, combining every fault family from the chaos and liveness sweeps
// in ONE run (they are elsewhere proven separately):
//
//   - a lossy wire (drop/dup/reorder/delay) for the whole soak,
//   - a network partition of one client mid-phase, driven through lease
//     expiry, presumed-dead declaration, healing, and zombie recovery,
//   - a full crash of another client mid-merge-storm, recovered via
//     ordinary client crash recovery.
//
// Survivors must finish every phase quota; both interrupted clients must
// rejoin and finish the remaining quotas after recovery; and the run ends
// with zero oracle divergence and monotone durable PSNs. Group commit
// stays OFF here on purpose: a crash with an open commit group loses the
// unforced tail by design, which is group_commit_test territory, not a
// soak invariant.
//
// Budget: one seed, CI-sized (a few thousand driver steps). The cheap
// per-cell matrix sweeps stay in chaos_net_test / chaos_partition_test.

#include <gtest/gtest.h>

#include <string>

#include "tests/scenario.h"
#include "util/metrics.h"

namespace finelog {
namespace {

constexpr size_t kPartitionedClient = 3;
constexpr size_t kCrashedClient = 1;
constexpr uint64_t kNetSeed = 7;

NetFaultConfig LightMix() {
  NetFaultConfig net;
  net.drop_rate = 0.02;
  net.dup_rate = 0.02;
  net.reorder_rate = 0.02;
  net.delay_rate = 0.02;
  net.seed = kNetSeed;
  return net;
}

SystemConfig SoakConfig() {
  SystemConfig config = SmallCacheConfig("soak_chaos");
  config.num_clients = 4;
  config.server_cache_pages = 16;
  config.heartbeat_interval_us = 2000;
  // Sized like the partition sweep: one fully-burned RPC against the
  // partition costs ~130ms simulated and a partitioned client's driver
  // step can burn two; survivors renew within that comfortably.
  config.lease_duration_us = 800000;
  return config;
}

WorkloadGenOptions SoakPhases() {
  WorkloadGenOptions options;
  options.seed = 20260809;
  // Phase 0 is deliberately long: the partition, declaration, healing and
  // zombie recovery all happen inside it, so the merge storm never runs
  // against the dead client's quarantined hot pages.
  PhaseOptions skewed;
  skewed.kind = PhaseKind::kMixed;
  skewed.zipf_theta = 0.8;
  skewed.txns_per_client = 24;
  skewed.ops_per_txn = 4;
  skewed.write_fraction = 0.6;
  PhaseOptions storm;
  storm.kind = PhaseKind::kMergeStorm;
  storm.storm_pages = 2;
  storm.txns_per_client = 3;
  storm.ops_per_txn = 3;
  storm.write_fraction = 0.8;
  PhaseOptions cooldown;
  cooldown.kind = PhaseKind::kMixed;
  cooldown.zipf_theta = 0.0;
  cooldown.txns_per_client = 4;
  cooldown.ops_per_txn = 3;
  cooldown.write_fraction = 0.5;
  options.phases = {skewed, storm, cooldown};
  return options;
}

uint64_t TotalQuota(const WorkloadGenOptions& options) {
  uint64_t total = 0;
  for (const PhaseOptions& p : options.phases) total += p.txns_per_client;
  return total;
}

TEST(SoakChaosTest, ContinuousChaosSoakPreservesInvariants) {
  const WorkloadGenOptions options = SoakPhases();
  ScenarioRun<WorkloadGen> run(SoakConfig(), options);
  System& system = run.system();
  WorkloadGen& gen = run.driver();
  const uint32_t clients = run.config().num_clients;
  Metrics& m = system.metrics();
  const ClientId dead_id(static_cast<uint32_t>(kPartitionedClient));

  // --- Healthy warmup, then a durable-PSN baseline. ---
  run.Steps(32);
  run.Flush();
  run.SnapshotPsns();
  ASSERT_TRUE(run.ok()) << run.failure();

  // --- Lossy wire for the rest of the soak. ---
  system.rpc().faults() = LightMix();
  for (int round = 0; round < 10; ++round) run.Steps(clients);
  ASSERT_TRUE(run.ok()) << run.failure();
  ASSERT_EQ(gen.current_phase(), 0u);

  // --- Partition one client mid-phase; drive to presumed-dead. ---
  NetFaultConfig partitioned = LightMix();
  partitioned.partitioned_clients = {
      static_cast<uint32_t>(kPartitionedClient)};
  system.rpc().faults() = partitioned;

  bool declared = false;
  for (int round = 0; round < 100 && !declared && run.ok(); ++round) {
    run.Steps(clients);
    declared = system.server().IsPresumedDead(dead_id);
  }
  ASSERT_TRUE(run.ok()) << run.failure();
  ASSERT_TRUE(declared) << "lease never expired under partition";
  EXPECT_FALSE(system.server().IsPresumedDead(ClientId(0)));
  EXPECT_FALSE(system.server().IsPresumedDead(
      ClientId(static_cast<uint32_t>(kCrashedClient))));
  ASSERT_EQ(gen.current_phase(), 0u)
      << "declaration escaped the long mixed phase; grow its quota";

  // --- Heal. The returning client must still be fenced, then recover. ---
  system.rpc().faults() = LightMix();
  auto zombie = system.client(kPartitionedClient).Begin();
  ASSERT_FALSE(zombie.ok());
  EXPECT_TRUE(zombie.status().IsZombieFenced());
  ASSERT_TRUE(system.RecoverZombie(kPartitionedClient).ok());
  gen.OnClientRecovered(kPartitionedClient);
  EXPECT_GE(m.Get(Counter::kLivenessRecoveredZombies), 1u);

  // --- Drive into the merge storm, then crash a client mid-storm. ---
  int rounds = 0;
  while (gen.current_phase() == 0 && run.ok()) {
    run.Steps(clients);
    ASSERT_LT(++rounds, 4000) << "phase 0 never drained";
  }
  ASSERT_TRUE(run.ok()) << run.failure();
  ASSERT_EQ(gen.current_phase(), 1u);
  ASSERT_TRUE(run.CrashClient(kCrashedClient)) << run.failure();

  // Survivors keep storming against the crashed client's quarantined
  // pages for a couple of rounds (bounded WouldBlock churn), then the
  // client recovers via ordinary crash recovery and rejoins.
  run.Steps(2 * clients);
  ASSERT_TRUE(run.ok()) << run.failure();
  ASSERT_TRUE(system.RecoverClient(kCrashedClient).ok());
  gen.OnClientRecovered(kCrashedClient);

  // --- Drain the remaining phases under the lossy wire. ---
  bool complete = gen.done();
  for (int i = 0; i < 400 && !complete; ++i) complete = run.Steps(500);
  ASSERT_TRUE(run.ok()) << run.failure();
  ASSERT_TRUE(complete) << "soak never drained";

  // --- Quotas: survivors finished everything; the interrupted clients
  // finished everything from their recovery point on (both recovered
  // inside phase 0 / phase 1, so they complete the storm and cooldown
  // quotas at minimum). ---
  const uint64_t full_quota = TotalQuota(options);
  EXPECT_EQ(gen.client_commits(0), full_quota);
  EXPECT_EQ(gen.client_commits(2), full_quota);
  EXPECT_EQ(gen.client_commits(kPartitionedClient), full_quota)
      << "recovered zombie rejoined mid-phase-0 and must finish the quota";
  EXPECT_GE(gen.client_commits(kCrashedClient),
            uint64_t{options.phases[1].txns_per_client} +
                uint64_t{options.phases[2].txns_per_client});

  EXPECT_GE(run.stats().zombie_fences, 1u)
      << "the partitioned client was never fenced by the driver";
  EXPECT_GT(m.Get(Counter::kNetPartitionDrops), 0u);

  // --- Final invariants on a clean wire: zero stale reads, zero
  // divergence, monotone durable PSNs. ---
  EXPECT_EQ(run.Verify(), "");
}

}  // namespace
}  // namespace finelog
