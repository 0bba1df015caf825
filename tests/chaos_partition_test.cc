// Partition chaos sweep (DESIGN.md section 14, EXPERIMENTS.md E13): one
// client's network legs are dropped entirely mid-workload. The sweep proves
// the lease machinery end to end, per net seed:
//
//   1. The partitioned client burns its RPC retry budget, self-fences on
//      its locally-expired lease, and the driver sidelines it.
//   2. The survivors' own traffic drives the server-side declaration
//      (presumed dead) without cascading: their leases keep renewing even
//      while the partitioned client's timeouts advance the simulated clock
//      in large steps.
//   3. Survivors resume committing within bounded simulated time of the
//      declaration.
//   4. After the partition heals, the returning client is still fenced
//      (zombie) until RecoverZombie reruns client crash recovery; then it
//      rejoins and finishes its quota.
//   5. Zero oracle divergence and monotone durable PSNs at the end.
//
// The workload uses the kPrivate access pattern: each client updates its
// own page span. That isolates the liveness property under test -- with a
// shared hot set, the dead client's DCT-quarantined pages would (by design)
// block the survivors' hot-page traffic, which is the *locking* behavior
// covered by liveness_test, not the partition-tolerant *progress* behavior
// swept here.
//
// Per-seed summary lines go to stdout and, when FINELOG_LIVENESS_SUMMARY
// names a file, into that file (the CI chaos-smoke job uploads it).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "tests/scenario.h"
#include "util/metrics.h"

namespace finelog {
namespace {

constexpr size_t kPartitionedClient = 2;

SystemConfig PartitionConfig(uint64_t net_seed) {
  SystemConfig config =
      SmallCacheConfig("partition_" + std::to_string(net_seed));
  config.net_faults.seed = net_seed;
  config.heartbeat_interval_us = 2000;
  // Sized per the config.h guidance: one fully-burned RPC against the
  // partition costs max_attempts * timeout plus the backoff ladder
  // (~130ms simulated), and a partitioned client's driver step can burn
  // two of those (heartbeat + operation). 800ms keeps the survivors'
  // renewal gap -- one such step between their turns -- well under the
  // lease, so only the silent client expires.
  config.lease_duration_us = 800000;
  return config;
}

constexpr char kSummaryEnv[] = "FINELOG_LIVENESS_SUMMARY";

// One cell of the sweep. Returns an empty string on success, a description
// of the first divergence otherwise. Out-params feed the summary line. One
// driver round is one step of every client: RunSteps(3).
std::string RunPartitionCell(uint64_t net_seed, uint64_t* commits,
                             uint64_t* declare_wait_us, uint64_t* fences) {
  WorkloadOptions options = SeededWorkload(12, 4242 + net_seed);
  options.pattern = AccessPattern::kPrivate;
  ScenarioRun<> run(PartitionConfig(net_seed), options);
  System& system = run.system();
  Metrics& m = system.metrics();
  const ClientId dead_id(static_cast<uint32_t>(kPartitionedClient));

  // Warm up on a healthy wire: every client heartbeats (first request) and
  // makes some progress; flush so the durable-PSN baseline is non-trivial.
  run.Steps(30, "warmup");
  run.Flush("warmup flush");
  run.SnapshotPsns();

  // Drop both legs of one client, mid-workload.
  NetFaultConfig partitioned;
  partitioned.seed = net_seed;
  partitioned.partitioned_clients = {
      static_cast<uint32_t>(kPartitionedClient)};
  system.rpc().faults() = partitioned;
  const uint64_t t_partition = system.clock().now_us();

  // Keep driving rounds until the server declares the silent client
  // presumed dead. Each round the partitioned client burns its retry
  // budget (advancing the clock), self-fences, and is sidelined; the
  // survivors' admitted requests renew their own leases and run the
  // expiry check. A workload that drains before the declaration fails.
  bool declared = false;
  for (int round = 0; round < 64 && !declared; ++round) {
    bool done = run.Steps(3, "partition round");
    declared = system.server().IsPresumedDead(dead_id);
    if (done) break;
  }
  if (!run.Check(declared, "lease never expired")) return run.failure();
  const uint64_t t_declared = system.clock().now_us();
  *declare_wait_us = t_declared - t_partition;
  run.Check(!system.server().IsPresumedDead(ClientId(0)) &&
                !system.server().IsPresumedDead(ClientId(1)),
            "survivor lease cascaded into presumed-dead");
  run.Check(m.Get(Counter::kLivenessPresumedDead) == 1,
            "expected exactly one declaration, got " +
                std::to_string(m.Get(Counter::kLivenessPresumedDead)));

  // Survivors must resume committing within bounded simulated time.
  const uint64_t commits_at_decl = run.stats().commits;
  for (int round = 0; round < 200; ++round) {
    if (run.stats().commits > commits_at_decl) break;
    if (run.Steps(3, "resume round")) break;
  }
  run.Check(run.stats().commits > commits_at_decl,
            "survivors never committed after the declaration");
  run.Check(system.clock().now_us() - t_declared <= 10000000,
            "first survivor commit took unbounded sim time");

  // Drain the survivors' quota with the partition still up.
  bool complete = false;
  for (int i = 0; i < 100 && !complete; ++i) {
    complete = run.Steps(500, "drain");
  }
  run.Check(complete, "survivors never finished their quota");
  run.Check(run.stats().zombie_fences > 0,
            "partitioned client was never fenced/sidelined");
  if (!run.ok()) return run.failure();

  // Still partitioned: the zombie self-fences on its locally-expired lease.
  auto fenced = system.client(kPartitionedClient).Begin();
  run.Check(!fenced.ok() && fenced.status().IsZombieFenced(),
            "pre-heal zombie was not fenced: " + fenced.status().ToString());

  // Heal. The zombie can reach the server again -- and must still be
  // fenced there (epoch + admission), not silently readmitted.
  system.rpc().faults() = NetFaultConfig{};
  auto zombie = system.client(kPartitionedClient).Begin();
  run.Check(!zombie.ok() && zombie.status().IsZombieFenced(),
            "post-heal zombie was not fenced: " + zombie.status().ToString());
  run.Check(m.Get(Counter::kLivenessZombieFenced) > 0,
            "server never counted a fenced zombie request");

  // Crash recovery readmits it; it finishes its quota.
  run.Check(system.RecoverZombie(kPartitionedClient), "recover zombie");
  run.Check(!system.server().IsPresumedDead(dead_id),
            "still presumed dead after recovery");
  run.Check(m.Get(Counter::kLivenessRecoveredZombies) == 1,
            "expected exactly one recovered zombie");
  run.driver().OnClientRecovered(kPartitionedClient);
  run.Run("post-recovery run");

  // Final invariants: zero oracle divergence, monotone durable PSNs.
  run.Verify();
  run.Check(m.Get(Counter::kNetPartitionDrops) > 0,
            "partition never dropped a message");

  *commits = run.stats().commits;
  *fences = run.stats().zombie_fences;
  return run.failure();
}

// ---------------------------------------------------------------------------
// Hot-standby primary-kill sweep (DESIGN.md section 19, EXPERIMENTS.md E17):
// the primary dies at a seed-dependent point mid-workload; every client must
// walk the mastership gap down with kFailoverInProgress retries, fail over
// to the standby, and finish its full quota with zero oracle divergence and
// monotone durable PSNs.
// ---------------------------------------------------------------------------

std::string RunFailoverKillCell(uint64_t seed, uint64_t* commits,
                                uint64_t* failover_blocks) {
  SystemConfig config =
      SmallCacheConfig("failover_kill_" + std::to_string(seed));
  config.hot_standby = true;
  config.mastership_lease_us = 30000;
  config.failover_timeout_us = 4000;
  const WorkloadOptions options = SeededWorkload(12, 777 + seed);
  ScenarioRun<> run(config, options);
  System& system = run.system();

  // Seed-dependent kill point, always mid-quota.
  run.Steps(30 + seed * 13, "pre-kill");
  run.Flush("pre-kill flush");
  run.SnapshotPsns();
  // A couple more steps so the kill lands on a freshly renewed lease (the
  // flush itself burns more simulated time than the lease window).
  run.Steps(6, "pre-kill steps");
  run.Check(system.CrashServer(), "crash");
  run.Run("post-kill run");

  Metrics& m = system.metrics();
  run.Check(system.active_server_node() == 1, "never failed over");
  run.Check(m.Get(Counter::kFailoverTakeovers) == 1,
            "expected exactly one takeover, got " +
                std::to_string(m.Get(Counter::kFailoverTakeovers)));
  for (size_t c = 0; c < system.num_clients(); ++c) {
    run.Check(run.driver().client_txns_done(c) == options.txns_per_client,
              "client " + std::to_string(c) + " finished only " +
                  std::to_string(run.driver().client_txns_done(c)) + " txns");
  }
  run.Verify();

  *commits = run.stats().commits;
  *failover_blocks = run.stats().failover_blocks;
  return run.failure();
}

TEST(ChaosPartitionTest, PrimaryKillMatrixPreservesProgress) {
  constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

  uint64_t total_commits = 0;
  uint64_t total_blocks = 0;
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    uint64_t commits = 0, failover_blocks = 0;
    std::string failure = RunFailoverKillCell(seed, &commits,
                                              &failover_blocks);
    EXPECT_EQ(failure, "");
    total_commits += commits;
    total_blocks += failover_blocks;
    std::ostringstream line;
    line << "failover_seed=" << seed << " commits=" << commits
         << " failover_blocks=" << failover_blocks
         << " result=" << (failure.empty() ? "ok" : failure);
    AppendSummary("partition", kSummaryEnv, line.str());
  }
  EXPECT_GT(total_commits, 0u);
  // At least some cells must have actually crossed a mastership gap (the
  // kill point vs. lease-horizon race is seed-dependent, but it cannot be
  // universally free).
  EXPECT_GT(total_blocks, 0u);
}

TEST(ChaosPartitionTest, PartitionMatrixPreservesLiveness) {
  constexpr uint64_t kNetSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

  uint64_t total_commits = 0;
  for (uint64_t seed : kNetSeeds) {
    SCOPED_TRACE("net_seed=" + std::to_string(seed));
    uint64_t commits = 0, declare_wait_us = 0, fences = 0;
    std::string failure =
        RunPartitionCell(seed, &commits, &declare_wait_us, &fences);
    EXPECT_EQ(failure, "");
    total_commits += commits;
    std::ostringstream line;
    line << "net_seed=" << seed << " declare_wait_us=" << declare_wait_us
         << " commits=" << commits << " zombie_fences=" << fences
         << " result=" << (failure.empty() ? "ok" : failure);
    AppendSummary("partition", kSummaryEnv, line.str());
  }
  EXPECT_GT(total_commits, 0u);
}

}  // namespace
}  // namespace finelog
