// Hot-standby failover (DESIGN.md section 19, EXPERIMENTS.md E17).
//
// Two server instances share the durable store; a mastership lease granted
// through the clock seam decides which one serves, and clients reach the
// pair through a failover router: a primary crash or timeout probes the
// standby, which acquires the lease once the incumbent's horizon passes,
// fences the deposed epoch, and reconstructs the DCT from the durable store
// plus the clients' logs (ordinary server restart recovery, Sections
// 3.4-3.5, on the other node).
//
// Covered here:
//   - clean switchover (StepDown -> probe -> takeover) mid-workload;
//   - primary kill mid-workload: clients walk the mastership gap down with
//     kFailoverInProgress retries, then finish on the standby;
//   - split-brain drill: a partitioned old primary serves only to its local
//     lease horizon, then self-fences; every post-fence request on it is
//     rejected and its replication stream is epoch-rejected;
//   - double failover: the standby dies too, and service falls back to the
//     re-provisioned first node;
//   - defaults-off byte identity: with hot_standby=false the mastership
//     knobs must not move a single message, byte, or clock tick.

#include <gtest/gtest.h>

#include <string>

#include "tests/scenario.h"
#include "util/metrics.h"

namespace finelog {
namespace {

SystemConfig FailoverConfig(const std::string& name) {
  SystemConfig config = SmallConfig(name);
  config.hot_standby = true;
  // Small lease so a client retry loop (failover_timeout_us per attempt)
  // walks the mastership gap down well inside the driver's retry budget:
  // ~30ms / 4ms  ->  about 8 attempts.
  config.mastership_lease_us = 30000;
  config.failover_timeout_us = 4000;
  return config;
}

WorkloadOptions FailoverOptions(uint64_t seed) {
  return SeededWorkload(10, seed);
}

TEST(FailoverTest, CleanSwitchoverCompletesWorkload) {
  ScenarioRun<> run(FailoverConfig("failover_switchover"), FailoverOptions(7));
  System& system = run.system();
  run.Steps(40);
  run.Flush();
  run.SnapshotPsns();
  EXPECT_EQ(system.active_server_node(), 0);

  ASSERT_TRUE(system.Switchover().ok());
  ASSERT_TRUE(run.Run()) << run.failure();

  EXPECT_EQ(system.active_server_node(), 1);
  Metrics& m = system.metrics();
  EXPECT_EQ(m.Get(Counter::kFailoverTakeovers), 1u);
  EXPECT_EQ(m.Get(Counter::kFailoverSwitchovers), 1u);
  EXPECT_GE(m.Get(Counter::kFailoverProbes), 1u);
  EXPECT_EQ(run.Verify(), "");
}

TEST(FailoverTest, PrimaryKillMidWorkloadFailsOver) {
  SystemConfig config = FailoverConfig("failover_kill");
  // Liveness on too: the heartbeat path must ride out the mastership gap
  // without tripping the client's time-based self-fence.
  config.heartbeat_interval_us = 2000;
  config.lease_duration_us = 800000;
  ScenarioRun<> run(config, FailoverOptions(11));
  System& system = run.system();

  run.Steps(50);
  run.Flush();
  run.SnapshotPsns();
  // The flush burned more simulated time than the lease window; take a few
  // more steps so the kill lands on a freshly renewed lease and the standby
  // actually has a mastership gap to refuse probes across.
  run.Steps(6);
  ASSERT_TRUE(run.ok()) << run.failure();

  ASSERT_TRUE(system.CrashServer().ok());
  ASSERT_TRUE(run.Run()) << run.failure();

  EXPECT_EQ(system.active_server_node(), 1);
  Metrics& m = system.metrics();
  EXPECT_EQ(m.Get(Counter::kFailoverTakeovers), 1u);
  EXPECT_EQ(m.Get(Counter::kFailoverSwitchovers), 1u);
  // The standby refused at least one probe while the dead incumbent's lease
  // was still live, and the driver absorbed that as retryable WouldBlocks.
  EXPECT_GE(m.Get(Counter::kFailoverBlocked), 1u);
  EXPECT_GE(run.stats().failover_blocks, 1u);
  EXPECT_EQ(run.stats().zombie_fences, 0u);
  EXPECT_EQ(run.Verify(), "");
}

TEST(FailoverTest, PartitionedOldPrimaryIsFenced) {
  ScenarioRun<> run(FailoverConfig("failover_split_brain"),
                    FailoverOptions(13));
  System* system = &run.system();
  run.Steps(40);

  // Cut node 0 off from both the clients and the arbiter. It still holds a
  // lease, so the standby's first probes are refused (kFailoverInProgress)
  // until the shared horizon passes -- split-brain exposure is exactly the
  // lease window, during which the old primary receives no requests anyway.
  ASSERT_TRUE(system->PartitionServerNode(0, true).ok());
  ASSERT_TRUE(run.Run()) << run.failure();
  EXPECT_EQ(system->active_server_node(), 1);
  Metrics& m = system->metrics();
  EXPECT_EQ(m.Get(Counter::kFailoverTakeovers), 1u);
  EXPECT_GE(run.stats().failover_blocks, 1u);

  // Heal the partition. The deposed node's next admission check discovers
  // the new epoch and self-fences: every data-plane request is rejected.
  ASSERT_TRUE(system->PartitionServerNode(0, false).ok());
  const uint64_t fenced_before = m.Get(Counter::kFailoverDeposedFenced);
  Server& deposed = system->server_node(0);
  for (uint32_t c = 0; c < run.config().num_clients; ++c) {
    Status st = deposed.Call(ClientId(c), wire::Heartbeat{});
    EXPECT_TRUE(st.IsFailoverInProgress()) << st.ToString();
  }
  const wire::LockObject::Item item{ObjectId{PageId(0), 0}};
  auto lock = deposed.Call(ClientId(0), wire::LockObject{{&item, 1}});
  EXPECT_TRUE(lock.status().IsFailoverInProgress())
      << lock.status().ToString();
  // A multi-item request is refused whole, and the refusal answers with one
  // control message, exactly like the one-item request above.
  const Channel::TypeStats& replies =
      system->channel().stats(MessageType::kLockReply);
  const uint64_t replies_before = replies.count;
  const uint64_t reply_items_before = replies.items;
  const wire::LockObject::Item items[] = {{ObjectId{PageId(0), 0}},
                                          {ObjectId{PageId(0), 1}},
                                          {ObjectId{PageId(1), 0}}};
  auto batch = deposed.Call(ClientId(0), wire::LockObject{items});
  EXPECT_TRUE(batch.status().IsFailoverInProgress())
      << batch.status().ToString();
  EXPECT_EQ(replies.count, replies_before + 1);
  EXPECT_EQ(replies.items, reply_items_before + 1);
  EXPECT_GT(m.Get(Counter::kFailoverDeposedFenced), fenced_before);

  // And its replication stream is dead too: a membership record shipped
  // under the deposed epoch is rejected by the new primary's receiver.
  const uint64_t rejected_before = m.Get(Counter::kFailoverReplEpochRejected);
  system->server_node(1).ApplyReplicatedMembership(ClientId(0), true,
                                                   /*epoch=*/1);
  EXPECT_EQ(m.Get(Counter::kFailoverReplEpochRejected), rejected_before + 1);
  EXPECT_EQ(system->server_node(1).ReplicatedDeadCountForTest(), 0u);

  EXPECT_EQ(run.Verify(), "");
}

TEST(FailoverTest, DoubleFailoverFallsBackToFirstNode) {
  ScenarioRun<> run(FailoverConfig("failover_double"), FailoverOptions(17));
  System* system = &run.system();
  run.Steps(30);
  run.CrashServer();
  run.Steps(120);
  ASSERT_TRUE(run.ok()) << run.failure();
  ASSERT_EQ(system->active_server_node(), 1);

  // Re-provision the dead first node as a cold standby, then kill the new
  // primary: service must fall back, under a fresh (third) epoch.
  ASSERT_TRUE(system->RecoverServer().ok());
  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(run.Run()) << run.failure();

  EXPECT_EQ(system->active_server_node(), 0);
  Metrics& m = system->metrics();
  EXPECT_EQ(m.Get(Counter::kFailoverTakeovers), 2u);
  EXPECT_EQ(m.Get(Counter::kFailoverSwitchovers), 2u);
  EXPECT_GE(system->mastership()->epoch(), 3u);
  EXPECT_EQ(run.Verify(), "");
}

TEST(FailoverTest, ColdStandbyRefusesOrderedFetch) {
  // A standby that has not taken over never opened its store: every request
  // it receives, recovery plane included, must be refused as Crashed (the
  // router's failover trigger) before anything touches the store.
  SystemConfig config = FailoverConfig("failover_cold_ordered_fetch");
  auto system = System::Create(config).value();
  auto fetched = system->server_node(1).Call(
      ClientId(0), wire::RecOrderedFetch{PageId(1), ClientId(1), Psn(1)});
  ASSERT_FALSE(fetched.ok());
  EXPECT_TRUE(fetched.status().IsCrashed()) << fetched.status().ToString();
}

TEST(FailoverTest, StandbyLeaseExpiryFallsBackWithoutTraffic) {
  SystemConfig config = FailoverConfig("failover_lease_expiry");
  auto system = System::Create(config).value();

  // No workload at all: expire the primary's lease by pure clock motion,
  // then probe from the standby side. Acquisition must wait for the
  // horizon (non-overlap) and then succeed without any client's help.
  auto refused = system->server_node(1).FailoverProbe(ClientId(0));
  EXPECT_TRUE(refused.status().IsFailoverInProgress())
      << refused.status().ToString();
  system->channel().clock()->Advance(config.mastership_lease_us + 1);
  auto granted = system->server_node(1).FailoverProbe(ClientId(0));
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_GE(granted.value(), 2u);
  EXPECT_EQ(system->metrics().Get(Counter::kFailoverTakeovers), 1u);

  // The deposed node notices on its next admission.
  Status st = system->server_node(0).Call(ClientId(0), wire::Heartbeat{});
  EXPECT_TRUE(st.IsFailoverInProgress()) << st.ToString();
}

// ---------------------------------------------------------------------------
// Defaults-off byte identity.
// ---------------------------------------------------------------------------

// With hot_standby off there is no standby, no router, and no mastership
// table: the auxiliary knobs must be completely inert -- same message
// counts, same simulated clock, same client log bytes.
TEST(FailoverTest, DefaultsOffFingerprintIsByteIdentical) {
  Scenario s;
  s.config = SmallConfig("failover_fp_default");
  s.workload = FailoverOptions(99);
  Fingerprint base = ExpectFingerprint(s);

  s.config = SmallConfig("failover_fp_tuned");
  s.config.mastership_lease_us = 123;
  s.config.failover_timeout_us = 999999;
  Fingerprint off = ExpectFingerprint(s);

  EXPECT_EQ(base, off);
}

}  // namespace
}  // namespace finelog
