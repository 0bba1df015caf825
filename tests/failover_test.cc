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

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/system.h"
#include "core/workload.h"
#include "tests/test_util.h"
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
  WorkloadOptions options;
  options.txns_per_client = 10;
  options.ops_per_txn = 4;
  options.write_fraction = 0.7;
  options.pattern = AccessPattern::kHotCold;
  options.seed = seed;
  return options;
}

void ExpectCleanFinish(System* system, Oracle* oracle, Workload* workload) {
  EXPECT_EQ(workload->stats().read_mismatches, 0u);
  ASSERT_TRUE(system->FlushEverything().ok());
  auto mismatches = oracle->Verify(system, 0);
  ASSERT_TRUE(mismatches.ok()) << mismatches.status().ToString();
  EXPECT_EQ(mismatches.value(), 0u);
}

TEST(FailoverTest, CleanSwitchoverCompletesWorkload) {
  SystemConfig config = FailoverConfig("failover_switchover");
  auto system = System::Create(config).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, FailoverOptions(7));

  ASSERT_TRUE(workload.RunSteps(40).ok());
  ASSERT_TRUE(system->FlushEverything().ok());
  std::vector<uint64_t> before = ReadDurablePsns(config);
  EXPECT_EQ(system->active_server_node(), 0);

  ASSERT_TRUE(system->Switchover().ok());
  ASSERT_TRUE(workload.Run().ok());

  EXPECT_EQ(system->active_server_node(), 1);
  Metrics& m = system->metrics();
  EXPECT_EQ(m.Get(Counter::kFailoverTakeovers), 1u);
  EXPECT_EQ(m.Get(Counter::kFailoverSwitchovers), 1u);
  EXPECT_GE(m.Get(Counter::kFailoverProbes), 1u);
  ExpectCleanFinish(system.get(), &oracle, &workload);
  std::vector<uint64_t> after = ReadDurablePsns(config);
  for (size_t p = 0; p < before.size(); ++p) {
    EXPECT_GE(after[p], before[p]) << "page " << p;
  }
}

TEST(FailoverTest, PrimaryKillMidWorkloadFailsOver) {
  SystemConfig config = FailoverConfig("failover_kill");
  // Liveness on too: the heartbeat path must ride out the mastership gap
  // without tripping the client's time-based self-fence.
  config.heartbeat_interval_us = 2000;
  config.lease_duration_us = 800000;
  auto system = System::Create(config).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, FailoverOptions(11));

  ASSERT_TRUE(workload.RunSteps(50).ok());
  ASSERT_TRUE(system->FlushEverything().ok());
  std::vector<uint64_t> before = ReadDurablePsns(config);
  // The flush burned more simulated time than the lease window; take a few
  // more steps so the kill lands on a freshly renewed lease and the standby
  // actually has a mastership gap to refuse probes across.
  ASSERT_TRUE(workload.RunSteps(6).ok());

  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(workload.Run().ok());

  EXPECT_EQ(system->active_server_node(), 1);
  Metrics& m = system->metrics();
  EXPECT_EQ(m.Get(Counter::kFailoverTakeovers), 1u);
  EXPECT_EQ(m.Get(Counter::kFailoverSwitchovers), 1u);
  // The standby refused at least one probe while the dead incumbent's lease
  // was still live, and the driver absorbed that as retryable WouldBlocks.
  EXPECT_GE(m.Get(Counter::kFailoverBlocked), 1u);
  EXPECT_GE(workload.stats().failover_blocks, 1u);
  EXPECT_EQ(workload.stats().zombie_fences, 0u);
  ExpectCleanFinish(system.get(), &oracle, &workload);
  std::vector<uint64_t> after = ReadDurablePsns(config);
  for (size_t p = 0; p < before.size(); ++p) {
    EXPECT_GE(after[p], before[p]) << "page " << p;
  }
}

TEST(FailoverTest, PartitionedOldPrimaryIsFenced) {
  SystemConfig config = FailoverConfig("failover_split_brain");
  auto system = System::Create(config).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, FailoverOptions(13));

  ASSERT_TRUE(workload.RunSteps(40).ok());

  // Cut node 0 off from both the clients and the arbiter. It still holds a
  // lease, so the standby's first probes are refused (kFailoverInProgress)
  // until the shared horizon passes -- split-brain exposure is exactly the
  // lease window, during which the old primary receives no requests anyway.
  ASSERT_TRUE(system->PartitionServerNode(0, true).ok());
  ASSERT_TRUE(workload.Run().ok());
  EXPECT_EQ(system->active_server_node(), 1);
  Metrics& m = system->metrics();
  EXPECT_EQ(m.Get(Counter::kFailoverTakeovers), 1u);
  EXPECT_GE(workload.stats().failover_blocks, 1u);

  // Heal the partition. The deposed node's next admission check discovers
  // the new epoch and self-fences: every data-plane request is rejected.
  ASSERT_TRUE(system->PartitionServerNode(0, false).ok());
  const uint64_t fenced_before = m.Get(Counter::kFailoverDeposedFenced);
  Server& deposed = system->server_node(0);
  for (uint32_t c = 0; c < config.num_clients; ++c) {
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

  ExpectCleanFinish(system.get(), &oracle, &workload);
}

TEST(FailoverTest, DoubleFailoverFallsBackToFirstNode) {
  SystemConfig config = FailoverConfig("failover_double");
  auto system = System::Create(config).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, FailoverOptions(17));

  ASSERT_TRUE(workload.RunSteps(30).ok());
  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(workload.RunSteps(120).ok());
  ASSERT_EQ(system->active_server_node(), 1);

  // Re-provision the dead first node as a cold standby, then kill the new
  // primary: service must fall back, under a fresh (third) epoch.
  ASSERT_TRUE(system->RecoverServer().ok());
  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(workload.Run().ok());

  EXPECT_EQ(system->active_server_node(), 0);
  Metrics& m = system->metrics();
  EXPECT_EQ(m.Get(Counter::kFailoverTakeovers), 2u);
  EXPECT_EQ(m.Get(Counter::kFailoverSwitchovers), 2u);
  EXPECT_GE(system->mastership()->epoch(), 3u);
  ExpectCleanFinish(system.get(), &oracle, &workload);
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

struct RunFingerprint {
  uint64_t total_messages = 0;
  uint64_t total_items = 0;
  uint64_t total_bytes = 0;
  uint64_t sim_us = 0;
  uint64_t commits = 0;
  std::string log_bytes;

  friend bool operator==(const RunFingerprint&,
                         const RunFingerprint&) = default;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

RunFingerprint RunSeededWorkload(const SystemConfig& config) {
  auto system = System::Create(config).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, FailoverOptions(99));
  EXPECT_TRUE(workload.Run().ok());
  auto mismatches = oracle.Verify(system.get(), 0);
  EXPECT_TRUE(mismatches.ok());
  EXPECT_EQ(mismatches.value(), 0u);

  RunFingerprint fp;
  fp.total_messages = system->channel().total_messages();
  fp.total_items = system->channel().total_items();
  fp.total_bytes = system->channel().total_bytes();
  fp.sim_us = system->clock().now_us();
  fp.commits = system->client(0).commits();
  fp.log_bytes = ReadFile(config.dir + "/client0.log");
  EXPECT_FALSE(fp.log_bytes.empty());
  return fp;
}

// With hot_standby off there is no standby, no router, and no mastership
// table: the auxiliary knobs must be completely inert -- same message
// counts, same simulated clock, same client log bytes.
TEST(FailoverTest, DefaultsOffFingerprintIsByteIdentical) {
  SystemConfig defaults = SmallConfig("failover_fp_default");
  RunFingerprint base = RunSeededWorkload(defaults);

  SystemConfig tuned = SmallConfig("failover_fp_tuned");
  tuned.mastership_lease_us = 123;
  tuned.failover_timeout_us = 999999;
  RunFingerprint off = RunSeededWorkload(tuned);

  EXPECT_EQ(base, off);
}

}  // namespace
}  // namespace finelog
