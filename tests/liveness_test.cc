// Lease-based client liveness (DESIGN.md section 14).
//
// The paper's protocols assume clients eventually answer callbacks and
// announce their own crashes; these tests cover the gap a silently-dead
// client leaves. A client whose lease expires is *presumed dead*: its
// shared locks are released, its clean exclusive locks reclaimed, and its
// DCT-dirty pages quarantined behind a machine-distinguishable WouldBlock
// reason. If it returns it is a *zombie* -- fenced at every endpoint until
// it reruns crash recovery. With the heartbeat knob at its default (off),
// a seeded run is byte-identical to one that never heard of leases.

#include <gtest/gtest.h>

#include <string>

#include "common/status.h"
#include "log/log_record.h"
#include "server/liveness.h"
#include "tests/scenario.h"
#include "util/metrics.h"

namespace finelog {
namespace {

// ---------------------------------------------------------------------------
// Unit layer: the status refinement, the log record, the lease table.
// ---------------------------------------------------------------------------

TEST(WouldBlockReasonTest, ReasonIsCarriedAndDistinguishable) {
  Status plain = Status::WouldBlock("try later");
  EXPECT_TRUE(plain.IsWouldBlock());
  EXPECT_EQ(plain.would_block_reason(), WouldBlockReason::kNone);
  EXPECT_FALSE(plain.IsZombieFenced());

  Status q = Status::WouldBlock(WouldBlockReason::kQuarantinedPage, "page");
  EXPECT_TRUE(q.IsWouldBlock());
  EXPECT_EQ(q.would_block_reason(), WouldBlockReason::kQuarantinedPage);
  EXPECT_FALSE(q.IsZombieFenced());

  Status z = Status::WouldBlock(WouldBlockReason::kZombieFenced, "fenced");
  EXPECT_TRUE(z.IsZombieFenced());
  EXPECT_NE(z.ToString().find("ZombieFenced"), std::string::npos);

  // A non-WouldBlock status never reads as fenced.
  EXPECT_FALSE(Status::Crashed("down").IsZombieFenced());
}

TEST(MembershipRecordTest, EncodeDecodeRoundTrip) {
  LogRecord declare = LogRecord::Membership(ClientId(7), /*presumed_dead=*/true);
  auto declare2 = LogRecord::Decode(declare.Encode());
  ASSERT_TRUE(declare2.ok());
  EXPECT_EQ(declare2->type, LogRecordType::kMembership);
  EXPECT_EQ(declare2->member, ClientId(7));
  EXPECT_TRUE(declare2->presumed_dead);

  LogRecord clear = LogRecord::Membership(ClientId(7), /*presumed_dead=*/false);
  auto clear2 = LogRecord::Decode(clear.Encode());
  ASSERT_TRUE(clear2.ok());
  EXPECT_EQ(clear2->type, LogRecordType::kMembership);
  EXPECT_EQ(clear2->member, ClientId(7));
  EXPECT_FALSE(clear2->presumed_dead);
}

TEST(LivenessTableTest, LeaseStateMachine) {
  LivenessTable table(/*lease_duration_us=*/1000);
  ClientId a(0), b(1);

  // Untracked clients never expire: membership is heartbeat-driven.
  EXPECT_TRUE(table.CollectExpired(1u << 20).empty());

  table.Renew(a, 100);   // Valid until 1100.
  table.Renew(b, 500);   // Valid until 1500.
  EXPECT_TRUE(table.HasLease(a));
  EXPECT_TRUE(table.CollectExpired(1000).empty());
  EXPECT_EQ(table.CollectExpired(1200), std::vector<ClientId>{a});

  // Both expired: deterministic id order.
  auto both = table.CollectExpired(2000);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0], a);
  EXPECT_EQ(both[1], b);

  table.MarkPresumedDead(a);
  EXPECT_TRUE(table.IsPresumedDead(a));
  EXPECT_FALSE(table.HasLease(a));
  // Already-declared clients drop out of the expired set.
  EXPECT_EQ(table.CollectExpired(2000), std::vector<ClientId>{b});
  // A zombie cannot renew its way back to life.
  table.Renew(a, 3000);
  EXPECT_TRUE(table.IsPresumedDead(a));
  EXPECT_FALSE(table.HasLease(a));

  // Suspend (explicit crash) drops the lease but keeps presumed-dead: only
  // completed crash recovery clears it.
  table.Suspend(a);
  EXPECT_TRUE(table.IsPresumedDead(a));
  table.MarkRecovered(a, 4000);
  EXPECT_FALSE(table.IsPresumedDead(a));
  EXPECT_TRUE(table.HasLease(a));

  // Server restart wipes volatile deadlines, keeps the presumed-dead set.
  table.MarkPresumedDead(b);
  table.DropLeases();
  EXPECT_FALSE(table.HasLease(a));
  EXPECT_TRUE(table.IsPresumedDead(b));
  EXPECT_TRUE(table.AnyPresumedDead());
}

// ---------------------------------------------------------------------------
// Defaults fingerprint: heartbeats off means byte-identical behavior.
// ---------------------------------------------------------------------------

// Heartbeats off: not one heartbeat is sent.
Fingerprint ExpectSilentFingerprint(SystemConfig config) {
  Scenario s;
  s.config = std::move(config);
  s.inspect = [](System& system) {
    EXPECT_EQ(system.metrics().Get(Counter::kLivenessHeartbeatsSent), 0u);
  };
  return ExpectFingerprint(s);
}

TEST(LivenessTest, DefaultsFingerprintIsByteIdentical) {
  Fingerprint base = ExpectSilentFingerprint(SmallConfig("liveness_fp_base"));

  // A config that has heard of every liveness knob -- but with heartbeats
  // still at their default (off) -- must not change one byte or one
  // simulated microsecond. The lease duration is a dead knob until
  // heartbeat_interval_us turns the subsystem on.
  SystemConfig tuned = SmallConfig("liveness_fp_tuned");
  tuned.heartbeat_interval_us = 0;
  tuned.lease_duration_us = 777777;
  Fingerprint with_knobs = ExpectSilentFingerprint(tuned);

  EXPECT_EQ(base, with_knobs);
}

// ---------------------------------------------------------------------------
// Integration layer.
// ---------------------------------------------------------------------------

SystemConfig LivenessConfig(const std::string& name) {
  SystemConfig config = SmallConfig(name);
  config.num_clients = 2;
  config.heartbeat_interval_us = 1000;
  config.lease_duration_us = 200000;
  return config;
}

// One small committed transaction on `client`, also renewing its lease.
Status ProbeTxn(System* system, size_t i, ObjectId oid) {
  auto txn = system->client(i).Begin();
  FINELOG_RETURN_IF_ERROR(txn.status());
  auto got = system->client(i).Read(txn.value(), oid);
  if (!got.ok()) {
    (void)system->client(i).Abort(txn.value());
    return got.status();
  }
  return system->client(i).Commit(txn.value());
}

// Retry wrapper for ordinary (lock-conflict) WouldBlocks.
Result<std::string> ReadCommitted(System* system, size_t i, ObjectId oid) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto txn = system->client(i).Begin();
    if (!txn.ok()) return txn.status();
    auto got = system->client(i).Read(txn.value(), oid);
    if (got.ok()) {
      FINELOG_RETURN_IF_ERROR(system->client(i).Commit(txn.value()));
      return got;
    }
    FINELOG_RETURN_IF_ERROR(system->client(i).Abort(txn.value()));
    if (!got.status().IsWouldBlock()) return got.status();
  }
  return Status::Internal("read never granted");
}

TEST(LivenessTest, HeartbeatsRenewLeasesUnderWorkload) {
  SystemConfig config = LivenessConfig("liveness_heartbeats");
  config.num_clients = 3;
  auto system = System::Create(config).value();
  Oracle oracle;
  WorkloadOptions options;
  options.txns_per_client = 6;
  options.ops_per_txn = 4;
  options.write_fraction = 0.7;
  options.pattern = AccessPattern::kHotCold;
  options.seed = 4242;
  Workload workload(system.get(), &oracle, options);
  ASSERT_TRUE(workload.Run().ok());
  auto mismatches = oracle.Verify(system.get(), 0);
  ASSERT_TRUE(mismatches.ok());
  EXPECT_EQ(mismatches.value(), 0u);

  Metrics& m = system->metrics();
  EXPECT_GT(m.Get(Counter::kLivenessHeartbeatsSent), 0u);
  // The fault-free wire delivers every heartbeat.
  EXPECT_EQ(m.Get(Counter::kLivenessHeartbeatsReceived),
            m.Get(Counter::kLivenessHeartbeatsSent));
  // Everyone kept renewing: no expiries, no declarations, live leases.
  EXPECT_EQ(m.Get(Counter::kLivenessLeaseExpiries), 0u);
  EXPECT_EQ(m.Get(Counter::kLivenessPresumedDead), 0u);
  for (uint32_t c = 0; c < config.num_clients; ++c) {
    EXPECT_TRUE(system->server().liveness().HasLease(ClientId(c)));
    EXPECT_FALSE(system->server().IsPresumedDead(ClientId(c)));
  }
}

// The tentpole scenario, end to end on a fault-free wire: client 1 commits
// an update (dirty page cached under client-based logging, DCT entry at the
// server), takes a shared lock elsewhere, then falls silent. The active
// client's traffic drives lease expiry; the declaration must release the
// shared lock, quarantine the dirty page, and fence the returning zombie
// until RecoverZombie reruns client crash recovery.
TEST(LivenessTest, SilentClientIsDeclaredQuarantinedAndRecovered) {
  SystemConfig config = LivenessConfig("liveness_silent");
  auto system = System::Create(config).value();

  const ObjectId dirty_obj{PageId(2), 0};   // Client 1 will dirty page 2.
  const ObjectId shared_obj{PageId(5), 0};  // Client 1 only reads page 5.
  const ObjectId probe_obj{PageId(9), 0};   // Client 0's lease-renewal probe.

  // Client 1: one committed write (page stays dirty in its cache -- commit
  // ships log records, not pages) and one committed read elsewhere.
  std::string committed(config.object_size, 'z');
  {
    auto txn = system->client(1).Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(system->client(1).Write(txn.value(), dirty_obj, committed).ok());
    auto got = system->client(1).Read(txn.value(), shared_obj);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(system->client(1).Commit(txn.value()).ok());
  }
  ASSERT_TRUE(ProbeTxn(system.get(), 0, probe_obj).ok());

  // Client 1 falls silent. Advance in sub-lease increments with client 0
  // staying chatty, so only the silent lease crosses its deadline (a single
  // jump past the lease would expire the survivor too -- exactly the
  // cascade the lease-sizing guidance in config.h warns about).
  Metrics& m = system->metrics();
  for (int i = 0; i < 12 && !system->server().IsPresumedDead(ClientId(1));
       ++i) {
    system->clock().Advance(config.lease_duration_us / 4);
    ASSERT_TRUE(ProbeTxn(system.get(), 0, probe_obj).ok());
  }
  ASSERT_TRUE(system->server().IsPresumedDead(ClientId(1)));
  EXPECT_FALSE(system->server().IsPresumedDead(ClientId(0)));
  EXPECT_GE(m.Get(Counter::kLivenessLeaseExpiries), 1u);
  EXPECT_EQ(m.Get(Counter::kLivenessPresumedDead), 1u);

  // Shared locks were released at declaration: client 0 can write the
  // object client 1 had only read, with no callback to the dead client.
  {
    auto txn = system->client(0).Begin();
    ASSERT_TRUE(txn.ok());
    std::string v(config.object_size, 'w');
    Status w = system->client(0).Write(txn.value(), shared_obj, v);
    ASSERT_TRUE(w.ok()) << w.ToString();
    ASSERT_TRUE(system->client(0).Commit(txn.value()).ok());
  }

  // The dirty page is quarantined: its only copy of the committed update
  // is the dead client's log, so handing it out would serve stale data.
  {
    auto txn = system->client(0).Begin();
    ASSERT_TRUE(txn.ok());
    auto got = system->client(0).Read(txn.value(), dirty_obj);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsWouldBlock());
    EXPECT_EQ(got.status().would_block_reason(),
              WouldBlockReason::kQuarantinedPage);
    ASSERT_TRUE(system->client(0).Abort(txn.value()).ok());
  }
  EXPECT_GE(m.Get(Counter::kLivenessQuarantineDenials), 1u);

  // The zombie returns: every endpoint fences it with a distinguishable
  // status until it reruns crash recovery.
  auto zombie = system->client(1).Begin();
  ASSERT_FALSE(zombie.ok());
  EXPECT_TRUE(zombie.status().IsZombieFenced()) << zombie.status().ToString();
  EXPECT_GE(m.Get(Counter::kLivenessZombieFenced), 1u);

  // RecoverZombie = client crash recovery + re-register; the quarantine
  // lifts and the committed update is intact.
  Status rz = system->RecoverZombie(1);
  ASSERT_TRUE(rz.ok()) << rz.ToString();
  EXPECT_FALSE(system->server().IsPresumedDead(ClientId(1)));
  EXPECT_EQ(m.Get(Counter::kLivenessRecoveredZombies), 1u);
  auto after = ReadCommitted(system.get(), 0, dirty_obj);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value(), committed);

  // The recovered client is a first-class citizen again.
  ASSERT_TRUE(ProbeTxn(system.get(), 1, probe_obj).ok());
}

// Satellite: the server crashes while a client is presumed dead. The
// membership record makes the declaration durable and the checkpointed DCT
// lets restart rebuild the quarantine without talking to the dead client.
TEST(LivenessTest, QuarantineSurvivesServerRestart) {
  SystemConfig config = LivenessConfig("liveness_restart");
  auto system = System::Create(config).value();

  const ObjectId dirty_obj{PageId(3), 1};
  const ObjectId probe_obj{PageId(9), 0};

  std::string committed(config.object_size, 'q');
  {
    auto txn = system->client(1).Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(system->client(1).Write(txn.value(), dirty_obj, committed).ok());
    ASSERT_TRUE(system->client(1).Commit(txn.value()).ok());
  }
  // Server checkpoint while client 1 is still reachable: the checkpointed
  // DCT is what seeds the quarantine placeholder after the restart.
  ASSERT_TRUE(system->server().TakeCheckpoint().ok());

  // Client 1 falls silent; client 0's traffic drives the declaration.
  for (int i = 0; i < 12 && !system->server().IsPresumedDead(ClientId(1));
       ++i) {
    system->clock().Advance(config.lease_duration_us / 4);
    ASSERT_TRUE(ProbeTxn(system.get(), 0, probe_obj).ok());
  }
  ASSERT_TRUE(system->server().IsPresumedDead(ClientId(1)));

  // Server crash + restart. The zombie is not crashed from the harness's
  // point of view: restart must skip it (it is unreachable for state
  // collection) and reload its presumed-dead status from the membership
  // records alone.
  ASSERT_TRUE(system->CrashServer().ok());
  Status restart = system->RecoverServer();
  ASSERT_TRUE(restart.ok()) << restart.ToString();
  ASSERT_TRUE(system->server().IsPresumedDead(ClientId(1)));

  // The quarantine came back with it.
  {
    auto txn = system->client(0).Begin();
    ASSERT_TRUE(txn.ok());
    auto got = system->client(0).Read(txn.value(), dirty_obj);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().would_block_reason(),
              WouldBlockReason::kQuarantinedPage);
    ASSERT_TRUE(system->client(0).Abort(txn.value()).ok());
  }

  // Zombie recovery replays the committed update from its private log.
  ASSERT_TRUE(system->RecoverZombie(1).ok());
  EXPECT_FALSE(system->server().IsPresumedDead(ClientId(1)));
  auto after = ReadCommitted(system.get(), 0, dirty_obj);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value(), committed);
}

}  // namespace
}  // namespace finelog
