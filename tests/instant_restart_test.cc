// Instant restart (DESIGN.md section 18): after a server crash the restart
// opens admission as soon as membership, GLM and DCT are authoritative, and
// repairs pages lazily -- on first touch (demand-prioritized) or through the
// background sweep. These tests pin the per-page state machine:
//
//  - admission opens while pages are still pending, and a touch repairs the
//    touched page ahead of the sweep order;
//  - an armed interruption degrades the touch to WouldBlock(kRecoveringPage)
//    and re-queues the page at the front of the sweep;
//  - a flush that ships onto an interrupted repair defers that chunk and
//    ships the rest, at any chunk size;
//  - an armed consistency-check failure routes the page through single-page
//    repair (drop + replay from the responsible clients' logs);
//  - a second server crash mid-drain re-derives the backlog from scratch;
//  - with the feature off, a seeded run (including a mid-run server crash)
//    is byte-identical to the defaults.

#include <gtest/gtest.h>

#include <string>

#include "tests/scenario.h"

namespace finelog {
namespace {

class InstantRestartTest : public ::testing::Test {
 protected:
  void Start(SystemConfig config) {
    auto sys = System::Create(config);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }

  SystemConfig LazyConfig(const std::string& name) {
    SystemConfig config = SmallConfig(name);
    config.instant_restart = true;
    return config;
  }

  void CommittedWrite(size_t client, ObjectId oid, const std::string& value) {
    Client& c = system_->client(client);
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(c.Write(txn, oid, value).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
  }

  std::string ReadCommitted(size_t client, ObjectId oid) {
    Client& c = system_->client(client);
    TxnId txn = c.Begin().value();
    auto value = c.Read(txn, oid);
    EXPECT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_TRUE(c.Commit(txn).ok());
    return value.ok() ? value.value() : std::string();
  }

  std::string Val(char fill) {
    return std::string(system_->config().object_size, fill);
  }

  // Six dirty pages spread over the three clients: client 0's two pages are
  // shipped to the (about to die) server pool, so their lazy repair runs
  // coordinated log replay; clients 1 and 2 keep theirs cached, so their
  // repair pulls the cached copies. Returns via out-params the values.
  void SeedSixDirtyPages(std::string values[6]) {
    for (int i = 0; i < 6; ++i) values[i] = Val(static_cast<char>('a' + i));
    CommittedWrite(0, ObjectId{PageId(1), 0}, values[0]);
    CommittedWrite(0, ObjectId{PageId(2), 0}, values[1]);
    CommittedWrite(1, ObjectId{PageId(3), 0}, values[2]);
    CommittedWrite(1, ObjectId{PageId(4), 0}, values[3]);
    CommittedWrite(2, ObjectId{PageId(5), 0}, values[4]);
    CommittedWrite(2, ObjectId{PageId(6), 0}, values[5]);
    ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  }

  void VerifySixPages(const std::string values[6], size_t reader) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(ReadCommitted(reader, ObjectId{PageId(1 + i), 0}), values[i])
          << "page " << (1 + i);
    }
  }

  std::unique_ptr<System> system_;
};

TEST_F(InstantRestartTest, AdmissionOpensBeforeFullRecovery) {
  Start(LazyConfig("ir_admission"));
  std::string values[6];
  SeedSixDirtyPages(values);

  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());

  // Admission is open with the whole backlog still pending.
  EXPECT_EQ(system_->RecoveryPagesPending(), 6u);
  EXPECT_EQ(system_->metrics().Get(Counter::kRecoveryPagesMarked), 6u);
  EXPECT_EQ(system_->metrics().Get(Counter::kRecoveryPagesPendingHighWater),
            6u);
  EXPECT_GT(system_->metrics().Get(Counter::kRecoveryTimeToFirstAdmitUs), 0u);
  // Not fully recovered yet: the terminal timestamp has not been cut.
  EXPECT_EQ(system_->metrics().Get(Counter::kRecoveryTimeToFullyRecoveredUs),
            0u);

  // First touch: a shipped-then-lost page comes back via client 0's log.
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(1), 0}), values[0]);
  EXPECT_FALSE(system_->server().PagePendingRecoveryForTest(PageId(1)));
  EXPECT_GE(system_->metrics().Get(Counter::kRecoveryDemandRepairs), 1u);
  // The touch also advanced the background sweep (batch default 1).
  EXPECT_GE(system_->metrics().Get(Counter::kRecoverySweepRepairs), 1u);
  size_t pending = system_->RecoveryPagesPending();
  EXPECT_LT(pending, 6u);
  EXPECT_GE(pending, 1u);

  // Drain the rest; the system converges to the eager-restart state.
  ASSERT_TRUE(system_->DrainRecovery().ok());
  EXPECT_EQ(system_->RecoveryPagesPending(), 0u);
  EXPECT_EQ(system_->metrics().Get(Counter::kRecoveryPagesRepaired), 6u);
  const uint64_t first =
      system_->metrics().Get(Counter::kRecoveryTimeToFirstAdmitUs);
  const uint64_t full =
      system_->metrics().Get(Counter::kRecoveryTimeToFullyRecoveredUs);
  EXPECT_GT(full, first) << "repair work must happen after admission opened";

  VerifySixPages(values, 2);
}

TEST_F(InstantRestartTest, TouchedPageIsRepairedBeforeSweepOrder) {
  Start(LazyConfig("ir_touch_order"));
  std::string values[6];
  SeedSixDirtyPages(values);

  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  ASSERT_EQ(system_->RecoveryPagesPending(), 6u);

  // Touch page 5 -- last in sweep order. Demand repair must fix it
  // immediately while earlier-ordered pages are still pending.
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(5), 0}), values[4]);
  EXPECT_FALSE(system_->server().PagePendingRecoveryForTest(PageId(5)));
  EXPECT_TRUE(system_->server().PagePendingRecoveryForTest(PageId(3)));
  EXPECT_TRUE(system_->server().PagePendingRecoveryForTest(PageId(4)));

  ASSERT_TRUE(system_->DrainRecovery().ok());
  VerifySixPages(values, 2);
}

TEST_F(InstantRestartTest, InterruptedRepairDegradesAndFrontsSweepQueue) {
  FaultInjector injector;
  SystemConfig config = LazyConfig("ir_degraded");
  config.fault_injector = &injector;
  Start(config);
  std::string values[6];
  SeedSixDirtyPages(values);

  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  ASSERT_EQ(system_->RecoveryPagesPending(), 6u);

  // Arm a one-shot interruption of the next lazy repair: the touch must
  // degrade to a distinguishable WouldBlock instead of stalling.
  injector.ResetCounts();
  injector.ArmPoint("recovery.server.lazy_repair", 1, FaultAction::kError,
                    0.5);
  Client& c1 = system_->client(1);
  TxnId txn = c1.Begin().value();
  auto blocked = c1.Read(txn, ObjectId{PageId(5), 0});
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsRecoveringPage())
      << blocked.status().ToString();
  ASSERT_TRUE(c1.Abort(txn).ok());
  ASSERT_TRUE(injector.triggered());
  EXPECT_GE(system_->metrics().Get(Counter::kRecoveryDegradedResponses), 1u);
  EXPECT_TRUE(system_->server().PagePendingRecoveryForTest(PageId(5)));

  // The interrupted page jumped the sweep queue: a budget-1 sweep repairs it
  // before any of the pages ahead of it in map order.
  ASSERT_TRUE(system_->DrainRecovery(1).ok());
  EXPECT_FALSE(system_->server().PagePendingRecoveryForTest(PageId(5)));
  EXPECT_EQ(system_->RecoveryPagesPending(), 5u);

  // And the degraded request succeeds verbatim on retry.
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(5), 0}), values[4]);
  ASSERT_TRUE(system_->DrainRecovery().ok());
  VerifySixPages(values, 2);
}

TEST_F(InstantRestartTest, InterruptedRepairDefersOneShipChunk) {
  // A flush that ships onto a page whose lazy repair is interrupted skips
  // that chunk, ships the rest and reports the degradation at the end, for
  // any chunk size.
  for (uint32_t batch : {1u, 4u}) {
    SCOPED_TRACE(batch);
    FaultInjector injector;
    SystemConfig config =
        LazyConfig("ir_ship_chunk_" + std::to_string(batch));
    config.max_batch_items = batch;
    config.fault_injector = &injector;
    Start(config);
    std::string values[6];
    SeedSixDirtyPages(values);
    ASSERT_TRUE(system_->CrashServer().ok());
    ASSERT_TRUE(system_->RecoverAll().ok());
    std::string v = Val('q');
    CommittedWrite(1, ObjectId{PageId(10), 0}, v);

    // Hit 1 goes to the sweep step that runs before the ship; hit 2
    // interrupts the repair of a page client 1 ships.
    injector.ResetCounts();
    injector.ArmPoint("recovery.server.lazy_repair", 2, FaultAction::kError,
                      0.5);
    Status ship = system_->client(1).ShipAllDirtyPages();
    EXPECT_TRUE(ship.IsRecoveringPage()) << ship.ToString();
    ASSERT_TRUE(injector.triggered());

    EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(10), 0}), v);
    ASSERT_TRUE(system_->DrainRecovery().ok());
    VerifySixPages(values, 2);
    system_.reset();  // Before `injector` goes out of scope.
  }
}

TEST_F(InstantRestartTest, FailedConsistencyCheckTriggersSinglePageRepair) {
  FaultInjector injector;
  SystemConfig config = LazyConfig("ir_page_check");
  config.fault_injector = &injector;
  Start(config);
  std::string values[6];
  SeedSixDirtyPages(values);

  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  ASSERT_EQ(system_->RecoveryPagesPending(), 6u);

  // The first consistency check fails (one-shot): the page must be rebuilt
  // from its durable base plus the responsible clients' logs, transparently
  // to the request that touched it.
  injector.ResetCounts();
  injector.ArmPoint("recovery.server.page_check", 1, FaultAction::kError, 0.5);
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(1), 0}), values[0]);
  ASSERT_TRUE(injector.triggered());
  EXPECT_EQ(system_->metrics().Get(Counter::kRecoveryFailedChecks), 1u);
  EXPECT_EQ(system_->metrics().Get(Counter::kRecoverySinglePageRepairs), 1u);
  EXPECT_FALSE(system_->server().PagePendingRecoveryForTest(PageId(1)));

  ASSERT_TRUE(system_->DrainRecovery().ok());
  VerifySixPages(values, 2);
}

TEST_F(InstantRestartTest, SecondServerCrashMidDrainRederivesBacklog) {
  Start(LazyConfig("ir_second_crash"));
  std::string values[6];
  SeedSixDirtyPages(values);

  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  ASSERT_EQ(system_->RecoveryPagesPending(), 6u);

  // Partially drain, then lose the server again with pages still pending.
  ASSERT_TRUE(system_->DrainRecovery(2).ok());
  ASSERT_GT(system_->RecoveryPagesPending(), 0u);
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());

  // The second restart re-derived its own backlog (whatever the first drain
  // already merged and flushed no longer needs repair).
  ASSERT_TRUE(system_->DrainRecovery().ok());
  EXPECT_EQ(system_->RecoveryPagesPending(), 0u);
  VerifySixPages(values, 2);
}

TEST_F(InstantRestartTest, ComplexCrashDefersReplayUntilClientRestart) {
  Start(LazyConfig("ir_complex"));
  std::string v = Val('Z');
  CommittedWrite(0, ObjectId{PageId(7), 0}, v);
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());

  // Complex crash: the responsible client dies with the server. RecoverAll
  // restarts the server lazily, then client 0; its replayed state must be
  // visible to everyone once recovery completes.
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  ASSERT_TRUE(system_->DrainRecovery().ok());
  EXPECT_EQ(system_->RecoveryPagesPending(), 0u);
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(7), 0}), v);
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(7), 0}), v);
}

// ---------------------------------------------------------------------------
// Defaults fingerprint: feature off means byte-identical behavior.
// ---------------------------------------------------------------------------

// Seeded workload with a mid-run server crash + eager recovery, so the
// fingerprint covers the exact code paths instant restart rewires.
Fingerprint EagerRestartFingerprint(SystemConfig config) {
  ScenarioRun<> run(std::move(config), SeededWorkload(8, 2026));
  run.Steps(20);
  run.SnapshotPsns();
  run.CrashServer();
  run.RecoverAll();
  run.Run("resume");
  EXPECT_EQ(run.Verify(/*flush=*/false), "");

  // An eager restart marks pages like an instant one, then drains the whole
  // backlog before admission opens: nothing is left for a demand repair.
  const Metrics& m = run.system().metrics();
  EXPECT_EQ(run.system().RecoveryPagesPending(), 0u);
  EXPECT_GT(m.Get(Counter::kRecoveryPagesMarked), 0u);
  EXPECT_EQ(m.Get(Counter::kRecoveryDemandRepairs), 0u);
  EXPECT_EQ(m.Get(Counter::kRecoverySweepRepairs),
            m.Get(Counter::kRecoveryPagesMarked));

  Fingerprint fp = run.TakeFingerprint();
  EXPECT_FALSE(fp.log_bytes.empty());
  return fp;
}

TEST(InstantRestartFingerprintTest, DefaultsAreByteIdenticalWithFeatureOff) {
  Fingerprint base = EagerRestartFingerprint(SmallConfig("ir_fp_base"));

  // A config that has heard of every new knob -- but with instant_restart
  // still off -- must not change one byte or one simulated microsecond.
  SystemConfig tuned = SmallConfig("ir_fp_tuned");
  tuned.instant_restart = false;
  Fingerprint with_knobs = EagerRestartFingerprint(tuned);

  EXPECT_EQ(base, with_knobs);
}

}  // namespace
}  // namespace finelog
