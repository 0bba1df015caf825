// Group commit (DESIGN.md section 12): commits under the client-local policy
// defer their log force into a bounded window; one force then covers the
// whole group. These tests pin the window semantics, the drain-on-any-force
// rule, the crash contract, and -- most importantly -- that the feature is
// byte-identical to the ungrouped behavior when switched off.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "tests/scenario.h"

namespace finelog {
namespace {

SystemConfig GroupConfig(const std::string& name) {
  SystemConfig config = SmallConfig(name);
  config.num_clients = 1;
  // Only the txn-count trigger fires unless a test shrinks the window.
  config.group_commit_window = 1000ull * 1000 * 1000;
  config.group_commit_max_txns = 4;
  return config;
}

Status WriteOne(Client* c, TxnId txn, PageId pid, SlotId slot, char fill) {
  return c->Write(txn, ObjectId{pid, slot}, std::string(64, fill));
}

TEST(GroupCommitTest, OneForceCoversTheWholeGroup) {
  auto system = System::Create(GroupConfig("gc_group")).value();
  Client& c = system->client(0);

  uint64_t forces0 = c.log().force_count();
  for (int i = 0; i < 4; ++i) {
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(WriteOne(&c, txn, static_cast<PageId>(i), 0, 'a' + i).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
    if (i < 3) {
      EXPECT_EQ(c.pending_group_commits(), static_cast<size_t>(i + 1));
      EXPECT_EQ(c.log().force_count(), forces0);  // Still deferred.
    }
  }
  // The 4th commit reached group_commit_max_txns and forced once for all.
  EXPECT_EQ(c.pending_group_commits(), 0u);
  EXPECT_EQ(c.log().force_count(), forces0 + 1);
  EXPECT_EQ(system->metrics().Get(Counter::kClientGroupCommits), 1u);
  EXPECT_EQ(system->metrics().Get(Counter::kClientGroupCommitTxns), 4u);
  EXPECT_EQ(system->metrics().Get(Counter::kClientGroupCommitMaxBatch), 4u);
}

TEST(GroupCommitTest, WindowExpiryClosesTheGroup) {
  SystemConfig config = GroupConfig("gc_window");
  config.group_commit_window = 1;  // Any later clock motion expires it.
  config.group_commit_max_txns = 100;
  auto system = System::Create(config).value();
  Client& c = system->client(0);

  TxnId t1 = c.Begin().value();
  ASSERT_TRUE(WriteOne(&c, t1, static_cast<PageId>(0), 0, 'x').ok());
  ASSERT_TRUE(c.Commit(t1).ok());
  EXPECT_EQ(c.pending_group_commits(), 1u);

  // The second transaction's lock-miss round trips advance the simulated
  // clock past the window, so its commit closes the group.
  TxnId t2 = c.Begin().value();
  ASSERT_TRUE(WriteOne(&c, t2, static_cast<PageId>(1), 0, 'y').ok());
  ASSERT_TRUE(c.Commit(t2).ok());
  EXPECT_EQ(c.pending_group_commits(), 0u);
  EXPECT_EQ(system->metrics().Get(Counter::kClientGroupCommitTxns), 2u);
}

TEST(GroupCommitTest, AnyForceDrainsThePendingGroup) {
  auto system = System::Create(GroupConfig("gc_drain")).value();
  Client& c = system->client(0);

  TxnId t1 = c.Begin().value();
  ASSERT_TRUE(WriteOne(&c, t1, static_cast<PageId>(0), 0, 'x').ok());
  ASSERT_TRUE(c.Commit(t1).ok());
  EXPECT_EQ(c.pending_group_commits(), 1u);

  // A checkpoint forces the log for its own reasons; the queued commit
  // becomes durable and the group drains with it.
  ASSERT_TRUE(c.TakeCheckpoint().ok());
  EXPECT_EQ(c.pending_group_commits(), 0u);
  EXPECT_EQ(system->metrics().Get(Counter::kClientGroupCommitTxns), 1u);
}

TEST(GroupCommitTest, FlushCommitGroupClosesAPartialWindow) {
  auto system = System::Create(GroupConfig("gc_flush")).value();
  Client& c = system->client(0);

  TxnId t1 = c.Begin().value();
  ASSERT_TRUE(WriteOne(&c, t1, static_cast<PageId>(0), 0, 'x').ok());
  ASSERT_TRUE(c.Commit(t1).ok());
  uint64_t forces0 = c.log().force_count();
  EXPECT_EQ(c.pending_group_commits(), 1u);
  ASSERT_TRUE(c.FlushCommitGroup().ok());
  EXPECT_EQ(c.pending_group_commits(), 0u);
  EXPECT_EQ(c.log().force_count(), forces0 + 1);
  // Idempotent once empty.
  ASSERT_TRUE(c.FlushCommitGroup().ok());
  EXPECT_EQ(c.log().force_count(), forces0 + 1);
}

TEST(GroupCommitTest, CrashBeforeTheForceLosesTheGroup) {
  auto system = System::Create(GroupConfig("gc_crash")).value();
  Client& c = system->client(0);

  TxnId t1 = c.Begin().value();
  ASSERT_TRUE(WriteOne(&c, t1, static_cast<PageId>(0), 0, 'Z').ok());
  ASSERT_TRUE(c.Commit(t1).ok());
  EXPECT_EQ(c.pending_group_commits(), 1u);

  // Crash before any force: the commit record was never durable, so restart
  // recovery rolls the transaction back -- the deferred-durability contract.
  ASSERT_TRUE(system->CrashClient(0).ok());
  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(system->RecoverAll().ok());
  EXPECT_EQ(system->client(0).pending_group_commits(), 0u);

  TxnId probe = system->client(0).Begin().value();
  auto got = system->client(0).Read(probe, ObjectId{static_cast<PageId>(0), 0});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), std::string(64, '\0'));  // Preloaded value survived.
  ASSERT_TRUE(system->client(0).Commit(probe).ok());
}

// The regression that keeps the feature honest: with the knobs at their
// defaults (group_commit_window = 0, max_batch_items = 1), a seeded workload
// must behave *identically* to the pre-feature code -- same message counts,
// same simulated time, same log, byte for byte.
TEST(GroupCommitTest, DisabledKnobsReproduceUngroupedBehaviorExactly) {
  Fingerprint base = ExpectFingerprint(SmallConfig("gc_parity_default"));

  SystemConfig explicit_off = SmallConfig("gc_parity_explicit");
  explicit_off.group_commit_window = 0;
  explicit_off.group_commit_max_txns = 8;
  explicit_off.max_batch_items = 1;
  Fingerprint off = ExpectFingerprint(explicit_off);
  EXPECT_EQ(base, off);

  // Sanity anchors: the ungrouped run forces at least once per commit, and
  // nothing ever travels as a multi-item message.
  EXPECT_GE(base.forces, base.commits);
  EXPECT_EQ(base.total_messages, base.total_items);
}

// Grouping changes costs, never results: the same seeded workload with an
// aggressive group-commit window ends with the same committed data and
// fewer forces.
TEST(GroupCommitTest, GroupingPreservesResultsWithFewerForces) {
  Fingerprint base = ExpectFingerprint(SmallConfig("gc_equiv_base"));

  SystemConfig grouped_config = SmallConfig("gc_equiv_grouped");
  grouped_config.group_commit_window = 1000ull * 1000 * 1000;
  grouped_config.group_commit_max_txns = 8;
  ScenarioRun<> run(grouped_config, SeededWorkload(8, 99));
  ASSERT_TRUE(run.Run()) << run.failure();
  for (size_t i = 0; i < run.system().num_clients(); ++i) {
    ASSERT_TRUE(run.system().client(i).FlushCommitGroup().ok());
  }
  EXPECT_EQ(run.Verify(/*flush=*/false), "");
  EXPECT_LT(run.system().client(0).log().force_count(), base.forces);
}

}  // namespace
}  // namespace finelog
