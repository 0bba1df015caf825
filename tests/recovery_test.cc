// Crash/recovery tests for Sections 3.3 (client crash), 3.4 (server crash)
// and 3.5 (complex crash).

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void Start(SystemConfig config) {
    auto sys = System::Create(config);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }
  void Start(const std::string& name) { Start(SmallConfig(name)); }

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

  std::unique_ptr<System> system_;
};

// ---------------------------------------------------------------------------
// Client crash (Section 3.3)
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, ClientCrashCommittedUnshippedUpdateSurvives) {
  Start("cc_committed");
  std::string v = Val('A');
  CommittedWrite(0, ObjectId{PageId(1), 0}, v);
  // The dirty page sits only in client 0's cache; the private log has the
  // committed update. Crash loses the cache.
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(1), 0}), v);
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(1), 0}), v);
}

TEST_F(RecoveryTest, ClientCrashUncommittedUpdateRolledBack) {
  Start("cc_uncommitted");
  std::string v_old = Val('B');
  std::string v_new = Val('C');
  CommittedWrite(0, ObjectId{PageId(1), 1}, v_old);
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(1), 1}, v_new).ok());
  // Force the log so the uncommitted update is durable, then ship the dirty
  // page (steal): the server now holds uncommitted data.
  ASSERT_TRUE(c0.log().Force().ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  // The loser transaction must have been rolled back at restart.
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(1), 1}), v_old);
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(1), 1}), v_old);
}

TEST_F(RecoveryTest, ClientCrashLosesUnforcedUncommittedWork) {
  Start("cc_unforced");
  std::string v_old = Val('D');
  CommittedWrite(0, ObjectId{PageId(1), 2}, v_old);
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(1), 2}, Val('E')).ok());
  // No force, no ship: the update exists only in volatile state.
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(1), 2}), v_old);
}

TEST_F(RecoveryTest, ClientCrashSamePageOtherClientUpdatesPreserved) {
  // Section 1: "the database state is recovered correctly even if ... the
  // updates performed by different clients on a page are not present on the
  // disk version of the page".
  Start("cc_same_page");
  std::string v0 = Val('F');
  std::string v1 = Val('G');
  CommittedWrite(0, ObjectId{PageId(2), 0}, v0);
  CommittedWrite(1, ObjectId{PageId(2), 1}, v1);  // Same page, different object.
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(2), 0}), v0);
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(2), 1}), v1);
}

TEST_F(RecoveryTest, OperationalClientsContinueDuringClientCrash) {
  Start("cc_continue");
  std::string v = Val('H');
  CommittedWrite(0, ObjectId{PageId(3), 0}, v);
  ASSERT_TRUE(system_->CrashClient(0).ok());
  // Client 1 works on unrelated data while client 0 is down.
  CommittedWrite(1, ObjectId{PageId(4), 0}, v);
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(4), 0}), v);
  // But data exclusively held by the crashed client blocks.
  Client& c1 = system_->client(1);
  TxnId txn = c1.Begin().value();
  EXPECT_TRUE(c1.Read(txn, ObjectId{PageId(3), 0}).status().IsWouldBlock());
  ASSERT_TRUE(c1.Commit(txn).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(3), 0}), v);
}

TEST_F(RecoveryTest, ClientCrashStructuralOpsRecovered) {
  Start("cc_structural");
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  auto oid = c0.Create(txn, PageId(5), "created before crash");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  EXPECT_EQ(ReadCommitted(1, oid.value()), "created before crash");
}

TEST_F(RecoveryTest, ClientCrashRepeatedCycleStable) {
  Start("cc_repeat");
  for (int round = 0; round < 4; ++round) {
    std::string v = Val(static_cast<char>('a' + round));
    CommittedWrite(0, ObjectId{PageId(6), 0}, v);
    ASSERT_TRUE(system_->CrashClient(0).ok());
    ASSERT_TRUE(system_->RecoverClient(0).ok());
    EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(6), 0}), v) << "round " << round;
  }
}

// A fuzzy checkpoint lists only open transactions. Restart analysis seeds
// its table from that list, drops a listed transaction at its commit record
// (a winner), and undoes the one still open at the crash (a loser).
TEST_F(RecoveryTest, ClientCheckpointSeedsWinnersAndLosers) {
  Start("cc_ckpt_seed");
  const ObjectId o1{PageId(7), 0};
  const ObjectId o2{PageId(7), 1};
  const ObjectId o3{PageId(7), 2};
  const std::string v3_old = ReadCommitted(0, o3);
  CommittedWrite(0, o1, Val('1'));

  Client& c0 = system_->client(0);
  TxnId t2 = c0.Begin().value();
  TxnId t3 = c0.Begin().value();
  ASSERT_TRUE(c0.Write(t2, o2, Val('2')).ok());
  ASSERT_TRUE(c0.Write(t3, o3, Val('3')).ok());
  ASSERT_TRUE(c0.TakeCheckpoint().ok());
  auto ckpt = c0.log().Read(c0.log().checkpoint_lsn());
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  std::vector<TxnId> listed;
  for (const TxnCheckpointInfo& t : ckpt.value().active_txns) {
    listed.push_back(t.txn);
  }
  EXPECT_EQ(listed, (std::vector<TxnId>{t2, t3}));

  ASSERT_TRUE(c0.Commit(t2).ok());
  const uint64_t losers0 =
      system_->metrics().Get(Counter::kClientLoserRollbacks);
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  EXPECT_EQ(system_->metrics().Get(Counter::kClientLoserRollbacks),
            losers0 + 1);
  EXPECT_EQ(c0.active_txns(), 0u);
  EXPECT_EQ(ReadCommitted(0, o1), Val('1'));
  EXPECT_EQ(ReadCommitted(0, o2), Val('2'));
  EXPECT_EQ(ReadCommitted(0, o3), v3_old);
}

// ---------------------------------------------------------------------------
// Server crash (Section 3.4)
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, ServerCrashCachedClientPagesRemerged) {
  Start("sc_cached");
  std::string v = Val('I');
  CommittedWrite(0, ObjectId{PageId(7), 0}, v);
  // The dirty page is still in client 0's cache; the server pool dies.
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(7), 0}), v);
}

TEST_F(RecoveryTest, ServerCrashReplacedPageRecoveredFromClientLog) {
  Start("sc_replaced");
  std::string v = Val('J');
  CommittedWrite(0, ObjectId{PageId(8), 0}, v);
  // Ship the page to the server (replacement), then lose the server pool
  // before any flush: the only copies are the disk original and client 0's
  // private log.
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(8), 0}), v);
  EXPECT_GT(system_->metrics().Get("server.coordinated_page_recoveries"), 0u);
}

TEST_F(RecoveryTest, ServerCrashMultiClientSamePageRecovered) {
  Start("sc_same_page");
  std::string v0 = Val('K');
  std::string v1 = Val('L');
  CommittedWrite(0, ObjectId{PageId(9), 0}, v0);
  CommittedWrite(1, ObjectId{PageId(9), 1}, v1);
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->client(1).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(9), 0}), v0);
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(9), 1}), v1);
}

TEST_F(RecoveryTest, ServerCrashCallbackOrderPreserved) {
  // Two clients update the SAME object in sequence (X callback between
  // them); the merged page is lost with the server. The callback log record
  // written by client 1 must ensure client 1's (newer) value wins.
  Start("sc_order");
  std::string v0 = Val('M');
  std::string v1 = Val('N');
  CommittedWrite(0, ObjectId{PageId(10), 0}, v0);
  CommittedWrite(1, ObjectId{PageId(10), 0}, v1);  // Callback: c0 ships, c1 updates.
  ASSERT_TRUE(system_->client(1).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(10), 0}), v1);
}

TEST_F(RecoveryTest, ServerCrashOrderedHandshakeBetweenRecoveringClients) {
  // Both the earlier updater (c0) and the later one (c1) have replaced the
  // page: both recover it in parallel; c1's callback record forces the
  // handshake through the server into c0's recovery (Section 3.4, step 3).
  Start("sc_handshake");
  std::string v0a = Val('O');
  std::string v0b = Val('P');
  std::string v1 = Val('Q');
  CommittedWrite(0, ObjectId{PageId(11), 0}, v0a);  // c0 updates object 0.
  CommittedWrite(0, ObjectId{PageId(11), 1}, v0b);  // c0 updates object 1.
  CommittedWrite(1, ObjectId{PageId(11), 0}, v1);   // c1 takes over object 0.
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->client(1).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(11), 0}), v1);
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(11), 1}), v0b);
}

TEST_F(RecoveryTest, ServerCrashAfterFlushUsesReplacementRecords) {
  // Updates flushed to disk before the crash must not be redone blindly:
  // Property 2 (replacement log records) tells the server which client
  // updates are already on disk.
  Start("sc_flushed");
  std::string v = Val('R');
  CommittedWrite(0, ObjectId{PageId(12), 0}, v);
  ASSERT_TRUE(system_->FlushEverything().ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(12), 0}), v);
}

TEST_F(RecoveryTest, ServerCrashWithCheckpointBoundsScan) {
  Start("sc_checkpoint");
  std::string v1 = Val('S');
  CommittedWrite(0, ObjectId{PageId(13), 0}, v1);
  ASSERT_TRUE(system_->FlushEverything().ok());
  ASSERT_TRUE(system_->server().TakeCheckpoint().ok());
  std::string v2 = Val('T');
  CommittedWrite(0, ObjectId{PageId(13), 1}, v2);
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(13), 0}), v1);
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(13), 1}), v2);
}

TEST_F(RecoveryTest, UncommittedDataAtServerRolledBackAfterServerCrash) {
  // Steal: uncommitted data reaches the server, the server crashes, the
  // client (operational) later aborts -- the rollback must land correctly.
  Start("sc_steal");
  std::string v_old = Val('U');
  std::string v_new = Val('V');
  CommittedWrite(0, ObjectId{PageId(14), 0}, v_old);
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(14), 0}, v_new).ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());  // Uncommitted data at server.
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  ASSERT_TRUE(c0.Abort(txn).ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(14), 0}), v_old);
}

TEST_F(RecoveryTest, ServerCrashWithNeverWrittenPageBelowEof) {
  // Writing page 17 before page 16 leaves a zero-filled gap in the page
  // file. Restart must read the gap as "not on disk", not as a corrupt
  // page, and rebuild page 16 from client 0's log.
  Start("sc_page_gap");
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  auto p16 = c0.AllocatePage(txn);
  auto p17 = c0.AllocatePage(txn);
  ASSERT_TRUE(p16.ok()) << p16.status().ToString();
  ASSERT_TRUE(p17.ok()) << p17.status().ToString();
  ASSERT_EQ(p16.value(), PageId(16));
  ASSERT_EQ(p17.value(), PageId(17));
  auto oid = c0.Create(txn, p16.value(), "below the gap");
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  ASSERT_TRUE(c0.Create(txn, p17.value(), "above the gap").ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(
      system_->server().Call(ClientId(0), wire::ForcePage{PageId(17)}).ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  Status st = system_->RecoverAll();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(ReadCommitted(1, oid.value()), "below the gap");
}

// ---------------------------------------------------------------------------
// Complex crash (Section 3.5)
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, ComplexCrashClientAndServer) {
  Start("cx_basic");
  std::string v = Val('W');
  CommittedWrite(0, ObjectId{PageId(15), 0}, v);
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(15), 0}), v);
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(15), 0}), v);
}

TEST_F(RecoveryTest, ComplexCrashUnshippedCommittedUpdate) {
  Start("cx_unshipped");
  std::string v = Val('X');
  CommittedWrite(0, ObjectId{PageId(15), 2}, v);
  // Nothing shipped: only client 0's log knows. Both crash.
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(15), 2}), v);
}

TEST_F(RecoveryTest, ComplexCrashAllClientsAndServer) {
  Start("cx_all");
  std::string v0 = Val('Y');
  std::string v1 = Val('Z');
  std::string v2 = Val('0');
  CommittedWrite(0, ObjectId{PageId(1), 0}, v0);
  CommittedWrite(1, ObjectId{PageId(1), 1}, v1);  // Same page as client 0's object.
  CommittedWrite(2, ObjectId{PageId(2), 0}, v2);
  ASSERT_TRUE(system_->client(1).ShipAllDirtyPages().ok());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(system_->CrashClient(i).ok());
  }
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(1), 0}), v0);
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(1), 1}), v1);
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(2), 0}), v2);
}

TEST_F(RecoveryTest, ComplexCrashMixedOperationalAndCrashed) {
  Start("cx_mixed");
  std::string v0 = Val('1');
  std::string v1 = Val('2');
  CommittedWrite(0, ObjectId{PageId(3), 0}, v0);
  CommittedWrite(1, ObjectId{PageId(3), 1}, v1);
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->client(1).ShipAllDirtyPages().ok());
  // Client 0 and the server die; client 1 stays up.
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(3), 0}), v0);
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(3), 1}), v1);
}

TEST_F(RecoveryTest, ComplexCrashOrderingDependencyOnCrashedClient) {
  // c1's recovery depends on crashed c0's updates (case 3 handshake hits a
  // crashed client): the server defers the page recovery until c0 restarts
  // (Section 3.5).
  Start("cx_deferred");
  std::string v0 = Val('3');
  std::string v1 = Val('4');
  CommittedWrite(0, ObjectId{PageId(4), 0}, v0);   // c0 first.
  CommittedWrite(1, ObjectId{PageId(4), 0}, v1);   // c1 takes the object over.
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->client(1).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(4), 0}), v1);
}

TEST_F(RecoveryTest, DeferredReplayRunsOnceAfterRepeatedServerCrashes) {
  // The ComplexCrashOrderingDependencyOnCrashedClient setup, but the server
  // crashes and restarts N times while c0 stays down. Every restart
  // re-derives c1's deferred replay from c1's DPT; a deferral kept from an
  // earlier incarnation would replay the same (c1, page) pair again at c0's
  // RecComplete.
  for (int crashes : {2, 3}) {
    SCOPED_TRACE(crashes);
    Start("cx_deferred_once_" + std::to_string(crashes));
    std::string v0 = Val('6');
    std::string v1 = Val('7');
    CommittedWrite(0, ObjectId{PageId(4), 0}, v0);
    CommittedWrite(1, ObjectId{PageId(4), 0}, v1);
    ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
    ASSERT_TRUE(system_->client(1).ShipAllDirtyPages().ok());
    ASSERT_TRUE(system_->CrashClient(0).ok());
    for (int k = 0; k < crashes; ++k) {
      ASSERT_TRUE(system_->CrashServer().ok());
      ASSERT_TRUE(system_->RecoverServer().ok());
    }
    const uint64_t before =
        system_->metrics().Get("server.coordinated_page_recoveries");
    ASSERT_TRUE(system_->RecoverClient(0).ok());
    EXPECT_EQ(system_->metrics().Get("server.coordinated_page_recoveries") -
                  before,
              1u);
    EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(4), 0}), v1);
  }
}

TEST_F(RecoveryTest, OrderedFetchSurfacesCorruptDiskPage) {
  // An ordered fetch whose responder no longer caches the page replays the
  // responder's log onto the server's copy. When the disk copy fails its
  // checksum, the fetch must fail before any replay starts -- a freshly
  // formatted base would silently drop every update the disk copy holds.
  Start("of_corrupt");
  CommittedWrite(0, ObjectId{PageId(5), 0}, Val('8'));
  ASSERT_TRUE(system_->FlushEverything().ok());
  // A restart empties the server pool; page 5 owes no repair (it is clean).
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverServer().ok());
  {
    std::fstream f(system_->config().dir + "/db.pages",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto off = static_cast<std::streamoff>(
        5 * system_->config().page_size + system_->config().page_size - 1);
    f.seekg(off);
    const char flipped = static_cast<char>(f.get() ^ 0x5a);
    f.seekp(off);
    f.put(flipped);
  }

  const uint64_t sessions =
      system_->metrics().Get(Counter::kClientRecoverySessions);
  // Client 2 never cached page 5, so the server must replay its log.
  auto fetched = system_->server().Call(
      ClientId(1), wire::RecOrderedFetch{PageId(5), ClientId(2), Psn(1)});
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruption)
      << fetched.status().ToString();
  EXPECT_EQ(system_->metrics().Get(Counter::kClientRecoverySessions),
            sessions);
}

TEST_F(RecoveryTest, OrderedFetchRefusedWhileServerDown) {
  // Every request runs the same prologue, so a crashed server refuses the
  // ordered fetch like any other call instead of serving a page out of the
  // dead node's pool.
  Start("of_server_down");
  CommittedWrite(0, ObjectId{PageId(1), 0}, Val('d'));
  ASSERT_TRUE(system_->CrashServer().ok());
  auto fetched = system_->server().Call(
      ClientId(0), wire::RecOrderedFetch{PageId(1), ClientId(1), Psn(1)});
  ASSERT_FALSE(fetched.ok());
  EXPECT_TRUE(fetched.status().IsCrashed()) << fetched.status().ToString();
  EXPECT_EQ(system_->server().pool().Peek(PageId(1)), nullptr);
  auto rec_fetch =
      system_->server().Call(ClientId(0), wire::RecFetchPage{PageId(1)});
  EXPECT_TRUE(rec_fetch.status().IsCrashed()) << rec_fetch.status().ToString();
}

TEST_F(RecoveryTest, RecoverAllIdempotentWhenNothingCrashed) {
  Start("noop_recover");
  std::string v = Val('5');
  CommittedWrite(0, ObjectId{PageId(5), 0}, v);
  ASSERT_TRUE(system_->RecoverAll().ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(5), 0}), v);
}

}  // namespace
}  // namespace finelog
