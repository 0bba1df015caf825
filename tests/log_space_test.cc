// Tests of log space management (Section 3.6): a client with a bounded
// private log frees space by forcing min-RedoLSN pages through the server.

#include <gtest/gtest.h>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

class LogSpaceTest : public ::testing::Test {
 protected:
  void Start(uint64_t capacity, const std::string& name) {
    SystemConfig config = SmallConfig(name);
    config.client_log_capacity = capacity;
    auto sys = System::Create(config);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }

  std::string Val(char fill) {
    return std::string(system_->config().object_size, fill);
  }

  std::unique_ptr<System> system_;
};

TEST_F(LogSpaceTest, BoundedLogSustainsManyTransactions) {
  // The log holds only a handful of update records; without Section 3.6 the
  // client would wedge almost immediately.
  Start(8192, "ls_sustain");
  Client& c0 = system_->client(0);
  for (int i = 0; i < 100; ++i) {
    TxnId txn = c0.Begin().value();
    ObjectId oid{static_cast<PageId>(i % 8), static_cast<SlotId>(i % 4)};
    ASSERT_TRUE(c0.Write(txn, oid, Val('a' + (i % 26))).ok()) << "txn " << i;
    ASSERT_TRUE(c0.Commit(txn).ok()) << "txn " << i;
  }
  EXPECT_GT(system_->metrics().Get("client.log_full_events"), 0u);
  EXPECT_GT(system_->metrics().Get("client.log_space_forces"), 0u);
  EXPECT_GT(system_->metrics().Get("server.force_page_requests"), 0u);
}

TEST_F(LogSpaceTest, FlushNotificationAdvancesRedoLsn) {
  Start(0, "ls_notify");
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(1), 0}, Val('A')).ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_EQ(c0.dpt().count(PageId(1)), 1u);
  Lsn redo_before = c0.dpt().at(PageId(1));

  // Ship + force: the flush notification must clear the DPT entry (no
  // updates since the ship).
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->server().FlushAllPages().ok());
  EXPECT_EQ(c0.dpt().count(PageId(1)), 0u);
  (void)redo_before;
}

TEST_F(LogSpaceTest, RedoLsnAdvancesButEntryKeptWhenUpdatedAgain) {
  Start(0, "ls_advance");
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(1), 0}, Val('B')).ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());

  // Update the page again before the server flushes.
  TxnId txn2 = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn2, ObjectId{PageId(1), 1}, Val('C')).ok());
  ASSERT_TRUE(c0.Commit(txn2).ok());
  Lsn redo_before = c0.dpt().at(PageId(1));

  ASSERT_TRUE(system_->server().FlushAllPages().ok());
  // Entry kept (new updates unflushed), but RedoLSN advanced past the
  // records covered by the first ship.
  ASSERT_EQ(c0.dpt().count(PageId(1)), 1u);
  EXPECT_GT(c0.dpt().at(PageId(1)), redo_before);
}

TEST_F(LogSpaceTest, LogFullWithPinnedTransactionAborts) {
  // A single transaction that overflows the whole log cannot be saved by
  // page forcing (its own first record pins the tail): the client reports
  // kLogFull and the driver aborts.
  Start(4096, "ls_pinned");
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  Status last = Status::OK();
  for (int i = 0; i < 64 && last.ok(); ++i) {
    last = c0.Write(txn, ObjectId{static_cast<PageId>(i % 8), 0}, Val('D'));
  }
  EXPECT_TRUE(last.IsLogFull()) << last.ToString();
  ASSERT_TRUE(c0.Abort(txn).ok());
}

TEST_F(LogSpaceTest, RecoveryAfterLogSpaceReuse) {
  // Transactions whose records were logically reclaimed must still be
  // durable: their pages were forced to disk as part of Section 3.6.
  Start(8192, "ls_recover");
  Client& c0 = system_->client(0);
  std::string last_val;
  for (int i = 0; i < 60; ++i) {
    TxnId txn = c0.Begin().value();
    last_val = Val('a' + (i % 26));
    ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(2), 1}, last_val).ok());
    ASSERT_TRUE(c0.Commit(txn).ok());
  }
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  Client& c1 = system_->client(1);
  TxnId txn = c1.Begin().value();
  EXPECT_EQ(c1.Read(txn, ObjectId{PageId(2), 1}).value(), last_val);
  ASSERT_TRUE(c1.Commit(txn).ok());
}

// Commit's end record must not run the Section 3.6 protocol: its
// checkpoint would list the committing transaction as open after its commit
// record, so a crash before the end record is forced would undo a forced
// commit. A checkpoint taken earlier in the transaction (by its own Write)
// lists it too, but analysis from there still meets the commit record.
TEST_F(LogSpaceTest, CommitIsNeverCheckpointedAsOpen) {
  Start(8192, "ls_commit_ckpt");
  for (int i = 0; i < 200; ++i) {
    Client& c0 = system_->client(0);
    TxnId txn = c0.Begin().value();
    ObjectId oid{static_cast<PageId>(i % 8), static_cast<SlotId>(i % 4)};
    std::string value = Val('a' + (i % 26));
    ASSERT_TRUE(c0.Write(txn, oid, value).ok()) << "txn " << i;
    Lsn ckpt_before = c0.log().checkpoint_lsn();
    ASSERT_TRUE(c0.Commit(txn).ok()) << "txn " << i;
    Lsn ckpt = c0.log().checkpoint_lsn();
    if (ckpt != kNullLsn) {
      bool listed = false;
      bool commit_after = false;
      ASSERT_TRUE(c0.log()
                      .Scan(ckpt,
                            [&](const LogRecord& rec) {
                              if (rec.lsn == ckpt) {
                                for (const auto& info : rec.active_txns) {
                                  listed |= info.txn == txn;
                                }
                              } else if (rec.type == LogRecordType::kCommit &&
                                         rec.txn == txn) {
                                commit_after = true;
                              }
                              return Status::OK();
                            })
                      .ok());
      ASSERT_TRUE(!listed || commit_after) << "txn " << i;
    }
    if (ckpt != ckpt_before) {
      ASSERT_TRUE(system_->CrashClient(0).ok());
      ASSERT_TRUE(system_->RecoverClient(0).ok()) << "txn " << i;
      TxnId check = c0.Begin().value();
      EXPECT_EQ(c0.Read(check, oid).value(), value) << "txn " << i;
      ASSERT_TRUE(c0.Commit(check).ok());
    }
  }
}

}  // namespace
}  // namespace finelog
