// Edge-case tests of the client transaction API: misuse, error surfaces,
// and less-traveled combinations (nested savepoints, delete+recreate,
// resize chains, aborted structural transactions).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

class ClientApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sys = System::Create(SmallConfig("client_api"));
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }

  std::string Val(char fill) {
    return std::string(system_->config().object_size, fill);
  }

  std::unique_ptr<System> system_;
};

TEST_F(ClientApiTest, OperationsOnUnknownTxnRejected) {
  Client& c = system_->client(0);
  EXPECT_EQ(c.Write(TxnId(999999), ObjectId{PageId(0), 0}, Val('a')).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(c.Commit(TxnId(999999)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.Abort(TxnId(999999)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.Read(TxnId(999999), ObjectId{PageId(0), 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ClientApiTest, DoubleCommitRejected) {
  Client& c = system_->client(0);
  TxnId txn = c.Begin().value();
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(0), 0}, Val('b')).ok());
  ASSERT_TRUE(c.Commit(txn).ok());
  EXPECT_EQ(c.Commit(txn).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.Abort(txn).code(), StatusCode::kInvalidArgument);
}

TEST_F(ClientApiTest, WriteAfterAbortRejected) {
  Client& c = system_->client(0);
  TxnId txn = c.Begin().value();
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(0), 0}, Val('c')).ok());
  ASSERT_TRUE(c.Abort(txn).ok());
  EXPECT_EQ(c.Write(txn, ObjectId{PageId(0), 1}, Val('d')).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ClientApiTest, SizeChangingWriteRejected) {
  Client& c = system_->client(0);
  TxnId txn = c.Begin().value();
  EXPECT_EQ(c.Write(txn, ObjectId{PageId(0), 0}, "short").code(),
            StatusCode::kInvalidArgument);
  // Resize is the sanctioned path.
  EXPECT_TRUE(c.Resize(txn, ObjectId{PageId(0), 0}, "short").ok());
  ASSERT_TRUE(c.Commit(txn).ok());
}

TEST_F(ClientApiTest, ReadMissingObjectNotFound) {
  Client& c = system_->client(0);
  TxnId txn = c.Begin().value();
  EXPECT_TRUE(c.Read(txn, ObjectId{PageId(0), 999}).status().IsNotFound());
  ASSERT_TRUE(c.Commit(txn).ok());
}

TEST_F(ClientApiTest, CrashedClientRefusesWork) {
  ASSERT_TRUE(system_->CrashClient(0).ok());
  Client& c = system_->client(0);
  EXPECT_TRUE(c.Begin().status().IsCrashed());
  EXPECT_TRUE(c.TakeCheckpoint().IsCrashed());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  EXPECT_TRUE(c.Begin().ok());
}

TEST_F(ClientApiTest, NestedSavepoints) {
  Client& c = system_->client(0);
  TxnId txn = c.Begin().value();
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(1), 0}, Val('1')).ok());
  size_t sp1 = c.SetSavepoint(txn).value();
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(1), 1}, Val('2')).ok());
  size_t sp2 = c.SetSavepoint(txn).value();
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(1), 2}, Val('3')).ok());

  // Inner rollback undoes only the third write.
  ASSERT_TRUE(c.RollbackToSavepoint(txn, sp2).ok());
  EXPECT_EQ(c.Read(txn, ObjectId{PageId(1), 1}).value(), Val('2'));
  EXPECT_EQ(c.Read(txn, ObjectId{PageId(1), 2}).value(), Val('\0'));

  // Outer rollback undoes the second as well; sp2 is gone afterwards.
  ASSERT_TRUE(c.RollbackToSavepoint(txn, sp1).ok());
  EXPECT_EQ(c.Read(txn, ObjectId{PageId(1), 1}).value(), Val('\0'));
  EXPECT_EQ(c.RollbackToSavepoint(txn, sp2).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(c.Read(txn, ObjectId{PageId(1), 0}).value(), Val('1'));
  ASSERT_TRUE(c.Commit(txn).ok());
}

TEST_F(ClientApiTest, RollbackToSavepointTwice) {
  Client& c = system_->client(0);
  TxnId txn = c.Begin().value();
  size_t sp = c.SetSavepoint(txn).value();
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(2), 0}, Val('x')).ok());
  ASSERT_TRUE(c.RollbackToSavepoint(txn, sp).ok());
  // The savepoint survives its own use.
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(2), 0}, Val('y')).ok());
  ASSERT_TRUE(c.RollbackToSavepoint(txn, sp).ok());
  EXPECT_EQ(c.Read(txn, ObjectId{PageId(2), 0}).value(), Val('\0'));
  ASSERT_TRUE(c.Commit(txn).ok());
}

TEST_F(ClientApiTest, DeleteThenRecreateReusesSlot) {
  Client& c = system_->client(0);
  TxnId t1 = c.Begin().value();
  auto oid = c.Create(t1, PageId(3), "first incarnation");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c.Commit(t1).ok());

  TxnId t2 = c.Begin().value();
  ASSERT_TRUE(c.Delete(t2, oid.value()).ok());
  auto oid2 = c.Create(t2, PageId(3), "second incarnation");
  ASSERT_TRUE(oid2.ok());
  EXPECT_EQ(oid2.value(), oid.value());  // Slot reused.
  ASSERT_TRUE(c.Commit(t2).ok());

  TxnId t3 = c.Begin().value();
  EXPECT_EQ(c.Read(t3, oid.value()).value(), "second incarnation");
  ASSERT_TRUE(c.Commit(t3).ok());
}

TEST_F(ClientApiTest, ResizeChainSurvivesCrash) {
  Client& c = system_->client(0);
  TxnId txn = c.Begin().value();
  auto oid = c.Create(txn, PageId(4), "v0");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c.Resize(txn, oid.value(), "v1 is somewhat longer").ok());
  ASSERT_TRUE(c.Resize(txn, oid.value(), "v2").ok());
  ASSERT_TRUE(
      c.Resize(txn, oid.value(), std::string(300, 'z')).ok());
  ASSERT_TRUE(c.Commit(txn).ok());
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  TxnId check = c.Begin().value();
  EXPECT_EQ(c.Read(check, oid.value()).value(), std::string(300, 'z'));
  ASSERT_TRUE(c.Commit(check).ok());
}

TEST_F(ClientApiTest, AbortedStructuralTransaction) {
  Client& c = system_->client(0);
  TxnId t1 = c.Begin().value();
  auto kept = c.Create(t1, PageId(5), "kept");
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(c.Commit(t1).ok());

  TxnId t2 = c.Begin().value();
  auto doomed = c.Create(t2, PageId(5), "doomed");
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(c.Delete(t2, kept.value()).ok());
  ASSERT_TRUE(c.Abort(t2).ok());

  TxnId t3 = c.Begin().value();
  EXPECT_EQ(c.Read(t3, kept.value()).value(), "kept");  // Delete undone.
  EXPECT_TRUE(c.Read(t3, doomed.value()).status().IsNotFound());  // Create undone.
  ASSERT_TRUE(c.Commit(t3).ok());
}

TEST_F(ClientApiTest, InterleavedLocalTransactionsConflict) {
  // Two transactions on the SAME client contend for one object: the LLM
  // must enforce local two-phase locking.
  Client& c = system_->client(0);
  TxnId t1 = c.Begin().value();
  TxnId t2 = c.Begin().value();
  ASSERT_TRUE(c.Write(t1, ObjectId{PageId(6), 0}, Val('p')).ok());
  EXPECT_TRUE(c.Write(t2, ObjectId{PageId(6), 0}, Val('q')).IsWouldBlock());
  EXPECT_TRUE(c.Read(t2, ObjectId{PageId(6), 0}).status().IsWouldBlock());
  // Disjoint objects proceed.
  EXPECT_TRUE(c.Write(t2, ObjectId{PageId(6), 1}, Val('r')).ok());
  ASSERT_TRUE(c.Commit(t1).ok());
  EXPECT_TRUE(c.Write(t2, ObjectId{PageId(6), 0}, Val('q')).ok());
  ASSERT_TRUE(c.Commit(t2).ok());
}

// Commit and Abort remove a transaction from the client's table: however
// many transactions run, the table holds only the open ones.
TEST_F(ClientApiTest, TxnTableHoldsOnlyOpenTransactions) {
  Client& c = system_->client(0);
  const ObjectId held{PageId(7), 0};
  TxnId open = c.Begin().value();
  ASSERT_TRUE(c.Write(open, held, Val('o')).ok());

  constexpr int kTxns = 20000;
  for (int i = 0; i < kTxns; ++i) {
    TxnId txn = c.Begin().value();
    ASSERT_EQ(c.active_txns(), 2u) << "txn " << i;
    SlotId slot = static_cast<SlotId>(i % 8);
    ASSERT_TRUE(c.Write(txn, ObjectId{PageId(8), slot},
                        Val(static_cast<char>('a' + i % 26)))
                    .ok());
    if (i % 10 == 9) {
      ASSERT_TRUE(c.Abort(txn).ok()) << "txn " << i;
    } else {
      ASSERT_TRUE(c.Commit(txn).ok()) << "txn " << i;
    }
    ASSERT_EQ(c.active_txns(), 1u) << "txn " << i;
  }
  EXPECT_EQ(c.commits(), static_cast<uint64_t>(kTxns - kTxns / 10));
  EXPECT_EQ(c.aborts(), static_cast<uint64_t>(kTxns / 10));

  EXPECT_EQ(c.Read(open, held).value(), Val('o'));
  ASSERT_TRUE(c.Commit(open).ok());
  EXPECT_EQ(c.active_txns(), 0u);
  Client& other = system_->client(1);
  TxnId check = other.Begin().value();
  EXPECT_EQ(other.Read(check, held).value(), Val('o'));
  ASSERT_TRUE(other.Commit(check).ok());
}

// A structural grow that cannot fit the page is refused before anything is
// logged, so there is nothing for Abort or restart recovery to trip over.
TEST_F(ClientApiTest, ResizePastPageSpaceFailsBeforeLogging) {
  Client& c = system_->client(0);
  const ObjectId oid{PageId(1), 3};
  TxnId txn = c.Begin().value();
  std::string old_value = c.Read(txn, oid).value();
  Lsn end_before = c.log().end_lsn();
  EXPECT_EQ(c.Resize(txn, oid, std::string(1900, 'g')).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(c.log().end_lsn(), end_before);
  ASSERT_TRUE(c.Abort(txn).ok());

  TxnId check = c.Begin().value();
  EXPECT_EQ(c.Read(check, oid).value(), old_value);
  ASSERT_TRUE(c.Commit(check).ok());
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  TxnId after = c.Begin().value();
  EXPECT_EQ(c.Read(after, oid).value(), old_value);
  ASSERT_TRUE(c.Commit(after).ok());
}

TEST_F(ClientApiTest, PageAllocationExhaustion) {
  SystemConfig config = SmallConfig("alloc_exhaust");
  config.num_pages = 18;       // 16 preloaded + 2 free.
  config.preloaded_pages = 16;
  auto system = System::Create(config).value();
  Client& c = system->client(0);
  TxnId txn = c.Begin().value();
  EXPECT_TRUE(c.AllocatePage(txn).ok());
  EXPECT_TRUE(c.AllocatePage(txn).ok());
  EXPECT_EQ(c.AllocatePage(txn).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(c.Commit(txn).ok());
}

// Wall time of one one-write transaction's commit, the best of 5, while
// client 0 caches S locks on `locks` objects with no users. Commit ends the
// transaction in the LLM; that must cost what the transaction used, not what
// the cache holds. The locks go straight into the LLM: only its size matters.
double BestCommitUs(uint32_t locks) {
  auto sys = System::Create(SmallConfig("client_commit_scale"));
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  if (!sys.ok()) return 0;
  System& system = *sys.value();
  Client& c0 = system.client(0);
  constexpr SlotId kSlotsPerPage = 8;
  const TxnId filler(1);
  for (uint32_t i = 0; i < locks; ++i) {
    c0.llm().AddObjectLock(
        filler,
        ObjectId{PageId(1000 + i / kSlotsPerPage), SlotId(i % kSlotsPerPage)},
        LockMode::kShared);
  }
  c0.llm().OnTxnEnd(filler);
  double best_us = 1e12;
  for (int run = 0; run < 5; ++run) {
    TxnId txn = c0.Begin().value();
    EXPECT_TRUE(c0.Write(txn, ObjectId{PageId(1), 0},
                         std::string(system.config().object_size, 'a' + run))
                    .ok());
    auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(c0.Commit(txn).ok());
    std::chrono::duration<double, std::micro> took =
        std::chrono::steady_clock::now() - start;
    best_us = std::min(best_us, took.count());
  }
  EXPECT_GE(c0.llm().size(), locks);  // The cached locks stay.
  return best_us;
}

TEST(ClientScaleTest, CommitCostDoesNotGrowWithLlmSize) {
  double small_us = BestCommitUs(128);
  double large_us = BestCommitUs(16384);
  EXPECT_LT(large_us, 10 * small_us)
      << "128 locks: " << small_us << " us, 16384 locks: " << large_us
      << " us";
}

}  // namespace
}  // namespace finelog
