// Server-side bookkeeping tests (Section 3.2): DCT entry lifecycle,
// replacement log records, flush notifications, and the merge path --
// observed through the Server's introspection accessors.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sys = System::Create(SmallConfig("server_unit"));
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }

  std::string Val(char fill) {
    return std::string(system_->config().object_size, fill);
  }

  std::unique_ptr<System> system_;
};

TEST_F(ServerTest, DctEntryCreatedAtFirstExclusiveGrant) {
  Client& c0 = system_->client(0);
  EXPECT_FALSE(system_->server().dct().Get(PageId(1), ClientId(0)).has_value());
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(1), 0}, Val('a')).ok());
  // The X grant inserted the entry; the client had no cached copy, so the
  // PSN is that of the copy the server sent.
  auto entry = system_->server().dct().Get(PageId(1), ClientId(0));
  ASSERT_TRUE(entry.has_value());
  EXPECT_NE(entry->psn, kNullPsn);
  ASSERT_TRUE(c0.Commit(txn).ok());
}

TEST_F(ServerTest, DctPsnAdvancesOnShip) {
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(1), 0}, Val('b')).ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  Psn at_grant = system_->server().dct().Get(PageId(1), ClientId(0))->psn;
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());
  Psn after_ship = system_->server().dct().Get(PageId(1), ClientId(0))->psn;
  EXPECT_GT(after_ship, at_grant);
}

TEST_F(ServerTest, ReplacementRecordWrittenBeforePageForce) {
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(2), 0}, Val('c')).ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());

  uint64_t records_before =
      system_->metrics().Get("server.replacement_records");
  ASSERT_TRUE(system_->server().FlushAllPages().ok());
  EXPECT_GT(system_->metrics().Get("server.replacement_records"),
            records_before);

  // The record is durable in the server log and names the client.
  bool found = false;
  Status st = system_->server().log().Scan(
      system_->server().log().begin_lsn(), [&](const LogRecord& rec) {
        if (rec.type == LogRecordType::kReplacement && rec.page == PageId(2)) {
          for (const DctEntry& e : rec.dct) {
            if (e.client == ClientId(0)) found = true;
          }
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(found);
}

TEST_F(ServerTest, FlushRemovesDctEntryOnceLocksGone) {
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(3), 0}, Val('d')).ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());

  // Flush while c0 still holds the (cached) X lock: entry survives.
  ASSERT_TRUE(system_->server().FlushAllPages().ok());
  EXPECT_TRUE(system_->server().dct().Get(PageId(3), ClientId(0)).has_value());

  // c1 takes the object over (c0's lock released), then a flush drops it.
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(c1.Write(t1, ObjectId{PageId(3), 0}, Val('e')).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
  ASSERT_TRUE(c1.ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->server().FlushAllPages().ok());
  EXPECT_FALSE(system_->server().dct().Get(PageId(3), ClientId(0)).has_value());
  EXPECT_TRUE(system_->server().dct().Get(PageId(3), ClientId(1)).has_value());
}

TEST_F(ServerTest, MergePreservesOtherClientsSlots) {
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);
  TxnId t0 = c0.Begin().value();
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(4), 0}, Val('f')).ok());
  ASSERT_TRUE(c1.Write(t1, ObjectId{PageId(4), 1}, Val('g')).ok());
  ASSERT_TRUE(c0.Commit(t0).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());
  ASSERT_TRUE(c1.ShipAllDirtyPages().ok());

  BufferPool::Frame* frame = system_->server().pool().Peek(PageId(4));
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->page.ReadObject(0).value(), Val('f'));
  EXPECT_EQ(frame->page.ReadObject(1).value(), Val('g'));
}

TEST_F(ServerTest, ServerCheckpointCarriesDct) {
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(5), 0}, Val('h')).ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(system_->server().TakeCheckpoint().ok());

  Lsn ckpt = system_->server().log().checkpoint_lsn();
  ASSERT_NE(ckpt, kNullLsn);
  auto rec = system_->server().log().Read(ckpt);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().type, LogRecordType::kServerCheckpoint);
  bool has_entry = false;
  for (const DctEntry& e : rec.value().dct) {
    if (e.page == PageId(5) && e.client == ClientId(0)) has_entry = true;
  }
  EXPECT_TRUE(has_entry);
}

TEST_F(ServerTest, CrashedServerRefusesRequests) {
  Client& c0 = system_->client(0);
  ASSERT_TRUE(system_->CrashServer().ok());
  TxnId txn = c0.Begin().value();  // Begin is local: fine.
  // Cached-lock/cached-page operations still work locally...
  // ...but a lock miss reaches the dead server.
  EXPECT_TRUE(c0.Write(txn, ObjectId{PageId(6), 0}, Val('i')).IsCrashed());
  ASSERT_TRUE(system_->RecoverServer().ok());
  EXPECT_TRUE(c0.Write(txn, ObjectId{PageId(6), 0}, Val('i')).ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
}

TEST_F(ServerTest, LocalOperationsSurviveServerOutage) {
  // The availability story: a client with cached locks and pages keeps
  // committing while the server is down.
  Client& c0 = system_->client(0);
  TxnId warm = c0.Begin().value();
  ASSERT_TRUE(c0.Write(warm, ObjectId{PageId(7), 0}, Val('j')).ok());
  ASSERT_TRUE(c0.Commit(warm).ok());

  ASSERT_TRUE(system_->CrashServer().ok());
  TxnId txn = c0.Begin().value();
  EXPECT_TRUE(c0.Write(txn, ObjectId{PageId(7), 0}, Val('k')).ok());  // Cached X.
  EXPECT_TRUE(c0.Commit(txn).ok());  // Local log force only.
  ASSERT_TRUE(system_->RecoverAll().ok());

  Client& c1 = system_->client(1);
  TxnId check = c1.Begin().value();
  EXPECT_EQ(c1.Read(check, ObjectId{PageId(7), 0}).value(), Val('k'));
  ASSERT_TRUE(c1.Commit(check).ok());
}

TEST_F(ServerTest, PageDeallocationRetainsPsnLineage) {
  // Admin-level deallocation (quiescent): the space map remembers the final
  // PSN so a reallocated page starts past every PSN it ever carried.
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  auto pid = c0.AllocatePage(txn);
  ASSERT_TRUE(pid.ok());
  auto oid = c0.Create(txn, pid.value(), "ephemeral");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(system_->FlushEverything().ok());
  // An exclusively-locked page cannot be deallocated...
  EXPECT_EQ(system_->server().DeallocatePage(pid.value()).code(),
            StatusCode::kFailedPrecondition);
  // ...so the client releases its idle locks first (orderly disconnect).
  ASSERT_TRUE(c0.ReleaseIdleLocks().ok());
  ASSERT_TRUE(system_->FlushEverything().ok());

  Psn final_psn =
      system_->server().pool().Peek(pid.value()) != nullptr
          ? system_->server().pool().Peek(pid.value())->page.psn()
          : Psn(0);
  ASSERT_TRUE(system_->server().DeallocatePage(pid.value()).ok());
  EXPECT_FALSE(system_->server().space_map().IsAllocated(pid.value()));

  auto realloc = system_->server().space_map().AllocatePage();
  ASSERT_TRUE(realloc.ok());
  EXPECT_EQ(realloc.value().page, pid.value());
  EXPECT_GT(realloc.value().initial_psn, final_psn);
}

TEST_F(ServerTest, PageDeallocationRefusesUnreadablePage) {
  // A corrupt disk copy hides the page's final PSN. Deallocating anyway
  // would lose the lineage the space map keeps, so the page stays allocated.
  const PageId pid(7);
  ASSERT_EQ(system_->server().pool().Peek(pid), nullptr);
  {
    std::fstream f(system_->config().dir + "/db.pages",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto off = static_cast<std::streamoff>(
        pid.value() * system_->config().page_size + 100);
    f.seekg(off);
    const char flipped = static_cast<char>(f.get() ^ 0x5a);
    f.seekp(off);
    f.put(flipped);
  }
  EXPECT_EQ(system_->server().DeallocatePage(pid).code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(system_->server().space_map().IsAllocated(pid));
}

// Wall time of one page write to disk, the best of 5, while client 0 holds
// X locks on `locks` objects. The write asks the GLM whether the client still
// holds an X lock on the page; that must cost what the page holds, not what
// the GLM holds. The locks go straight into the GLM: only its size matters.
double BestPageWriteUs(uint32_t locks) {
  auto sys = System::Create(SmallConfig("server_page_write_scale"));
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  if (!sys.ok()) return 0;
  System& system = *sys.value();
  constexpr SlotId kSlotsPerPage = 64;
  for (uint32_t i = 0; i < locks; ++i) {
    system.server().glm().GrantObject(
        ClientId(0),
        ObjectId{PageId(1000 + i / kSlotsPerPage), SlotId(i % kSlotsPerPage)},
        LockMode::kExclusive);
  }
  Client& c0 = system.client(0);
  double best_us = 1e12;
  for (int run = 0; run < 5; ++run) {
    TxnId txn = c0.Begin().value();
    EXPECT_TRUE(c0.Write(txn, ObjectId{PageId(1), 0},
                         std::string(system.config().object_size, 'a' + run))
                    .ok());
    EXPECT_TRUE(c0.Commit(txn).ok());
    EXPECT_TRUE(c0.ShipAllDirtyPages().ok());
    auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(system.server().FlushAllPages().ok());
    std::chrono::duration<double, std::micro> took =
        std::chrono::steady_clock::now() - start;
    best_us = std::min(best_us, took.count());
  }
  // The client still holds its X lock, so the page keeps its DCT entry.
  EXPECT_TRUE(system.server().dct().Get(PageId(1), ClientId(0)).has_value());
  return best_us;
}

TEST(ServerScaleTest, PageWriteCostDoesNotGrowWithGlmSize) {
  double small_us = BestPageWriteUs(128);
  double large_us = BestPageWriteUs(16384);
  EXPECT_LT(large_us, 10 * small_us)
      << "128 locks: " << small_us << " us, 16384 locks: " << large_us
      << " us";
}

}  // namespace
}  // namespace finelog
