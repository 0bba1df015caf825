// End-to-end tests of normal processing through the public System API.

#include <gtest/gtest.h>

#include "core/system.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace finelog {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void Start(SystemConfig config) {
    auto sys = System::Create(config);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }
  void Start(const std::string& name) { Start(SmallConfig(name)); }

  // Runs a single-op committed write.
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

  std::unique_ptr<System> system_;
};

std::string Val(const SystemConfig& cfg, char fill) {
  return std::string(cfg.object_size, fill);
}

TEST_F(IntegrationTest, ReadBootstrapObject) {
  Start("read_bootstrap");
  std::string v = ReadCommitted(0, ObjectId{PageId(0), 0});
  EXPECT_EQ(v, std::string(system_->config().object_size, '\0'));
}

// A preload that fails part-way must leave no allocated page behind: the
// space map is persisted only after the last page write, so the next Create
// on the same directory bootstraps again and every preloaded page exists.
TEST_F(IntegrationTest, FailedPreloadBootstrapsAgain) {
  FaultInjector injector;
  SystemConfig config = SmallConfig("failed_preload");
  config.fault_injector = &injector;
  injector.ArmPoint("server.disk.page", 5, FaultAction::kError);
  EXPECT_FALSE(System::Create(config).ok());
  ASSERT_TRUE(injector.triggered());
  injector.Disarm();

  Start(config);
  for (uint32_t p = 0; p < config.preloaded_pages; ++p) {
    EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(p), 0}),
              Val(config, '\0'))
        << "page " << p;
  }
}

TEST_F(IntegrationTest, WriteReadBackSameClient) {
  Start("write_read");
  std::string v = Val(system_->config(), 'A');
  CommittedWrite(0, ObjectId{PageId(1), 2}, v);
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(1), 2}), v);
}

TEST_F(IntegrationTest, CommitIsPurelyLocal) {
  Start("local_commit");
  Client& c = system_->client(0);
  TxnId txn = c.Begin().value();
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(1), 1}, Val(system_->config(), 'B')).ok());
  uint64_t msgs_before = system_->channel().total_messages();
  ASSERT_TRUE(c.Commit(txn).ok());
  // The paper's headline: commit sends nothing to the server.
  EXPECT_EQ(system_->channel().total_messages(), msgs_before);
}

TEST_F(IntegrationTest, CrossClientVisibilityViaCallback) {
  Start("visibility");
  std::string v = Val(system_->config(), 'C');
  CommittedWrite(0, ObjectId{PageId(2), 3}, v);
  // Client 1 reads: the server calls back client 0 (downgrade), which ships
  // its dirty copy; client 1 must see the new value.
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(2), 3}), v);
  EXPECT_GT(system_->metrics().Get("server.callbacks_object"), 0u);
}

TEST_F(IntegrationTest, WriteWriteAcrossClients) {
  Start("ww");
  std::string v0 = Val(system_->config(), 'D');
  std::string v1 = Val(system_->config(), 'E');
  CommittedWrite(0, ObjectId{PageId(3), 0}, v0);
  CommittedWrite(1, ObjectId{PageId(3), 0}, v1);  // Release callback to client 0.
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(3), 0}), v1);
  EXPECT_EQ(ReadCommitted(0, ObjectId{PageId(3), 0}), v1);
}

TEST_F(IntegrationTest, ConcurrentSamePageUpdatesNoConflict) {
  // The core Section 3.1 scenario: different clients update different
  // objects of the same page, concurrently, with active transactions.
  Start("same_page");
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);
  std::string v0 = Val(system_->config(), 'F');
  std::string v1 = Val(system_->config(), 'G');

  TxnId t0 = c0.Begin().value();
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(4), 0}, v0).ok());
  ASSERT_TRUE(c1.Write(t1, ObjectId{PageId(4), 1}, v1).ok());  // Same page, no block.
  ASSERT_TRUE(c0.Commit(t0).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());

  // Both clients ship their divergent copies; the server merges them.
  ASSERT_TRUE(system_->client(0).ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->client(1).ShipAllDirtyPages().ok());
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(4), 0}), v0);
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(4), 1}), v1);
  EXPECT_GT(system_->metrics().Get("server.pages_merged"), 0u);
}

TEST_F(IntegrationTest, ActiveLockBlocksConflictingClient) {
  Start("blocking");
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);
  std::string v = Val(system_->config(), 'H');
  TxnId t0 = c0.Begin().value();
  ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(5), 0}, v).ok());

  TxnId t1 = c1.Begin().value();
  EXPECT_TRUE(c1.Write(t1, ObjectId{PageId(5), 0}, v).IsWouldBlock());
  EXPECT_TRUE(c1.Read(t1, ObjectId{PageId(5), 0}).status().IsWouldBlock());

  ASSERT_TRUE(c0.Commit(t0).ok());
  // After commit the lock is only cached: the callback now succeeds.
  EXPECT_TRUE(c1.Write(t1, ObjectId{PageId(5), 0}, v).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
}

TEST_F(IntegrationTest, AbortRestoresOldValues) {
  Start("abort");
  std::string v_old = Val(system_->config(), 'I');
  std::string v_new = Val(system_->config(), 'J');
  CommittedWrite(0, ObjectId{PageId(6), 0}, v_old);

  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(6), 0}, v_new).ok());
  ASSERT_TRUE(c0.Abort(txn).ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(6), 0}), v_old);
}

TEST_F(IntegrationTest, SavepointPartialRollback) {
  Start("savepoint");
  std::string v1 = Val(system_->config(), 'K');
  std::string v2 = Val(system_->config(), 'L');
  std::string v3 = Val(system_->config(), 'M');

  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(7), 0}, v1).ok());
  auto sp = c0.SetSavepoint(txn);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(7), 0}, v2).ok());
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(7), 1}, v3).ok());
  ASSERT_TRUE(c0.RollbackToSavepoint(txn, sp.value()).ok());
  // Post-savepoint updates undone; pre-savepoint update kept.
  EXPECT_EQ(c0.Read(txn, ObjectId{PageId(7), 0}).value(), v1);
  EXPECT_EQ(c0.Read(txn, ObjectId{PageId(7), 1}).value(),
            std::string(system_->config().object_size, '\0'));
  ASSERT_TRUE(c0.Commit(txn).ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(7), 0}), v1);
}

TEST_F(IntegrationTest, StructuralOpsCreateResizeDelete) {
  Start("structural");
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  auto oid = c0.Create(txn, PageId(8), "created-object");
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  ASSERT_TRUE(c0.Resize(txn, oid.value(), "resized to a longer value").ok());
  ASSERT_TRUE(c0.Commit(txn).ok());

  EXPECT_EQ(ReadCommitted(1, oid.value()), "resized to a longer value");

  TxnId txn2 = c0.Begin().value();
  ASSERT_TRUE(c0.Delete(txn2, oid.value()).ok());
  ASSERT_TRUE(c0.Commit(txn2).ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());

  Client& c1 = system_->client(1);
  TxnId txn3 = c1.Begin().value();
  EXPECT_TRUE(c1.Read(txn3, oid.value()).status().IsNotFound());
  ASSERT_TRUE(c1.Commit(txn3).ok());
}

TEST_F(IntegrationTest, StructuralConflictsSerializeViaPageLock) {
  Start("structural_conflict");
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);
  TxnId t0 = c0.Begin().value();
  ASSERT_TRUE(c0.Create(t0, PageId(9), "from c0").ok());
  // c1 cannot structurally modify the same page while t0 is active.
  TxnId t1 = c1.Begin().value();
  EXPECT_TRUE(c1.Create(t1, PageId(9), "from c1").status().IsWouldBlock());
  ASSERT_TRUE(c0.Commit(t0).ok());
  auto oid = c1.Create(t1, PageId(9), "from c1");
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  ASSERT_TRUE(c1.Commit(t1).ok());
  EXPECT_EQ(ReadCommitted(2, oid.value()), "from c1");
}

TEST_F(IntegrationTest, PageAllocation) {
  Start("alloc");
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  auto pid = c0.AllocatePage(txn);
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  EXPECT_GE(pid.value().value(), system_->config().preloaded_pages);
  auto oid = c0.Create(txn, pid.value(), "on fresh page");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  EXPECT_EQ(ReadCommitted(1, oid.value()), "on fresh page");
}

TEST_F(IntegrationTest, CacheEvictionShipsDirtyPages) {
  SystemConfig config = SmallConfig("eviction");
  config.client_cache_pages = 4;  // Tiny cache forces replacement traffic.
  Start(config);
  Client& c0 = system_->client(0);
  std::string v = Val(system_->config(), 'N');
  for (uint32_t i = 0; i < 12; ++i) {
    PageId p(i);
    TxnId txn = c0.Begin().value();
    ASSERT_TRUE(c0.Write(txn, ObjectId{p, 0}, v).ok());
    ASSERT_TRUE(c0.Commit(txn).ok());
  }
  EXPECT_GT(system_->metrics().Get("client.pages_shipped"), 0u);
  for (uint32_t i = 0; i < 12; ++i) {
    PageId p(i);
    EXPECT_EQ(ReadCommitted(1, ObjectId{p, 0}), v) << "page " << p;
  }
}

TEST_F(IntegrationTest, EscalationToPageLock) {
  SystemConfig config = SmallConfig("escalation");
  config.escalation_threshold = 3;
  Start(config);
  Client& c0 = system_->client(0);
  TxnId txn = c0.Begin().value();
  std::string v = Val(system_->config(), 'O');
  for (SlotId s = 0; s < 6; ++s) {
    ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(10), s}, v).ok());
  }
  ASSERT_TRUE(c0.Commit(txn).ok());
  EXPECT_GT(system_->metrics().Get("client.escalations"), 0u);
  // Another client's access de-escalates the page lock.
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(10), 0}), v);
}

TEST_F(IntegrationTest, ManyClientsInterleavedOnOnePage) {
  SystemConfig config = SmallConfig("many_clients");
  config.num_clients = 6;
  Start(config);
  std::vector<TxnId> txns;
  std::string base = Val(system_->config(), 'P');
  for (size_t i = 0; i < 6; ++i) {
    Client& c = system_->client(i);
    TxnId t = c.Begin().value();
    std::string v = base;
    v[0] = static_cast<char>('0' + i);
    ASSERT_TRUE(c.Write(t, ObjectId{PageId(11), static_cast<SlotId>(i)}, v).ok());
    txns.push_back(t);
  }
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(system_->client(i).Commit(txns[i]).ok());
  }
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(system_->client(i).ShipAllDirtyPages().ok());
  }
  for (size_t i = 0; i < 6; ++i) {
    std::string v = base;
    v[0] = static_cast<char>('0' + i);
    EXPECT_EQ(ReadCommitted((i + 1) % 6, ObjectId{PageId(11), static_cast<SlotId>(i)}),
              v);
  }
}

TEST_F(IntegrationTest, LockCachingAvoidsRepeatServerTrips) {
  Start("lock_caching");
  Client& c0 = system_->client(0);
  std::string v = Val(system_->config(), 'Q');
  CommittedWrite(0, ObjectId{PageId(12), 0}, v);
  uint64_t misses_before = system_->metrics().Get("client.lock_misses");
  // Same object again: the cached X lock must be a pure local hit.
  CommittedWrite(0, ObjectId{PageId(12), 0}, v);
  (void)c0;
  EXPECT_EQ(system_->metrics().Get("client.lock_misses"), misses_before);
}

}  // namespace
}  // namespace finelog
