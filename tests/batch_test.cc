// Message batching (DESIGN.md section 12): lock misses, page fetches and
// page ships travel as multi-item messages of up to config.max_batch_items,
// paying the per-message overhead once per batch. These tests pin the
// message-count savings, the exact equivalence of batch size 1 with the
// sequential paths, and failure propagation out of a batch.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

SystemConfig BatchConfig(const std::string& name, uint32_t batch) {
  SystemConfig config = SmallConfig(name);
  config.num_clients = 2;
  config.max_batch_items = batch;
  return config;
}

std::vector<std::pair<ObjectId, std::string>> ColdWrites(char fill) {
  std::vector<std::pair<ObjectId, std::string>> writes;
  for (uint32_t p = 0; p < 8; ++p) {
    writes.emplace_back(ObjectId{static_cast<PageId>(p), 0},
                        std::string(64, fill));
  }
  return writes;
}

TEST(BatchTest, WriteBatchCoalescesLockMisses) {
  auto seq = System::Create(BatchConfig("batch_w_seq", 1)).value();
  auto bat = System::Create(BatchConfig("batch_w_bat", 8)).value();

  uint64_t msgs_seq, items_seq, msgs_bat, items_bat;
  {
    Client& c = seq->client(0);
    TxnId txn = c.Begin().value();
    uint64_t m0 = seq->channel().total_messages();
    uint64_t i0 = seq->channel().total_items();
    ASSERT_TRUE(c.WriteBatch(txn, ColdWrites('s')).ok());
    msgs_seq = seq->channel().total_messages() - m0;
    items_seq = seq->channel().total_items() - i0;
    ASSERT_TRUE(c.Commit(txn).ok());
  }
  {
    Client& c = bat->client(0);
    TxnId txn = c.Begin().value();
    uint64_t m0 = bat->channel().total_messages();
    uint64_t i0 = bat->channel().total_items();
    ASSERT_TRUE(c.WriteBatch(txn, ColdWrites('s')).ok());
    msgs_bat = bat->channel().total_messages() - m0;
    items_bat = bat->channel().total_items() - i0;
    ASSERT_TRUE(c.Commit(txn).ok());
  }

  // 8 cold object locks: 16 messages sequentially, one request/reply pair
  // when batched. The logical item count is identical either way.
  EXPECT_EQ(msgs_seq, 16u);
  EXPECT_EQ(msgs_bat, 2u);
  EXPECT_EQ(items_seq, items_bat);
  EXPECT_EQ(bat->metrics().Get(Counter::kClientBatchLockRequests), 1u);
  EXPECT_EQ(bat->metrics().Get(Counter::kClientBatchLockItems), 8u);

  // Same data in both deployments.
  for (const auto& [oid, value] : ColdWrites('s')) {
    for (System* system : {seq.get(), bat.get()}) {
      TxnId txn = system->client(0).Begin().value();
      auto got = system->client(0).Read(txn, oid);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), value);
      ASSERT_TRUE(system->client(0).Commit(txn).ok());
    }
  }
}

TEST(BatchTest, BatchSizeOneMatchesSequentialWritesExactly) {
  auto loop_sys = System::Create(BatchConfig("batch_par_loop", 1)).value();
  auto batch_sys = System::Create(BatchConfig("batch_par_batch", 1)).value();

  {
    Client& c = loop_sys->client(0);
    TxnId txn = c.Begin().value();
    for (const auto& [oid, value] : ColdWrites('p')) {
      ASSERT_TRUE(c.Write(txn, oid, value).ok());
    }
    ASSERT_TRUE(c.Commit(txn).ok());
  }
  {
    Client& c = batch_sys->client(0);
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(c.WriteBatch(txn, ColdWrites('p')).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
  }

  // With max_batch_items == 1 the batched entry points charge the channel
  // and the clock exactly like the sequential ones.
  EXPECT_EQ(loop_sys->channel().total_messages(),
            batch_sys->channel().total_messages());
  EXPECT_EQ(loop_sys->channel().total_items(),
            batch_sys->channel().total_items());
  EXPECT_EQ(loop_sys->channel().total_bytes(),
            batch_sys->channel().total_bytes());
  EXPECT_EQ(loop_sys->clock().now_us(), batch_sys->clock().now_us());
  EXPECT_EQ(batch_sys->metrics().Get(Counter::kClientBatchLockRequests), 0u);
}

TEST(BatchTest, ReadBatchCoalescesPageFetches) {
  auto system = System::Create(BatchConfig("batch_fetch", 8)).value();
  Client& c = system->client(0);
  {
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(c.WriteBatch(txn, ColdWrites('f')).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
  }
  // Ship and drop every dirty page; the locks stay cached, so a re-read
  // needs fetches but no lock traffic.
  ASSERT_TRUE(c.ShipAllDirtyPages().ok());

  std::vector<ObjectId> oids;
  for (const auto& [oid, value] : ColdWrites('f')) {
    (void)value;
    oids.push_back(oid);
  }
  uint64_t m0 = system->channel().total_messages();
  TxnId txn = c.Begin().value();
  auto values = c.ReadBatch(txn, oids);
  ASSERT_TRUE(values.ok());
  // 8 uncached pages fetched as one request/reply pair.
  EXPECT_EQ(system->channel().total_messages() - m0, 2u);
  EXPECT_EQ(system->metrics().Get(Counter::kClientBatchFetchRequests), 1u);
  EXPECT_EQ(system->metrics().Get(Counter::kClientBatchFetchItems), 8u);
  for (size_t i = 0; i < oids.size(); ++i) {
    EXPECT_EQ(values.value()[i], std::string(64, 'f'));
  }
  ASSERT_TRUE(c.Commit(txn).ok());
}

TEST(BatchTest, BatchedShipDeliversEveryPageToTheServer) {
  auto system = System::Create(BatchConfig("batch_ship", 4)).value();
  Client& c = system->client(0);
  {
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(c.WriteBatch(txn, ColdWrites('m')).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
  }
  uint64_t m0 = system->channel().total_messages();
  ASSERT_TRUE(c.ShipAllDirtyPages().ok());
  // 8 dirty pages in chunks of 4: two ship messages, two acks.
  EXPECT_EQ(system->channel().total_messages() - m0, 4u);
  EXPECT_EQ(system->metrics().Get(Counter::kClientBatchShipRequests), 2u);
  EXPECT_EQ(system->metrics().Get(Counter::kClientBatchShipItems), 8u);

  // The server's merged copies carry the data: another client reads every
  // object back (client 0 no longer caches the pages).
  Client& other = system->client(1);
  for (const auto& [oid, value] : ColdWrites('m')) {
    TxnId txn = other.Begin().value();
    auto got = other.Read(txn, oid);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), value);
    ASSERT_TRUE(other.Commit(txn).ok());
  }
}

TEST(BatchTest, ShipAllDirtyPagesForcesTheLogOnce) {
  // WAL (Section 2): one force covers every page shipped after it, so the
  // chunk size changes the number of ship exchanges but not of forces.
  for (uint32_t batch : {1u, 4u}) {
    SCOPED_TRACE(batch);
    auto system =
        System::Create(BatchConfig("batch_one_force_" + std::to_string(batch),
                                   batch))
            .value();
    Client& c = system->client(0);
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(c.WriteBatch(txn, ColdWrites('o')).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
    uint64_t forces0 = c.log().force_count();
    uint64_t ships0 = system->channel().stats(MessageType::kPageShip).count;
    ASSERT_TRUE(c.ShipAllDirtyPages().ok());
    EXPECT_EQ(c.log().force_count() - forces0, 1u);
    EXPECT_EQ(system->channel().stats(MessageType::kPageShip).count - ships0,
              8u / batch);
  }
}

TEST(BatchTest, LockConflictInsideABatchSurfacesWouldBlock) {
  auto system = System::Create(BatchConfig("batch_conflict", 8)).value();
  Client& holder = system->client(1);
  ObjectId contested{static_cast<PageId>(3), 0};
  TxnId hold_txn = holder.Begin().value();
  ASSERT_TRUE(holder.Write(hold_txn, contested, std::string(64, 'h')).ok());

  // The batch contains the contested object: its callback is denied while
  // the holder's transaction is active, and the whole call reports it.
  Client& c = system->client(0);
  TxnId txn = c.Begin().value();
  Status st = c.WriteBatch(txn, ColdWrites('c'));
  EXPECT_TRUE(st.IsWouldBlock()) << st.ToString();

  // After the holder commits and releases, the same batch goes through.
  ASSERT_TRUE(holder.Commit(hold_txn).ok());
  ASSERT_TRUE(holder.ReleaseIdleLocks().ok());
  EXPECT_TRUE(c.WriteBatch(txn, ColdWrites('c')).ok());
  ASSERT_TRUE(c.Commit(txn).ok());
}

}  // namespace
}  // namespace finelog
