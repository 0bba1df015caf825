// Idempotency of every endpoint under unreliable delivery (DESIGN.md
// section 13).
//
// The broad tests turn one fault knob all the way up (dup_rate = 1.0,
// reorder_rate = 1.0, delay_rate = 1.0) and run the standard seeded
// workload: every request/reply exchange and every one-way notification --
// all server endpoints, the client callback handler, and the flush-notify
// handler -- is then delivered twice (or followed by a stale out-of-order
// copy), and the run must end in exactly the state of a fault-free twin.
//
// The targeted tests arm one-shot net.<side>.<endpoint>.<fault> fail points
// for fully deterministic single-fault scenarios: a duplicated request
// executes its body once and resends the cached reply; a dropped reply is
// recovered through retry + dedup without re-executing the body; a request
// that never arrives degrades to a clean kWouldBlock; a restarted client's
// epoch fences ghosts addressed to its previous incarnation.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tests/scenario.h"

namespace finelog {
namespace {

constexpr uint64_t kWorkloadSeed = 4242;

// Small caches force ships, evictions and flush notifications, so the
// workload crosses every endpoint family.
SystemConfig NetConfig(const std::string& name, const NetFaultConfig& net) {
  SystemConfig config = SmallCacheConfig(name);
  config.net_faults = net;
  return config;
}

WorkloadOptions NetWorkload() { return SeededWorkload(6, kWorkloadSeed); }

// Every preloaded object's committed value, concatenated. Run on a healed,
// quiescent system; equality of digests is equality of database state.
std::string StateDigest(System* system) {
  std::string out;
  for (uint32_t p = 0; p < system->config().preloaded_pages; ++p) {
    for (uint32_t s = 0; s < system->config().objects_per_page; ++s) {
      auto got =
          ProbeRead(system, ObjectId{PageId(p), static_cast<SlotId>(s)});
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (!got.ok()) return "<probe failed>";
      out += got.value();
      out += '|';
    }
  }
  return out;
}

struct TwinRun {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t ops = 0;
  uint64_t messages = 0;
  uint64_t sim_us = 0;
  std::string digest;
};

// Runs the standard workload under `net`, heals the network, quiesces,
// verifies against the oracle and digests the final state.
TwinRun RunUnder(const std::string& name, const NetFaultConfig& net) {
  TwinRun out;
  auto system = System::Create(NetConfig(name, net)).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, NetWorkload());
  Status st = workload.Run();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(workload.stats().read_mismatches, 0u);
  out.commits = workload.stats().commits;
  out.aborts = workload.stats().aborts;
  out.ops = workload.stats().ops;
  out.messages = system->channel().total_messages();
  out.sim_us = system->clock().now_us();
  system->rpc().faults() = NetFaultConfig{};  // Heal before verification.
  EXPECT_TRUE(system->FlushEverything().ok());
  auto mismatches = oracle.Verify(system.get(), 0);
  EXPECT_TRUE(mismatches.ok()) << mismatches.status().ToString();
  EXPECT_EQ(mismatches.value(), 0u);
  out.digest = StateDigest(system.get());
  return out;
}

// ---------------------------------------------------------------------------
// Broad sweeps: one knob at 1.0 hits every endpoint and handler.
// ---------------------------------------------------------------------------

// Every message delivered twice: request dups are absorbed by the sequence
// number shield (body runs once, cached reply resent), one-way dups run the
// handler twice and its own idempotency absorbs them. The run must be
// byte-identical to the clean twin in results -- only message counts grow.
TEST(NetIdempotencyTest, DuplicateEveryMessageMatchesCleanRun) {
  TwinRun clean = RunUnder("net_dup_clean", NetFaultConfig{});

  NetFaultConfig net;
  net.dup_rate = 1.0;
  net.seed = 7;
  TwinRun dup = RunUnder("net_dup_faulty", net);

  EXPECT_EQ(dup.commits, clean.commits);
  EXPECT_EQ(dup.aborts, clean.aborts);
  EXPECT_EQ(dup.ops, clean.ops);
  EXPECT_EQ(dup.digest, clean.digest);
  EXPECT_GT(dup.messages, clean.messages);
}

// Every message additionally surfaces later as a stale out-of-order copy.
// Ghost deliveries are fenced by sequence number and never re-execute a
// body, so results again match the clean twin exactly.
TEST(NetIdempotencyTest, ReorderEveryMessageMatchesCleanRun) {
  TwinRun clean = RunUnder("net_reorder_clean", NetFaultConfig{});

  NetFaultConfig net;
  net.reorder_rate = 1.0;
  net.seed = 13;
  TwinRun reorder = RunUnder("net_reorder_faulty", net);

  EXPECT_EQ(reorder.commits, clean.commits);
  EXPECT_EQ(reorder.aborts, clean.aborts);
  EXPECT_EQ(reorder.digest, clean.digest);
  EXPECT_GT(reorder.messages, clean.messages);
}

// Delays cost only simulated time: results identical, clock strictly later.
TEST(NetIdempotencyTest, DelayEveryMessageOnlyCostsTime) {
  TwinRun clean = RunUnder("net_delay_clean", NetFaultConfig{});

  NetFaultConfig net;
  net.delay_rate = 1.0;
  net.delay_us = 2000;
  net.seed = 17;
  TwinRun delayed = RunUnder("net_delay_faulty", net);

  EXPECT_EQ(delayed.commits, clean.commits);
  EXPECT_EQ(delayed.digest, clean.digest);
  EXPECT_GT(delayed.sim_us, clean.sim_us);
}

// A lossy (but not hopeless) network: retries and the dedup cache must carry
// every exchange to exactly-once completion, with zero oracle divergence.
TEST(NetIdempotencyTest, DropsRetryToExactlyOnce) {
  NetFaultConfig net;
  net.drop_rate = 0.25;
  net.seed = 11;
  auto system = System::Create(NetConfig("net_drop", net)).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, NetWorkload());
  Status st = workload.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(workload.stats().read_mismatches, 0u);
  EXPECT_GT(system->metrics().Get(Counter::kNetDrops), 0u);
  EXPECT_GT(system->metrics().Get(Counter::kNetRpcTimeouts), 0u);
  EXPECT_GT(system->metrics().Get(Counter::kNetRpcRetries), 0u);

  system->rpc().faults() = NetFaultConfig{};
  ASSERT_TRUE(system->FlushEverything().ok());
  auto mismatches = oracle.Verify(system.get(), 0);
  ASSERT_TRUE(mismatches.ok()) << mismatches.status().ToString();
  EXPECT_EQ(mismatches.value(), 0u);
}

// ---------------------------------------------------------------------------
// Targeted one-shot fail points: single-fault determinism.
// ---------------------------------------------------------------------------

// The two request shapes the targeted tests fault: one Write (a one-item
// lock request) and a 4-item WriteBatch under max_batch_items = 4 (one
// 4-item lock request).
struct RequestShape {
  const char* name;
  uint32_t items;  // Objects written, and items in the one lock request.
};
constexpr RequestShape kRequestShapes[] = {{"Write", 1}, {"WriteBatch", 4}};

SystemConfig ShapeConfig(const std::string& name, const RequestShape& shape,
                         const NetFaultConfig& net) {
  SystemConfig config = NetConfig(name + "_" + shape.name, net);
  config.max_batch_items = shape.items;
  return config;
}

// One client-0 transaction writing `value` to `shape.items` consecutive
// objects from `first`, then committing.
void WriteAndCommit(System* system, const RequestShape& shape, ObjectId first,
                    const std::string& value) {
  Client& c = system->client(0);
  TxnId txn = c.Begin().value();
  if (shape.items == 1) {
    ASSERT_TRUE(c.Write(txn, first, value).ok());
  } else {
    std::vector<std::pair<ObjectId, std::string>> writes;
    for (uint32_t i = 0; i < shape.items; ++i) {
      writes.emplace_back(
          ObjectId{first.page, static_cast<SlotId>(first.slot + i)}, value);
    }
    ASSERT_TRUE(c.WriteBatch(txn, writes).ok());
  }
  ASSERT_TRUE(c.Commit(txn).ok());
}

// One duplicated lock request: the body runs once (every item is granted
// once), the duplicate is a dedup hit whose cached reply is resent. Exactly
// two extra messages (the request copy and the resent reply) and an
// identical final state.
TEST(NetIdempotencyTest, DuplicateRequestExecutesBodyOnce) {
  for (const RequestShape& shape : kRequestShapes) {
    SCOPED_TRACE(shape.name);
    const ObjectId first{PageId(1), 0};
    auto clean =
        System::Create(ShapeConfig("net_point_dup_clean", shape,
                                   NetFaultConfig{}))
            .value();
    const std::string value(clean->config().object_size, 'x');
    WriteAndCommit(clean.get(), shape, first, value);

    FaultInjector injector;
    NetFaultConfig net;
    net.use_fail_points = true;
    SystemConfig config = ShapeConfig("net_point_dup", shape, net);
    config.fault_injector = &injector;
    auto system = System::Create(config).value();
    injector.ResetCounts();
    injector.ArmPoint("net.client.lock_object.dup", 1, FaultAction::kError,
                      0.5);
    WriteAndCommit(system.get(), shape, first, value);
    ASSERT_TRUE(injector.triggered());

    EXPECT_EQ(system->metrics().Get(Counter::kNetDups), 1u);
    EXPECT_EQ(system->metrics().Get(Counter::kNetDedupHits), 1u);
    EXPECT_EQ(system->metrics().Get(Counter::kServerLockRequests),
              shape.items);
    EXPECT_EQ(clean->metrics().Get(Counter::kServerLockRequests), shape.items);
    EXPECT_EQ(system->channel().total_messages(),
              clean->channel().total_messages() + 2);
    EXPECT_EQ(StateDigest(system.get()), StateDigest(clean.get()));
  }
}

// One dropped lock reply: the caller times out and retries, the server sees
// an already-executed sequence number, and the cached reply completes the
// exchange -- no grant is re-executed and no state diverges.
TEST(NetIdempotencyTest, ReplyDropRecoversViaDedupCache) {
  for (const RequestShape& shape : kRequestShapes) {
    SCOPED_TRACE(shape.name);
    const ObjectId first{PageId(2), 1};
    auto clean =
        System::Create(ShapeConfig("net_point_reply_drop_clean", shape,
                                   NetFaultConfig{}))
            .value();
    const std::string value(clean->config().object_size, 'y');
    WriteAndCommit(clean.get(), shape, first, value);

    FaultInjector injector;
    NetFaultConfig net;
    net.use_fail_points = true;
    SystemConfig config = ShapeConfig("net_point_reply_drop", shape, net);
    config.fault_injector = &injector;
    auto system = System::Create(config).value();
    injector.ResetCounts();
    injector.ArmPoint("net.server.lock_object.drop", 1, FaultAction::kError,
                      0.5);

    uint64_t before_us = system->clock().now_us();
    WriteAndCommit(system.get(), shape, first, value);
    ASSERT_TRUE(injector.triggered());

    EXPECT_EQ(system->metrics().Get(Counter::kNetDrops), 1u);
    EXPECT_EQ(system->metrics().Get(Counter::kNetRpcTimeouts), 1u);
    EXPECT_EQ(system->metrics().Get(Counter::kNetRpcRetries), 1u);
    EXPECT_EQ(system->metrics().Get(Counter::kNetDedupHits), 1u);
    EXPECT_EQ(system->metrics().Get(Counter::kServerLockRequests),
              shape.items);
    // The lost reply cost at least one timeout of simulated time.
    EXPECT_GE(system->clock().now_us() - before_us,
              system->config().net_faults.rpc_timeout_us);

    auto got = ProbeRead(system.get(), first);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), value);
    EXPECT_EQ(StateDigest(system.get()), StateDigest(clean.get()));
  }
}

// A request that never gets through exhausts its retries and surfaces a
// clean kWouldBlock -- the transaction can abort or retry; nothing wedges.
// After healing, the same operation succeeds.
TEST(NetIdempotencyTest, ExhaustedRetriesDegradeToCleanWouldBlock) {
  NetFaultConfig net;
  net.drop_rate = 1.0;
  net.max_attempts = 3;
  net.seed = 23;
  auto system = System::Create(NetConfig("net_exhaust", net)).value();

  Client& c = system->client(0);
  TxnId txn = c.Begin().value();
  std::string value(system->config().object_size, 'z');
  Status st = c.Write(txn, ObjectId{PageId(3), 2}, value);
  EXPECT_TRUE(st.IsWouldBlock()) << st.ToString();
  EXPECT_GE(system->metrics().Get(Counter::kNetRpcExhausted), 1u);

  system->rpc().faults() = NetFaultConfig{};
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(3), 2}, value).ok());
  ASSERT_TRUE(c.Commit(txn).ok());
  auto got = ProbeRead(system.get(), ObjectId{PageId(3), 2});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), value);
}

// Ghost copies addressed to a client that crashed and restarted carry the
// previous session epoch and must be fenced, not mistaken for live traffic.
TEST(NetIdempotencyTest, EpochBumpFencesPreCrashGhosts) {
  NetFaultConfig net;
  net.reorder_rate = 1.0;
  net.seed = 29;
  auto system = System::Create(NetConfig("net_epoch", net)).value();

  // A burst of client-0 traffic leaves fresh ghosts in flight.
  Client& c0 = system->client(0);
  TxnId txn = c0.Begin().value();
  for (SlotId s = 0; s < 4; ++s) {
    ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(4), s},
                         std::string(system->config().object_size, 'g'))
                    .ok());
  }
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_GT(system->rpc().ghost_count(), 0u);

  ASSERT_TRUE(system->CrashClient(0).ok());
  ASSERT_TRUE(system->RecoverClient(0).ok());
  EXPECT_EQ(system->rpc().session_epoch(RpcDir::kClientToServer, ClientId(0)),
            1u);
  EXPECT_EQ(system->rpc().session_epoch(RpcDir::kServerToClient, ClientId(0)),
            1u);

  // More traffic pumps the in-flight ghosts out; the pre-crash ones are
  // epoch-fenced.
  Client& c1 = system->client(1);
  TxnId txn1 = c1.Begin().value();
  for (SlotId s = 0; s < 4; ++s) {
    ASSERT_TRUE(c1.Write(txn1, ObjectId{PageId(5), s},
                         std::string(system->config().object_size, 'h'))
                    .ok());
  }
  ASSERT_TRUE(c1.Commit(txn1).ok());
  EXPECT_GT(system->metrics().Get(Counter::kNetStaleEpochFenced), 0u);
  EXPECT_GT(system->metrics().Get(Counter::kNetEpochBumps), 0u);
}

}  // namespace
}  // namespace finelog
