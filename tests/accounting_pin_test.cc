// Pins the channel's message accounting: one seeded simulation that reaches
// every client/server exchange, checked against per-MessageType
// {count, items, bytes} and the simulated clock captured from a known-good
// build. The fingerprint tests elsewhere compare two runs of the same
// binary; this one catches a change to what the channel counts.
//
// Phases, each on a fresh deployment:
//   protocol    batching, escalation, alloc, bounded-log forces, evictions,
//               release, a client crash, a complex crash (client + server)
//               and restart recovery, a synchronized checkpoint;
//   standby     hot standby with heartbeats: replication, a client crash,
//               a primary kill and the failover;
//   token       the update-token baseline;
//   ship_logs   the ship-logs-at-commit baseline;
//   ship_pages  the ship-pages-at-commit baseline.
//
// Run with FINELOG_PRINT_ACCOUNTING=1 to print the table in source form.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/system.h"
#include "core/workload.h"
#include "net/message.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

struct Row {
  uint64_t count = 0;
  uint64_t items = 0;
  uint64_t bytes = 0;
};

struct Tally {
  std::map<std::string, Row> rows;
  uint64_t sim_us = 0;

  void Add(System* system) {
    for (int t = 0; t < static_cast<int>(MessageType::kMaxMessageType); ++t) {
      const auto type = static_cast<MessageType>(t);
      const Channel::TypeStats& s = system->channel().stats(type);
      if (s.count.load() == 0) continue;
      Row& r = rows[MessageTypeName(type)];
      r.count += s.count.load();
      r.items += s.items.load();
      r.bytes += s.bytes.load();
    }
    sim_us += system->clock().now_us();
  }
};

WorkloadOptions Options(uint64_t seed, uint32_t txns) {
  WorkloadOptions options;
  options.txns_per_client = txns;
  options.ops_per_txn = 6;
  options.write_fraction = 0.6;
  options.pattern = AccessPattern::kHotCold;
  options.seed = seed;
  // Direct client calls below write outside the oracle's view.
  options.validate_reads = false;
  return options;
}

std::string Val(const System& system, char fill) {
  return std::string(system.config().object_size, fill);
}

void Commit(Client& c, TxnId txn) { ASSERT_TRUE(c.Commit(txn).ok()); }

void CrashClient(System* system, Oracle* oracle, Workload* workload,
                 size_t i) {
  ASSERT_TRUE(system->CrashClient(i).ok());
  oracle->CrashClient(static_cast<ClientId>(i));
  workload->OnClientCrashed(i);
}

void Steps(Workload* workload, uint64_t n) {
  auto done = workload->RunSteps(n);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
}

void ProtocolPhase(Tally* tally) {
  SystemConfig config = SmallConfig("pin_protocol");
  config.max_batch_items = 4;
  config.client_cache_pages = 6;
  config.server_cache_pages = 8;
  config.client_log_capacity = 8192;
  config.escalation_threshold = 3;
  auto system = System::Create(config).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, Options(5, 12));
  Steps(&workload, 120);

  // Batched lock misses and fetches, then a batched copy-back.
  Client& c0 = system->client(0);
  Client& c1 = system->client(1);
  Client& c2 = system->client(2);
  std::vector<std::pair<ObjectId, std::string>> writes;
  for (uint32_t p = 8; p < 14; ++p) {
    writes.emplace_back(ObjectId{PageId(p), 1}, Val(*system, 'w'));
  }
  TxnId t0 = c0.Begin().value();
  ASSERT_TRUE(c0.WriteBatch(t0, writes).ok());
  Commit(c0, t0);
  std::vector<ObjectId> reads;
  for (const auto& [oid, v] : writes) reads.push_back(oid);
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(c1.ReadBatch(t1, reads).ok());
  Commit(c1, t1);
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());
  ASSERT_TRUE(c0.ReleaseIdleLocks().ok());

  // Escalation to a page lock, and a fresh page.
  TxnId t2 = c1.Begin().value();
  for (SlotId s = 0; s < 5; ++s) {
    ASSERT_TRUE(c1.Write(t2, ObjectId{PageId(14), s}, Val(*system, 'e')).ok());
  }
  Commit(c1, t2);
  TxnId t3 = c2.Begin().value();
  auto fresh = c2.AllocatePage(t3);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(c2.Create(t3, fresh.value(), Val(*system, 'n')).ok());
  Commit(c2, t3);

  // A bounded log frees space by forcing pages through the server.
  for (int i = 0; i < 40; ++i) {
    TxnId t = c0.Begin().value();
    ObjectId oid{PageId(i % 8), static_cast<SlotId>(i % 4)};
    ASSERT_TRUE(c0.Write(t, oid, Val(*system, 'a' + (i % 26))).ok());
    Commit(c0, t);
  }

  // Client crash and restart (Section 3.3).
  Steps(&workload, 40);
  CrashClient(system.get(), &oracle, &workload, 1);
  ASSERT_TRUE(system->RecoverClient(1).ok());
  workload.OnClientRecovered(1);

  // Complex crash (Section 3.5): a client and then the server.
  Steps(&workload, 60);
  TxnId t4 = c2.Begin().value();
  ASSERT_TRUE(c2.Write(t4, ObjectId{PageId(3), 2}, Val(*system, 'x')).ok());
  Commit(c2, t4);
  CrashClient(system.get(), &oracle, &workload, 2);
  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(system->RecoverAll().ok());
  workload.OnClientRecovered(2);

  ASSERT_TRUE(workload.Run().ok());
  ASSERT_TRUE(system->server().TakeSynchronizedCheckpoint().ok());
  ASSERT_TRUE(system->FlushEverything().ok());
  tally->Add(system.get());
}

void StandbyPhase(Tally* tally) {
  SystemConfig config = SmallConfig("pin_standby");
  config.hot_standby = true;
  config.mastership_lease_us = 30000;
  config.failover_timeout_us = 4000;
  config.heartbeat_interval_us = 2000;
  config.lease_duration_us = 800000;
  auto system = System::Create(config).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, Options(11, 10));
  Steps(&workload, 40);
  ASSERT_TRUE(system->server().TakeCheckpoint().ok());
  CrashClient(system.get(), &oracle, &workload, 0);
  ASSERT_TRUE(system->RecoverClient(0).ok());
  workload.OnClientRecovered(0);
  Steps(&workload, 10);
  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(workload.Run().ok());
  EXPECT_EQ(system->active_server_node(), 1);
  tally->Add(system.get());
}

void BaselinePhase(Tally* tally, const std::string& name,
                   void (*configure)(SystemConfig*)) {
  SystemConfig config = SmallConfig(name);
  configure(&config);
  auto system = System::Create(config).value();
  Oracle oracle;
  Workload workload(system.get(), &oracle, Options(3, 8));
  ASSERT_TRUE(workload.Run().ok());
  tally->Add(system.get());
}

// Captured from a known-good build; see the file comment. RecComplete was
// counted as RecGetDct before it had its own message type.
const std::map<std::string, Row>& Expected() {
  static const std::map<std::string, Row> rows = {
      {"AllocReply", {1, 1, 2080}},
      {"AllocRequest", {1, 1, 32}},
      {"CallbackReply", {651, 651, 362700}},
      {"CallbackRequest", {651, 654, 20928}},
      {"CheckpointSync", {3, 3, 96}},
      {"CheckpointSyncReply", {3, 3, 96}},
      {"CommitAck", {45, 45, 1440}},
      {"CommitShipLogs", {24, 24, 18894}},
      {"CommitShipPages", {21, 21, 74406}},
      {"FailoverProbe", {6, 6, 192}},
      {"FailoverProbeReply", {6, 6, 192}},
      {"FlushNotify", {91, 91, 2912}},
      {"ForcePageReply", {9, 9, 288}},
      {"ForcePageRequest", {9, 9, 288}},
      {"Heartbeat", {321, 321, 10272}},
      {"HeartbeatAck", {321, 321, 10272}},
      {"LockReply", {913, 921, 437344}},
      {"LockRequest", {913, 921, 29584}},
      {"PageFetch", {39, 39, 1248}},
      {"PageReply", {39, 39, 81120}},
      {"PageShip", {84, 97, 200424}},
      {"PageShipAck", {84, 97, 2688}},
      {"RecCachedPageReply", {21, 21, 43404}},
      {"RecCallbacksReply", {101, 101, 5552}},
      {"RecDctReply", {3, 3, 432}},
      {"RecDptReply", {5, 5, 880}},
      {"RecFetchCachedPage", {21, 21, 672}},
      {"RecComplete", {3, 3, 96}},
      {"RecGetDct", {3, 3, 96}},
      {"RecGetDpt", {5, 5, 160}},
      {"RecOrderedFetch", {6, 6, 192}},
      {"RecOrderedFetchReply", {6, 6, 12480}},
      {"RecPageFetch", {16, 16, 512}},
      {"RecPageReply", {16, 16, 33280}},
      {"RecRecoverPage", {22, 22, 45760}},
      {"RecRecoverPageReply", {22, 22, 704}},
      {"RecScanCallbacks", {101, 101, 3232}},
      {"RecXLocksFetch", {4, 4, 192}},
      {"RecXLocksReply", {4, 4, 264}},
      {"StandbyCheckpoint", {1, 1, 32}},
      {"StandbyMembership", {1, 1, 32}},
      {"TokenRecall", {51, 51, 1632}},
      {"TokenRecallReply", {51, 51, 76672}},
      {"TokenReply", {64, 64, 133120}},
      {"TokenRequest", {64, 64, 2048}},
  };
  return rows;
}
// The standby phase's primary kill reaches a recovery-plane ordered fetch
// routed to the dead node; it now fails over at that call instead of at a
// later one (12000 us, three failover timeouts, earlier in total).
constexpr uint64_t kExpectedSimUs = 10068392;

TEST(AccountingPinTest, EveryExchangeMatchesPinnedCounts) {
  Tally tally;
  ProtocolPhase(&tally);
  StandbyPhase(&tally);
  BaselinePhase(&tally, "pin_token", [](SystemConfig* c) {
    c->same_page_policy = SamePageUpdatePolicy::kUpdateToken;
  });
  BaselinePhase(&tally, "pin_ship_logs", [](SystemConfig* c) {
    c->logging_policy = LoggingPolicy::kShipLogsAtCommit;
  });
  BaselinePhase(&tally, "pin_ship_pages", [](SystemConfig* c) {
    c->logging_policy = LoggingPolicy::kShipPagesAtCommit;
  });

  if (std::getenv("FINELOG_PRINT_ACCOUNTING") != nullptr) {
    for (const auto& [name, r] : tally.rows) {
      std::printf("      {\"%s\", {%llu, %llu, %llu}},\n", name.c_str(),
                  (unsigned long long)r.count, (unsigned long long)r.items,
                  (unsigned long long)r.bytes);
    }
    std::printf("sim_us = %llu\n", (unsigned long long)tally.sim_us);
  }

  for (const auto& [name, want] : Expected()) {
    auto it = tally.rows.find(name);
    ASSERT_NE(it, tally.rows.end()) << name << " was never sent";
    const Row& got = it->second;
    EXPECT_EQ(got.count, want.count) << name;
    EXPECT_EQ(got.items, want.items) << name;
    EXPECT_EQ(got.bytes, want.bytes) << name;
  }
  for (const auto& [name, got] : tally.rows) {
    EXPECT_EQ(Expected().count(name), 1u) << "unpinned message type " << name;
  }
  EXPECT_EQ(tally.sim_us, kExpectedSimUs);
}

}  // namespace
}  // namespace finelog
