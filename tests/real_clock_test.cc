// Real-clock execution mode (DESIGN.md section 17): the same protocol
// stack, driven by std::threads against a monotonic clock, with the
// TokenTransport (one server execution token) behind the Rpc chokepoint and
// fdatasync behind every log force.
//
// Three obligations:
//  - The token's own contract: a bounded wait, inline nesting for the
//    holder, refusal after shutdown -- and no stall when the harness crashes
//    a client while another client's thread is calling the server.
//  - The parameterized smoke suite runs each scenario in BOTH modes --
//    kSimulated from the main thread (the deterministic oracle) and
//    kRealClock with one thread per client -- and asserts the protocol
//    outcomes match. Under FINELOG_SANITIZE=thread this is the data-race
//    gate for the whole locking sweep.
//  - The fingerprint test proves the simulated schedule did not move: a
//    default-config seeded run and an explicit ExecMode::kSimulated run
//    must agree on every message count, the simulated clock, and the exact
//    bytes of the client log.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/oracle.h"
#include "core/system.h"
#include "core/workload.h"
#include "log/log_sink.h"
#include "tests/scenario.h"

namespace finelog {
namespace {

class ExecModeTest : public ::testing::TestWithParam<ExecMode> {
 protected:
  bool real() const { return GetParam() == ExecMode::kRealClock; }

  SystemConfig Config(const std::string& name) {
    SystemConfig config = SmallConfig(
        name + (real() ? "_real" : "_sim"));
    config.exec_mode = GetParam();
    return config;
  }

  // Runs `fn(i)` once per client: concurrently (one thread per client) in
  // real-clock mode, sequentially in the simulation (whose SimClock is not
  // a concurrent structure -- that is the whole point of the split).
  void PerClient(size_t n, const std::function<void(size_t)>& fn) {
    if (!real()) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i) threads.emplace_back(fn, i);
    for (auto& t : threads) t.join();
  }

  // Hot-standby primary kill between two commit phases (defined below).
  void FailoverSmoke(bool instant_restart);

  // Moves time forward `us` microseconds: by advancing the SimClock, or by
  // actually waiting for the wall clock.
  void PassTime(System* system, uint64_t us) {
    if (real()) {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    } else {
      system->clock().Advance(us);
    }
  }
};

TEST_P(ExecModeTest, ConcurrentCommitsAreAllApplied) {
  SystemConfig config = Config("rc_commit");
  auto system = System::Create(config).value();

  constexpr int kTxns = 6;
  std::atomic<int> failures{0};
  PerClient(system->num_clients(), [&](size_t i) {
    Client& c = system->client(i);
    // Each client owns a disjoint page, so every transaction commits.
    PageId pid = static_cast<PageId>(i);
    for (int t = 0; t < kTxns; ++t) {
      auto txn = c.Begin();
      if (!txn.ok()) { failures.fetch_add(1); return; }
      std::string val(64, static_cast<char>('a' + (t % 26)));
      if (!c.Write(txn.value(), ObjectId{pid, 0}, val).ok() ||
          !c.Commit(txn.value()).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  for (size_t i = 0; i < system->num_clients(); ++i) {
    EXPECT_EQ(system->client(i).commits(), static_cast<uint64_t>(kTxns));
  }
  // Committed data is readable afterwards (through fresh transactions).
  for (size_t i = 0; i < system->num_clients(); ++i) {
    Client& c = system->client(i);
    TxnId probe = c.Begin().value();
    auto got = c.Read(probe, ObjectId{static_cast<PageId>(i), 0});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), std::string(64, 'a' + ((kTxns - 1) % 26)));
    EXPECT_TRUE(c.Commit(probe).ok());
  }
  if (real()) {
    ASSERT_NE(system->transport(), nullptr);
    EXPECT_GT(system->transport()->frames_executed(), 0u);
    EXPECT_EQ(system->transport()->frames_abandoned(), 0u);
    // Real durability: commits force through fdatasync.
    ASSERT_NE(system->log_sink(), nullptr);
    EXPECT_GT(system->log_sink()->sync_count(), 0u);
  }
}

TEST_P(ExecModeTest, GroupCommitDefersForcesInBothModes) {
  SystemConfig config = Config("rc_group");
  config.num_clients = 1;
  config.group_commit_window = 1000ull * 1000 * 1000;  // Count trigger only.
  config.group_commit_max_txns = 4;
  auto system = System::Create(config).value();
  Client& c = system->client(0);

  uint64_t forces0 = c.log().force_count();
  for (int i = 0; i < 4; ++i) {
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(
        c.Write(txn, ObjectId{static_cast<PageId>(i), 0}, std::string(64, 'g'))
            .ok());
    ASSERT_TRUE(c.Commit(txn).ok());
  }
  // The 4th commit hit group_commit_max_txns: exactly one force for all.
  EXPECT_EQ(c.pending_group_commits(), 0u);
  EXPECT_EQ(c.log().force_count(), forces0 + 1);
  EXPECT_EQ(system->metrics().Get(Counter::kClientGroupCommitTxns), 4u);
}

TEST_P(ExecModeTest, BatchedWritesAndReadsRoundTrip) {
  SystemConfig config = Config("rc_batch");
  config.max_batch_items = 8;
  auto system = System::Create(config).value();

  std::atomic<int> failures{0};
  PerClient(system->num_clients(), [&](size_t i) {
    Client& c = system->client(i);
    PageId pid = static_cast<PageId>(i);
    auto txn = c.Begin();
    if (!txn.ok()) { failures.fetch_add(1); return; }
    std::vector<std::pair<ObjectId, std::string>> writes;
    std::vector<ObjectId> oids;
    for (SlotId s = 0; s < 4; ++s) {
      writes.emplace_back(ObjectId{pid, s},
                          std::string(64, static_cast<char>('A' + s)));
      oids.push_back(ObjectId{pid, s});
    }
    if (!c.WriteBatch(txn.value(), writes).ok()) {
      failures.fetch_add(1);
      return;
    }
    auto read = c.ReadBatch(txn.value(), oids);
    if (!read.ok() || read.value().size() != 4) {
      failures.fetch_add(1);
      return;
    }
    for (SlotId s = 0; s < 4; ++s) {
      if (read.value()[s] != std::string(64, static_cast<char>('A' + s))) {
        failures.fetch_add(1);
      }
    }
    if (!c.Commit(txn.value()).ok()) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(ExecModeTest, LeaseExpiryDeclaresIdleClientDeadAndZombieRecovers) {
  SystemConfig config = Config("rc_liveness");
  config.num_clients = 2;
  config.heartbeat_interval_us = 10 * 1000;
  config.lease_duration_us = 50 * 1000;
  auto system = System::Create(config).value();

  // Client 0 talks once: its first call heartbeats and starts a lease.
  Client& c0 = system->client(0);
  TxnId t0 = c0.Begin().value();
  Status w0 =
      c0.Write(t0, ObjectId{static_cast<PageId>(0), 0}, std::string(64, 'z'));
  ASSERT_TRUE(w0.ok()) << w0.ToString();
  Status cm0 = c0.Commit(t0);
  ASSERT_TRUE(cm0.ok()) << cm0.ToString();
  EXPECT_TRUE(system->server().liveness().HasLease(static_cast<ClientId>(0)));

  // Client 0 then goes silent past its lease horizon; client 1's next
  // admitted request sweeps the lease table and declares it presumed dead.
  PassTime(system.get(), 3 * config.lease_duration_us);
  Client& c1 = system->client(1);
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(
      c1.Write(t1, ObjectId{static_cast<PageId>(1), 0}, std::string(64, 'y'))
          .ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
  EXPECT_TRUE(system->server().IsPresumedDead(static_cast<ClientId>(0)));

  // The zombie is fenced; crash recovery is its only way back in.
  Status fenced = c0.Begin().status();
  EXPECT_TRUE(fenced.IsZombieFenced() || fenced.IsWouldBlock())
      << fenced.ToString();
  ASSERT_TRUE(system->RecoverZombie(0).ok());
  EXPECT_FALSE(system->server().IsPresumedDead(static_cast<ClientId>(0)));
  TxnId t2 = c0.Begin().value();
  ASSERT_TRUE(c0.Commit(t2).ok());
}

TEST_P(ExecModeTest, ContendedPagesSerializeThroughCallbacks) {
  SystemConfig config = Config("rc_contend");
  config.num_clients = 3;
  auto system = System::Create(config).value();

  // All clients increment disjoint slots of the SAME two pages, so every
  // transaction needs callbacks against the other clients' cached copies.
  constexpr int kTxns = 5;
  std::atomic<int> committed{0};
  PerClient(system->num_clients(), [&](size_t i) {
    Client& c = system->client(i);
    for (int t = 0; t < kTxns; ++t) {
      auto txn = c.Begin();
      if (!txn.ok()) continue;
      PageId pid = static_cast<PageId>(t % 2);
      std::string val(64, static_cast<char>('0' + i));
      bool ok =
          c.Write(txn.value(), ObjectId{pid, static_cast<SlotId>(i)}, val).ok();
      if (ok && c.Commit(txn.value()).ok()) {
        committed.fetch_add(1);
      } else {
        (void)c.Abort(txn.value());
      }
    }
  });
  // No lost updates: every commit's value must be in place.
  EXPECT_GT(committed.load(), 0);
  int verified = 0;
  for (size_t i = 0; i < system->num_clients(); ++i) {
    Client& c = system->client(i);
    TxnId probe = c.Begin().value();
    for (uint32_t p = 0; p < 2; ++p) {
      PageId pid = static_cast<PageId>(p);
      auto got = c.Read(probe, ObjectId{pid, static_cast<SlotId>(i)});
      if (got.ok() && got.value() == std::string(64, '0' + i)) ++verified;
    }
    EXPECT_TRUE(c.Commit(probe).ok());
  }
  // Each client wrote its slot on both pages at least once (kTxns >= 2).
  EXPECT_EQ(verified, static_cast<int>(system->num_clients()) * 2);
}

// The primary dies between two commit phases; the second phase's first
// requests probe the standby, which takes over. With instant_restart off the
// takeover drains the whole repair backlog inside the winning probe, while
// the other client threads queue for the standby.
void ExecModeTest::FailoverSmoke(bool instant_restart) {
  SystemConfig config =
      Config(instant_restart ? "rc_failover_lazy" : "rc_failover");
  config.instant_restart = instant_restart;
  config.hot_standby = true;
  config.mastership_lease_us = 30 * 1000;
  config.failover_timeout_us = 4000;
  auto system = System::Create(config).value();

  // Phase 1: every client commits on its own page against node 0.
  constexpr int kTxnsPerPhase = 3;
  std::atomic<int> failures{0};
  auto commit_phase = [&](char fill, size_t page_offset) {
    PerClient(system->num_clients(), [&](size_t i) {
      Client& c = system->client(i);
      // Each phase touches a page the client has no cached lock on, so the
      // first write must reach the server (a cached lock plus client-local
      // commit would otherwise never notice the primary died).
      PageId pid = static_cast<PageId>(i + page_offset);
      for (int t = 0; t < kTxnsPerPhase; ++t) {
        auto txn = c.Begin();
        if (!txn.ok()) { failures.fetch_add(1); return; }
        // Ride out the mastership gap: a WouldBlock op made no progress and
        // is safe to retry (the router probes the standby underneath).
        Status w;
        for (int attempt = 0; attempt < 5000; ++attempt) {
          w = c.Write(txn.value(), ObjectId{pid, 0},
                      std::string(64, static_cast<char>(fill + t)));
          if (!w.IsWouldBlock()) break;
          PassTime(system.get(), 1000);
        }
        if (!w.ok()) { failures.fetch_add(1); return; }
        Status cm;
        for (int attempt = 0; attempt < 5000; ++attempt) {
          cm = c.Commit(txn.value());
          if (!cm.IsWouldBlock()) break;
          PassTime(system.get(), 1000);
        }
        if (!cm.ok()) { failures.fetch_add(1); return; }
      }
    });
  };
  commit_phase('a', 0);
  ASSERT_EQ(failures.load(), 0);
  ASSERT_EQ(system->active_server_node(), 0);

  // Kill the primary (client threads are quiesced between phases), then
  // commit again: the first retries probe the standby, which takes over.
  ASSERT_TRUE(system->CrashServer().ok());
  commit_phase('n', system->num_clients());
  EXPECT_EQ(failures.load(), 0);

  EXPECT_EQ(system->active_server_node(), 1);
  EXPECT_EQ(system->metrics().Get(Counter::kFailoverTakeovers), 1u);
  for (size_t i = 0; i < system->num_clients(); ++i) {
    EXPECT_EQ(system->client(i).commits(),
              static_cast<uint64_t>(2 * kTxnsPerPhase));
  }
  // Both the pre-kill and post-failover data are readable through fresh
  // transactions.
  for (size_t i = 0; i < system->num_clients(); ++i) {
    Client& c = system->client(i);
    TxnId probe = c.Begin().value();
    auto pre = c.Read(probe, ObjectId{static_cast<PageId>(i), 0});
    ASSERT_TRUE(pre.ok()) << pre.status().ToString();
    EXPECT_EQ(pre.value(),
              std::string(64, static_cast<char>('a' + kTxnsPerPhase - 1)));
    auto post = c.Read(
        probe, ObjectId{static_cast<PageId>(i + system->num_clients()), 0});
    ASSERT_TRUE(post.ok()) << post.status().ToString();
    EXPECT_EQ(post.value(),
              std::string(64, static_cast<char>('n' + kTxnsPerPhase - 1)));
    EXPECT_TRUE(c.Commit(probe).ok());
  }
}

TEST_P(ExecModeTest, HotStandbyFailoverServesThroughPrimaryKill) {
  FailoverSmoke(/*instant_restart=*/false);
}

TEST_P(ExecModeTest, HotStandbyLazyFailoverServesThroughPrimaryKill) {
  FailoverSmoke(/*instant_restart=*/true);
}

// After an instant restart every client reads its neighbour's objects from
// its own thread at once, so every read needs a lock callback and a page
// fetch. Each such request repairs an unrecovered page inside the reading
// client's frame (the page it touches, or the one the background sweep
// picks next). The repair asks clients, possibly the reader itself, to
// replay their logs, and each replay ships the page back into the node the
// frame is running in. The server cache holds fewer pages than the backlog,
// so merges also evict (and write back) inside those frames.
TEST_P(ExecModeTest, InstantRestartClientThreadsRepairOnFirstRead) {
  SystemConfig config = Config("rc_instant_read");
  config.instant_restart = true;
  config.server_cache_pages = 2;
  auto system = System::Create(config).value();
  const size_t n = system->num_clients();
  const PageId shared = static_cast<PageId>(n);

  auto value = [](size_t i, char tag) {
    return std::string(64, static_cast<char>(tag + i));
  };
  std::atomic<int> failures{0};
  // Each client writes its own page and its own slot of a shared page.
  PerClient(n, [&](size_t i) {
    Client& c = system->client(i);
    auto txn = c.Begin();
    if (!txn.ok() ||
        !c.Write(txn.value(), ObjectId{static_cast<PageId>(i), 0},
                 value(i, 'a'))
             .ok() ||
        !c.Write(txn.value(), ObjectId{shared, static_cast<SlotId>(i)},
                 value(i, 'A'))
             .ok() ||
        !c.Commit(txn.value()).ok()) {
      failures.fetch_add(1);
    }
  });
  ASSERT_EQ(failures.load(), 0);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(system->client(i).ShipAllDirtyPages().ok());
  }
  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(system->RecoverServer().ok());
  ASSERT_GT(system->RecoveryPagesPending(), 0u);
  const uint64_t repaired0 =
      system->metrics().Get(Counter::kRecoveryPagesRepaired);

  PerClient(n, [&](size_t i) {
    Client& c = system->client(i);
    const size_t next = (i + 1) % n;
    auto txn = c.Begin();
    if (!txn.ok()) { failures.fetch_add(1); return; }
    auto page = c.Read(txn.value(), ObjectId{static_cast<PageId>(next), 0});
    auto slot =
        c.Read(txn.value(), ObjectId{shared, static_cast<SlotId>(next)});
    if (!page.ok() || page.value() != value(next, 'a') || !slot.ok() ||
        slot.value() != value(next, 'A') || !c.Commit(txn.value()).ok()) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  // Demand repair or the sweep it triggers: either runs in a client frame.
  EXPECT_GT(system->metrics().Get(Counter::kRecoveryPagesRepaired),
            repaired0);
  ASSERT_TRUE(system->DrainRecovery().ok());
  EXPECT_EQ(system->RecoveryPagesPending(), 0u);
  EXPECT_GT(system->server().disk_writes(), 0u);
  if (real()) {
    EXPECT_EQ(system->transport()->frames_abandoned(), 0u);
  }
}

// Each client thread commits a few transactions and leaves one open with
// its updates forced and shipped. Every client then crashes and restarts
// (between the thread phases: the harness crash takes the server token, so
// it waits for any call in flight). Restart keeps the committed values, rolls the open
// transactions back, and leaves each client with no transaction in its
// table.
TEST_P(ExecModeTest, ClientCrashRestartRollsBackOpenTxns) {
  SystemConfig config = Config("rc_client_crash");
  auto system = System::Create(config).value();
  const size_t n = system->num_clients();
  const uint64_t losers0 =
      system->metrics().Get(Counter::kClientLoserRollbacks);

  constexpr int kTxns = 4;
  auto mine = [](size_t i) { return ObjectId{static_cast<PageId>(i), 0}; };
  auto fresh = [](size_t i) { return ObjectId{static_cast<PageId>(i), 1}; };
  auto value = [](size_t i, int t) {
    return std::string(64, static_cast<char>('a' + i * kTxns + t));
  };
  std::vector<std::string> fresh_before(n);
  std::atomic<int> failures{0};
  PerClient(n, [&](size_t i) {
    Client& c = system->client(i);
    auto fail = [&] { failures.fetch_add(1); };
    for (int t = 0; t < kTxns; ++t) {
      auto txn = c.Begin();
      if (!txn.ok()) return fail();
      if (t == 0) {
        auto got = c.Read(txn.value(), fresh(i));
        if (!got.ok()) return fail();
        fresh_before[i] = got.value();
      }
      if (!c.Write(txn.value(), mine(i), value(i, t)).ok() ||
          !c.Commit(txn.value()).ok()) {
        return fail();
      }
    }
    auto open = c.Begin();
    if (!open.ok() ||
        !c.Write(open.value(), mine(i), std::string(64, 'X')).ok() ||
        !c.Write(open.value(), fresh(i), std::string(64, 'Y')).ok() ||
        !c.TakeCheckpoint().ok() || !c.ShipAllDirtyPages().ok()) {
      fail();
    }
  });
  ASSERT_EQ(failures.load(), 0);

  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(system->client(i).active_txns(), 1u);
    ASSERT_TRUE(system->CrashClient(i).ok());
    ASSERT_TRUE(system->RecoverClient(i).ok());
    EXPECT_EQ(system->client(i).active_txns(), 0u);
  }
  EXPECT_EQ(system->metrics().Get(Counter::kClientLoserRollbacks),
            losers0 + n);

  PerClient(n, [&](size_t i) {
    Client& c = system->client(i);
    auto check = c.Begin();
    if (!check.ok()) { failures.fetch_add(1); return; }
    auto got_mine = c.Read(check.value(), mine(i));
    auto got_fresh = c.Read(check.value(), fresh(i));
    if (!got_mine.ok() || got_mine.value() != value(i, kTxns - 1) ||
        !got_fresh.ok() || got_fresh.value() != fresh_before[i] ||
        !c.Commit(check.value()).ok()) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  if (real()) {
    EXPECT_EQ(system->transport()->frames_abandoned(), 0u);
  }
}

// ---------------------------------------------------------------------------
// The server execution token.
// ---------------------------------------------------------------------------

// Spins until `flag` is set (the tests below hand the token between two
// threads; atomics keep the hand-off visible to TSan).
void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

TEST(TokenTransportTest, WaitForHeldTokenExpiresWithoutRunningBody) {
  TokenTransport transport(/*timeout_us=*/50 * 1000);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    Status st = transport.RunOnReactor([&] {
      holding.store(true);
      AwaitFlag(release);
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  AwaitFlag(holding);

  bool ran = false;
  Status st = transport.Submit(kInvalidClientId, [&] { ran = true; });
  EXPECT_TRUE(st.IsWouldBlock()) << st.ToString();
  EXPECT_EQ(st.would_block_reason(), WouldBlockReason::kRpcTimeout);
  EXPECT_FALSE(ran);
  EXPECT_EQ(transport.frames_abandoned(), 1u);

  release.store(true);
  holder.join();
  EXPECT_EQ(transport.frames_executed(), 1u);
}

TEST(TokenTransportTest, HolderRunsNestedSubmitInline) {
  TokenTransport transport(/*timeout_us=*/50 * 1000);
  EXPECT_FALSE(transport.OnServerThread());
  bool outer_holds = false;
  bool nested_holds = false;
  std::thread::id nested_thread;
  Status nested = Status::OK();
  Status st = transport.RunOnReactor([&] {
    outer_holds = transport.OnServerThread();
    nested = transport.Submit(kInvalidClientId, [&] {
      nested_holds = transport.OnServerThread();
      nested_thread = std::this_thread::get_id();
    });
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(nested.ok()) << nested.ToString();
  EXPECT_TRUE(outer_holds);
  EXPECT_TRUE(nested_holds);
  EXPECT_EQ(nested_thread, std::this_thread::get_id());
  EXPECT_FALSE(transport.OnServerThread());
  EXPECT_EQ(transport.frames_executed(), 2u);
  EXPECT_EQ(transport.frames_abandoned(), 0u);
}

TEST(TokenTransportTest, SubmitAfterShutdownIsRefused) {
  TokenTransport transport(/*timeout_us=*/0);
  transport.Shutdown();
  bool ran = false;
  Status st = transport.Submit(kInvalidClientId, [&] { ran = true; });
  EXPECT_TRUE(st.IsWouldBlock()) << st.ToString();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(transport.RunOnReactor([] { return Status::OK(); })
                  .IsWouldBlock());
  EXPECT_EQ(transport.frames_executed(), 0u);
}

// The harness crashes and recovers client 0 thirty times while client 1's
// thread commits and ships pages. A crash takes the server token, and the
// thread that holds the node capability always holds the token, so the
// crash only ever waits for the one call in flight -- never for a call's
// time limit.
TEST(RealClockCrashTest, ClientCrashesDuringTrafficDoNotStall) {
  SystemConfig config = SmallConfig("rc_crash_traffic");
  config.exec_mode = ExecMode::kRealClock;
  config.num_clients = 2;
  config.realclock_rpc_timeout_us = 2 * 1000 * 1000;
  auto system = System::Create(config).value();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::seconds(5);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<int> failures{0};
  std::thread traffic([&] {
    Client& c = system->client(1);
    for (int t = 0; !stop.load(); ++t) {
      auto txn = c.Begin();
      if (!txn.ok() ||
          !c.Write(txn.value(), ObjectId{PageId(1), 0},
                   std::string(64, static_cast<char>('a' + t % 26)))
               .ok() ||
          !c.Commit(txn.value()).ok()) {
        failures.fetch_add(1);
        return;
      }
      commits.fetch_add(1);
      if (!c.ShipAllDirtyPages().ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });

  int cycles = 0;
  for (; cycles < 30; ++cycles) {
    const uint64_t target = commits.load() + 3;
    while (commits.load() < target && failures.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (commits.load() < target) break;
    Status st = system->CrashClient(0);
    if (st.ok()) st = system->RecoverClient(0);
    if (!st.ok()) {
      ADD_FAILURE() << "cycle " << cycles << ": " << st.ToString();
      break;
    }
  }
  stop.store(true);
  traffic.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(cycles, 30);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(system->transport()->frames_abandoned(), 0u);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

INSTANTIATE_TEST_SUITE_P(BothModes, ExecModeTest,
                         ::testing::Values(ExecMode::kSimulated,
                                           ExecMode::kRealClock),
                         [](const ::testing::TestParamInfo<ExecMode>& info) {
                           return info.param == ExecMode::kRealClock
                                      ? "RealClock"
                                      : "Simulated";
                         });

// ---------------------------------------------------------------------------
// Simulation parity: the real-clock feature must not move the oracle.
// ---------------------------------------------------------------------------

// The regression that keeps the tentpole honest: with exec_mode at its
// default, a seeded workload must behave *identically* to an explicit
// kSimulated run -- same message counts, same simulated time, same client
// log, byte for byte. The recursive SimMutex, the virtual clock and the
// null transport/sink must all be invisible to the schedule.
TEST(RealClockFingerprintTest, SimulatedScheduleIsByteIdentical) {
  Fingerprint base = ExpectFingerprint(SmallConfig("rc_parity_default"));

  SystemConfig explicit_sim = SmallConfig("rc_parity_explicit");
  explicit_sim.exec_mode = ExecMode::kSimulated;
  Fingerprint sim = ExpectFingerprint(explicit_sim);
  EXPECT_EQ(base, sim);

  // And the simulation never touches a durable sink: the volatility
  // boundary (fflush only) is part of the oracle's crash semantics.
  auto probe = System::Create(SmallConfig("rc_parity_sink")).value();
  EXPECT_EQ(probe->log_sink(), nullptr);
  EXPECT_EQ(probe->transport(), nullptr);
}

}  // namespace
}  // namespace finelog
