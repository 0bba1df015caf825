// Metrics: a named-counter registry. Every module increments counters here;
// the benchmark harness snapshots and diffs them to produce the experiment
// tables.
//
// Hot-path counters are interned: each well-known counter is a Counter enum
// value backed by a dense array, so an increment is an array add with no
// string construction, hashing or map lookup. The string-keyed overloads
// remain for dynamically named counters (fault-point mirrors) and for
// external readers (tests, benches) that address counters by name; they
// resolve interned names to the dense array so both views stay consistent.

#ifndef FINELOG_UTIL_METRICS_H_
#define FINELOG_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace finelog {

// Every well-known counter, paired with its stable snapshot name. New hot
// counters go here; Metrics::Add(std::string) is reserved for dynamic names
// (enforced by finelog_check's metrics-string-key rule).
#define FINELOG_COUNTERS(X)                                                  \
  X(kClientAborts, "client.aborts")                                          \
  X(kClientBatchFetchItems, "client.batch_fetch_items")                      \
  X(kClientBatchFetchRequests, "client.batch_fetch_requests")                \
  X(kClientBatchLockItems, "client.batch_lock_items")                        \
  X(kClientBatchLockRequests, "client.batch_lock_requests")                  \
  X(kClientBatchShipItems, "client.batch_ship_items")                        \
  X(kClientBatchShipRequests, "client.batch_ship_requests")                  \
  X(kClientCallbackRecords, "client.callback_records")                       \
  X(kClientCallbacksHandled, "client.callbacks_handled")                     \
  X(kClientCheckpoints, "client.checkpoints")                                \
  X(kClientCommits, "client.commits")                                        \
  X(kClientCrashes, "client.crashes")                                        \
  X(kClientCreates, "client.creates")                                        \
  X(kClientDeescalationsHandled, "client.deescalations_handled")             \
  X(kClientDeletes, "client.deletes")                                        \
  X(kClientEscalations, "client.escalations")                                \
  X(kClientFlushNotifies, "client.flush_notifies")                           \
  X(kClientGroupCommitMaxBatch, "client.group_commit_max_batch")             \
  X(kClientGroupCommitTxns, "client.group_commit_txns")                      \
  X(kClientGroupCommits, "client.group_commits")                             \
  X(kClientIdleReleases, "client.idle_releases")                             \
  X(kClientLockHits, "client.lock_hits")                                     \
  X(kClientLockMisses, "client.lock_misses")                                 \
  X(kClientLogFullEvents, "client.log_full_events")                          \
  X(kClientLogPendingHighWater, "client.log_pending_high_water")             \
  X(kClientLogSpaceForces, "client.log_space_forces")                        \
  X(kClientLoserRollbacks, "client.loser_rollbacks")                         \
  X(kClientOrderedFetches, "client.ordered_fetches")                         \
  X(kClientPageCallbacksHandled, "client.page_callbacks_handled")            \
  X(kClientPageFetches, "client.page_fetches")                               \
  X(kClientPagesShipped, "client.pages_shipped")                             \
  X(kClientPartialRollbacks, "client.partial_rollbacks")                     \
  X(kClientReads, "client.reads")                                            \
  X(kClientRecoveryPageFetches, "client.recovery_page_fetches")              \
  X(kClientRecoveryRedos, "client.recovery_redos")                           \
  X(kClientRecoverySessions, "client.recovery_sessions")                     \
  X(kClientRedos, "client.redos")                                            \
  X(kClientResizes, "client.resizes")                                        \
  X(kClientResizesInPlace, "client.resizes_in_place")                        \
  X(kClientRestartDeferrals, "client.restart_deferrals")                     \
  X(kClientRestarts, "client.restarts")                                      \
  X(kClientSavepoints, "client.savepoints")                                  \
  X(kClientTxnBegins, "client.txn_begins")                                   \
  X(kClientUndos, "client.undos")                                            \
  X(kClientWalForcesOnReplace, "client.wal_forces_on_replace")               \
  X(kClientWrites, "client.writes")                                          \
  X(kFailoverBlocked, "failover.blocked")                                    \
  X(kFailoverDeposedFenced, "failover.deposed_fenced")                       \
  X(kFailoverProbes, "failover.probes")                                      \
  X(kFailoverReplEpochRejected, "failover.repl_epoch_rejected")              \
  X(kFailoverReplRecordsShipped, "failover.repl_records_shipped")            \
  X(kFailoverSwitchovers, "failover.switchovers")                            \
  X(kFailoverTakeovers, "failover.takeovers")                                \
  X(kFaultInjected, "fault.injected")                                        \
  X(kLivenessHeartbeatsReceived, "liveness.heartbeats_received")             \
  X(kLivenessHeartbeatsSent, "liveness.heartbeats_sent")                     \
  X(kLivenessLeaseExpiries, "liveness.lease_expiries")                       \
  X(kLivenessPresumedDead, "liveness.presumed_dead")                         \
  X(kLivenessQuarantineDenials, "liveness.quarantine_denials")               \
  X(kLivenessRecoveredZombies, "liveness.recovered_zombies")                 \
  X(kLivenessZombieFenced, "liveness.zombie_fenced")                         \
  X(kNetDedupHits, "net.dedup_hits")                                         \
  X(kNetDelays, "net.delays")                                                \
  X(kNetDrops, "net.drops")                                                  \
  X(kNetDups, "net.dups")                                                    \
  X(kNetEpochBumps, "net.epoch_bumps")                                       \
  X(kNetPartitionDrops, "net.partition_drops")                               \
  X(kNetReorders, "net.reorders")                                            \
  X(kNetReplyRecovered, "net.reply_recovered")                               \
  X(kNetRpcBackoffUs, "net.rpc_backoff_us")                                  \
  X(kNetRpcExhausted, "net.rpc_exhausted")                                   \
  X(kNetRpcRetries, "net.rpc_retries")                                       \
  X(kNetRpcTimeouts, "net.rpc_timeouts")                                     \
  X(kNetStaleEpochFenced, "net.stale_epoch_fenced")                          \
  X(kRecoveryDegradedResponses, "recovery.degraded_responses")               \
  X(kRecoveryDemandRepairs, "recovery.demand_repairs")                       \
  X(kRecoveryFailedChecks, "recovery.failed_checks")                         \
  X(kRecoveryPagesMarked, "recovery.pages_marked")                           \
  X(kRecoveryPagesPendingHighWater, "recovery.pages_pending_high_water")     \
  X(kRecoveryPagesRepaired, "recovery.pages_repaired")                       \
  X(kRecoverySinglePageRepairs, "recovery.single_page_repairs")              \
  X(kRecoverySweepRepairs, "recovery.sweep_repairs")                         \
  X(kRecoveryTimeToFirstAdmitUs, "recovery.time_to_first_admit_us")          \
  X(kRecoveryTimeToFullyRecoveredUs, "recovery.time_to_fully_recovered_us")  \
  X(kServerAllocations, "server.allocations")                                \
  X(kServerBatchCallbackItems, "server.batch_callback_items")                \
  X(kServerBatchCallbackRequests, "server.batch_callback_requests")          \
  X(kServerCallbacksDenied, "server.callbacks_denied")                       \
  X(kServerCallbacksObject, "server.callbacks_object")                       \
  X(kServerCallbacksPage, "server.callbacks_page")                           \
  X(kServerCheckpoints, "server.checkpoints")                                \
  X(kServerCommitLogShips, "server.commit_log_ships")                        \
  X(kServerCommitPageShips, "server.commit_page_ships")                      \
  X(kServerCoordinatedPageRecoveries, "server.coordinated_page_recoveries")  \
  X(kServerCrashes, "server.crashes")                                        \
  X(kServerDeallocations, "server.deallocations")                            \
  X(kServerDeescalations, "server.deescalations")                            \
  X(kServerDiskReads, "server.disk_reads")                                   \
  X(kServerDiskWrites, "server.disk_writes")                                 \
  X(kServerForcePageRequests, "server.force_page_requests")                  \
  X(kServerLockReleases, "server.lock_releases")                             \
  X(kServerLockRequests, "server.lock_requests")                             \
  X(kServerLogPendingHighWater, "server.log_pending_high_water")             \
  X(kServerOrderedFetches, "server.ordered_fetches")                         \
  X(kServerPageFetches, "server.page_fetches")                               \
  X(kServerPagesMerged, "server.pages_merged")                               \
  X(kServerRecoveryPageFetches, "server.recovery_page_fetches")              \
  X(kServerReplacementRecords, "server.replacement_records")                 \
  X(kServerRestarts, "server.restarts")                                      \
  X(kServerSyncCheckpoints, "server.sync_checkpoints")                       \
  X(kServerTokenRequests, "server.token_requests")                           \
  X(kServerTokenTransfers, "server.token_transfers")

enum class Counter : uint16_t {
#define FINELOG_COUNTER_ENUM(id, name) id,
  FINELOG_COUNTERS(FINELOG_COUNTER_ENUM)
#undef FINELOG_COUNTER_ENUM
      kCount,
};

inline constexpr size_t kCounterCount = static_cast<size_t>(Counter::kCount);

inline constexpr std::string_view kCounterNames[kCounterCount] = {
#define FINELOG_COUNTER_NAME(id, name) name,
    FINELOG_COUNTERS(FINELOG_COUNTER_NAME)
#undef FINELOG_COUNTER_NAME
};

constexpr std::string_view CounterName(Counter c) {
  return kCounterNames[static_cast<size_t>(c)];
}

// Counters are relaxed atomics: in the real-clock execution mode
// (DESIGN.md section 17) every client thread increments concurrently, and no code orders memory against a counter --
// they are pure statistics, summed and snapshotted after the threads join.
class Metrics {
 public:
  Metrics() = default;

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  // Hot path: dense-array relaxed increment, no allocation.
  void Add(Counter c, uint64_t delta = 1) {
    dense_[static_cast<size_t>(c)].fetch_add(delta, std::memory_order_relaxed);
  }

  // High-water tracking: keeps the largest value ever reported.
  void SetMax(Counter c, uint64_t value) {
    std::atomic<uint64_t>& slot = dense_[static_cast<size_t>(c)];
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value > cur &&
           !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t Get(Counter c) const {
    return dense_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }

  // Compatibility path for dynamically named counters ("fault.<point>").
  // Interned names resolve to the dense array so both views agree; truly
  // dynamic names fall back to a mutex-guarded map (never on a hot path --
  // the lint's metrics-string-key rule keeps hot sites on the enum).
  void Add(const std::string& name, uint64_t delta = 1) {
    if (const Counter* c = Lookup(name)) {
      Add(*c, delta);
      return;
    }
    std::lock_guard<std::mutex> lock(dynamic_mu_);
    dynamic_[name] += delta;
  }

  uint64_t Get(const std::string& name) const {
    if (const Counter* c = Lookup(name)) return Get(*c);
    std::lock_guard<std::mutex> lock(dynamic_mu_);
    auto it = dynamic_.find(name);
    return it == dynamic_.end() ? 0 : it->second;
  }

  // Name-ordered view of every nonzero counter (interned and dynamic), for
  // snapshot diffing and enumeration. Zero-valued interned counters are
  // omitted so the view matches what a purely string-keyed registry would
  // have recorded.
  std::map<std::string, uint64_t> counters() const {
    std::map<std::string, uint64_t> out;
    {
      std::lock_guard<std::mutex> lock(dynamic_mu_);
      out.insert(dynamic_.begin(), dynamic_.end());
    }
    for (size_t i = 0; i < kCounterCount; ++i) {
      const uint64_t v = dense_[i].load(std::memory_order_relaxed);
      if (v != 0) out.emplace(std::string(kCounterNames[i]), v);
    }
    return out;
  }

  void Reset() {
    for (auto& slot : dense_) slot.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(dynamic_mu_);
    dynamic_.clear();
  }

  // Snapshot for before/after diffing in benchmarks.
  std::map<std::string, uint64_t> Snapshot() const { return counters(); }

 private:
  // Name -> interned counter; built once, used only by the string-keyed
  // compatibility overloads.
  static const Counter* Lookup(const std::string& name) {
    static const std::map<std::string, Counter, std::less<>> index = [] {
      std::map<std::string, Counter, std::less<>> m;
      for (size_t i = 0; i < kCounterCount; ++i) {
        m.emplace(std::string(kCounterNames[i]), static_cast<Counter>(i));
      }
      return m;
    }();
    auto it = index.find(name);
    return it == index.end() ? nullptr : &it->second;
  }

  std::array<std::atomic<uint64_t>, kCounterCount> dense_{};
  mutable std::mutex dynamic_mu_;
  std::map<std::string, uint64_t> dynamic_;
};

}  // namespace finelog

#endif  // FINELOG_UTIL_METRICS_H_
