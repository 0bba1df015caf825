// Server: the page server. Owns the database disk, the space allocation map,
// the global lock manager (GLM), the dirty client table (DCT), the server
// buffer pool, and the server log (replacement + checkpoint records only --
// the server never logs data updates; those live in client logs).
//
// Serves the client/server exchanges of net/endpoints.h for normal
// processing and for the recovery protocols of Sections 3.3-3.5.

#ifndef FINELOG_SERVER_SERVER_H_
#define FINELOG_SERVER_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/annotations.h"
#include "common/config.h"
#include "common/result.h"
#include "common/types.h"
#include "lock/glm.h"
#include "log/log_manager.h"
#include "net/channel.h"
#include "net/endpoints.h"
#include "net/server_router.h"
#include "server/dct.h"
#include "server/liveness.h"
#include "server/mastership.h"
#include "storage/disk_manager.h"
#include "storage/space_map.h"
#include "util/metrics.h"

namespace finelog {

class Rpc;

class FINELOG_SHARED_STATE_CLASS Server : public FailoverNode {
 public:
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Creates the server over `config.dir` (database file, space map, server
  // log). `channel`, `rpc` and `metrics` are owned by the caller
  // (core::System). Every request/reply exchange is accounted through `rpc`.
  static Result<std::unique_ptr<Server>> Create(const SystemConfig& config,
                                                Channel* channel, Rpc* rpc,
                                                Metrics* metrics);

  // Creates a cold hot-standby node over the same `config.dir`: the store
  // files stay closed (the primary owns them; a second set of buffered
  // handles would read stale bytes) and the node starts crashed. A failover
  // probe that wins the mastership lease opens the store fresh and runs
  // restart recovery (DESIGN.md section 19).
  static Result<std::unique_ptr<Server>> CreateStandby(
      const SystemConfig& config, Channel* channel, Rpc* rpc, Metrics* metrics);

  // Wiring ------------------------------------------------------------------

  void RegisterClient(ClientId id, ClientEndpoint* endpoint);
  void SetClientCrashed(ClientId id, bool crashed);
  bool IsClientCrashed(ClientId id) const {
    SimMutexLock lock(mu_);
    return crashed_clients_.count(id) > 0;
  }

  // Lifecycle ---------------------------------------------------------------

  // Simulated server crash: drops the buffer pool, GLM, DCT and token table.
  // The database file, space map and (always forced) server log survive.
  Status Crash();
  bool crashed() const { return crashed_; }

  // Server restart recovery, Sections 3.4-3.5. `crashed_clients` is the set
  // of clients that are down at restart time (complex crash); their DCT
  // entries are reconstructed from the server log and their page recovery is
  // deferred until they restart.
  Status Restart();

  // Fuzzy server checkpoint: a log record carrying the whole DCT.
  Status TakeCheckpoint();

  // Forces every dirty page in the pool to disk (used by tests/benches to
  // reach a quiescent state).
  Status FlushAllPages();

  // Bootstrap: allocate and format `n` pages each pre-loaded with
  // `objects_per_page` objects of `object_size` bytes, flushed to disk.
  // The space map is persisted once, after the last page write.
  Status Bootstrap(uint32_t n, uint32_t objects_per_page, uint32_t object_size);

  // Administrative page deallocation (quiescent operation: no client may
  // hold locks on or cache the page). Records the page's final PSN in the
  // space map so a future reallocation continues the PSN lineage
  // (Section 2 / [18]).
  Status DeallocatePage(PageId pid);

  // ServerEndpoint: every request runs through one prologue (Dispatch)
  // and then its protocol handler (Handle).
  void Serve(ClientId client, AnyServerCall call) override;

  // Hot standby / mastership (DESIGN.md section 19) --------------------------

  // Wires this node into a two-node mastership group: `node` is its arbiter
  // id, `table` the shared lease arbiter, `peer` the other node (replication
  // target; may be null on the standby side). Leaves mastership disabled
  // when `table` is null -- the default single-server deployment never pays
  // a mastership check.
  void ConfigureMastership(int node, MastershipTable* table, Server* peer);

  // Bootstrap: takes the initial mastership lease (no takeover recovery;
  // the store is already open). Used by System::Create on the first primary.
  Status AcquireMastership();

  // Client-driven failover entry point: a client that timed out against the
  // primary asks this node to become master. Renews if this node already
  // serves; otherwise tries to Acquire the lease and, on success, fences the
  // old epoch and runs takeover recovery (reopen store, rebuild DCT from the
  // durable store plus client logs). Refused while the incumbent's lease is
  // still valid (kFailoverInProgress -- the mastership gap) or while this
  // node is halted (Crashed). Returns the serving epoch.
  Result<uint64_t> FailoverProbe(ClientId client) override;

  // Clean switchover: releases the lease and drops to cold standby (volatile
  // state discarded exactly as a crash would; the successor rebuilds it).
  Status StepDown();

  // Harness: makes a crashed node probeable again as a cold standby (the
  // hot-standby replacement for Restart, which would seize the store while
  // the surviving primary serves).
  void ProvisionStandby() { halted_ = false; }
  bool halted() const { return halted_; }

  uint64_t mastership_epoch() const {
    SimMutexLock lock(mu_);
    return mastership_epoch_;
  }

  // Replication receivers: the primary mirrors membership records and
  // checkpoint markers here right after forcing them. Records carrying an
  // epoch older than the arbiter's current one come from a deposed primary
  // and are rejected (split-brain fencing).
  void ApplyReplicatedMembership(ClientId member, bool presumed_dead,
                                 uint64_t epoch);
  void ApplyReplicatedCheckpoint(uint64_t epoch);
  // A client completed crash recovery at the primary: the standby drops it
  // from its (harness-seeded) crashed set so a later takeover treats it as
  // operational.
  void ApplyReplicatedOperational(ClientId client, uint64_t epoch);
  size_t ReplicatedDeadCountForTest() const {
    SimMutexLock lock(mu_);
    return repl_dead_.size();
  }
  uint64_t ReplicatedCheckpointsForTest() const {
    SimMutexLock lock(mu_);
    return repl_checkpoints_;
  }

  // ARIES/CSA-baseline synchronized checkpoint: contacts every live client.
  Status TakeSynchronizedCheckpoint();

  // Instant restart (DESIGN.md section 18) ----------------------------------

  // Harness hook: repairs up to `max_pages` still-unrecovered pages in
  // priority order (demand-degraded pages first, then lowest page id), as
  // the background sweep would. Returns the first degraded/hard status.
  Status SweepRecovery(uint32_t max_pages);

  // Pages still owing lazy post-restart repair work.
  size_t RecoveryPagesPending() const {
    SimMutexLock lock(mu_);
    return page_rec_.size();
  }
  bool PagePendingRecoveryForTest(PageId pid) const {
    SimMutexLock lock(mu_);
    return page_rec_.count(pid) != 0;
  }

  // Introspection (tests and benchmarks). The reference-returning accessors
  // escape the capability on purpose: harnesses use them on quiesced
  // systems, and the components carry their own capabilities.
  GlobalLockManager& glm() FINELOG_NO_THREAD_SAFETY_ANALYSIS { return glm_; }
  DirtyClientTable& dct() FINELOG_NO_THREAD_SAFETY_ANALYSIS { return dct_; }
  LivenessTable& liveness() FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    return liveness_;
  }
  bool IsPresumedDead(ClientId id) const {
    SimMutexLock lock(mu_);
    return liveness_.IsPresumedDead(id);
  }
  LogManager& log() FINELOG_NO_THREAD_SAFETY_ANALYSIS { return *log_; }
  BufferPool& pool() FINELOG_NO_THREAD_SAFETY_ANALYSIS { return *pool_; }
  SpaceMap& space_map() FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    return *space_map_;
  }
  Metrics& metrics() { return *metrics_; }
  uint64_t disk_reads() const {
    SimMutexLock lock(mu_);
    return disk_reads_;
  }
  uint64_t disk_writes() const {
    SimMutexLock lock(mu_);
    return disk_writes_;
  }

 private:
  Server(const SystemConfig& config, Channel* channel, Rpc* rpc,
         Metrics* metrics)
      : config_(config),
        channel_(channel),
        rpc_(rpc),
        metrics_(metrics),
        liveness_(config.lease_duration_us) {}

  // Fault-injection I/O options for the database disk and the server log,
  // derived from config_ (used at Create and at every post-crash reopen).
  DiskIoOptions DiskIo() const;
  LogIoOptions LogIo() const;

  // Returns the server's current copy of `pid`, reading it from disk into
  // the pool if needed. Fails with NotFound if the page was never written
  // and is not in the pool.
  Result<BufferPool::Frame*> GetPage(PageId pid) FINELOG_REQUIRES(mu_);

  // Returns the pool's eviction handler (writes dirty victims to disk with
  // a preceding replacement log record).
  BufferPool::EvictHandler EvictHandler();

  // Forces one page to disk: replacement log record, force, in-place write,
  // flush notifications, DCT cleanup (Sections 3.2, 3.6).
  Status WritePageToDisk(PageId pid, BufferPool::Frame& frame)
      FINELOG_REQUIRES(mu_);

  // Executes the callbacks the GLM requires before a grant. Returns
  // kWouldBlock if any target denies or is crashed. Appends (responder,
  // DCT PSN) pairs for exclusive-lock callbacks to `x_callbacks` so the
  // requester can write callback log records (Section 3.1). Consecutive
  // actions against the same target client are coalesced into one request/
  // reply message pair of up to config_.max_batch_items actions.
  Status ExecuteCallbacks(const std::vector<CallbackAction>& actions,
                          std::vector<XCallbackInfo>* x_callbacks)
      FINELOG_REQUIRES(mu_);

  // One callback hop against one target; the client's answer is recorded
  // in `replies` (the caller charges whole batches).
  Status ExecuteOneCallback(const CallbackAction& action,
                            std::vector<XCallbackInfo>* x_callbacks,
                            wire::CallbackReplies* replies)
      FINELOG_REQUIRES(mu_);

  // The prologue every request runs (DESIGN.md section 13): the endpoint
  // lock, the crash check, the Rpc exchange with the request's options and
  // sizes, the mastership and liveness fences (the recovery plane opens
  // its recovery window instead), then the request's handler.
  template <typename Req>
  ReplyOf<Req> Dispatch(ClientId client, const Req& request);

  // Protocol handlers, one per request; called only from Dispatch.
  Answer<wire::LockObject> Handle(ClientId, const wire::LockObject&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::LockPage> Handle(ClientId, const wire::LockPage&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::FetchPage> Handle(ClientId, const wire::FetchPage&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::ShipPage> Handle(ClientId, const wire::ShipPage&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::AllocatePage> Handle(ClientId, const wire::AllocatePage&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::ForcePage> Handle(ClientId, const wire::ForcePage&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::ReleaseLocks> Handle(ClientId, const wire::ReleaseLocks&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::CommitShipLogs> Handle(ClientId, const wire::CommitShipLogs&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::CommitShipPages> Handle(ClientId, const wire::CommitShipPages&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::AcquireToken> Handle(ClientId, const wire::AcquireToken&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::Heartbeat> Handle(ClientId, const wire::Heartbeat&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::RecGetMyDct> Handle(ClientId, const wire::RecGetMyDct&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::RecGetMyXLocks> Handle(ClientId, const wire::RecGetMyXLocks&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::RecFetchPage> Handle(ClientId, const wire::RecFetchPage&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::RecComplete> Handle(ClientId, const wire::RecComplete&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::RecInstallLocks> Handle(ClientId, const wire::RecInstallLocks&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::RecGetCallbackList> Handle(ClientId, const wire::RecGetCallbackList&)
      FINELOG_REQUIRES(mu_);
  Answer<wire::RecOrderedFetch> Handle(ClientId, const wire::RecOrderedFetch&)
      FINELOG_REQUIRES(mu_);

  // Grants one object lock of a LockObject request: callbacks first, then
  // the grant and the reply carrying the object or page image.
  Result<ObjectLockReply> GrantObjectLock(ClientId client,
                                          const wire::LockObject::Item& item)
      FINELOG_REQUIRES(mu_);

  // Merges a shipped page into the server copy and updates the DCT.
  // `update_dct_psn` is false for restart cache pulls: they overlay only the
  // sender's currently-held authority, so the sender's cached PSN must not
  // become its Property-1 baseline (its log replay still has work to do).
  Status ApplyShippedPage(ClientId client, const ShippedPage& page,
                          bool update_dct_psn = true) FINELOG_REQUIRES(mu_);

  // OK when no crashed or presumed-dead client may hold recoverable state
  // on `pid` (conservative guard while its GLM/DCT entries are not
  // authoritative); otherwise a kWouldBlock carrying the machine-readable
  // reason (kCrashedDependency / kQuarantinedPage).
  Status CheckPageReachable(PageId pid, ClientId requester)
      FINELOG_REQUIRES(mu_);

  // Mastership helpers (DESIGN.md section 19). All are no-ops with no
  // mastership table wired, so the default single-server schedule is
  // byte-identical.

  // The epoch fence, checked before LivenessAdmission by every normal-plane
  // and recovery-plane endpoint body. Renews this node's lease; a node that
  // cannot renew because another node holds the lease is deposed (fenced
  // with kFailoverInProgress). While the arbiter is unreachable (partition)
  // the node keeps serving only up to its locally known lease horizon --
  // lease non-overlap guarantees no successor serves before that horizon.
  Status MastershipAdmission() FINELOG_REQUIRES(mu_);

  // Installs a won grant: reopens the store fresh (the deposed peer wrote
  // through its own handles), drops all volatile state, and runs restart
  // recovery, which reconstructs the DCT from the durable store plus client
  // logs and drains the repair backlog before admission unless
  // instant_restart is set.
  Status TakeOver(const MastershipTable::Grant& grant) FINELOG_REQUIRES(mu_);

  // Restart body for callers that already hold mu_ (TakeOver, inside the
  // probing endpoint).
  Status RestartLocked() FINELOG_REQUIRES(mu_);

  // Drops to cold standby: volatile protocol state gone, store handles
  // released, crashed_ set. Shared tail of Crash() and StepDown().
  Status DropVolatileState() FINELOG_REQUIRES(mu_);

  // Clears the volatile protocol state every restart re-derives: buffer
  // pool, GLM, DCT, update tokens, deferred recoveries and the restart
  // repair backlog. Shared by DropVolatileState() and TakeOver().
  void ClearVolatileState() FINELOG_REQUIRES(mu_);

  // Primary-side replication: mirrors a just-forced membership record /
  // checkpoint marker to the standby through the Rpc chokepoint. No-ops
  // without a wired peer.
  void ReplicateMembership(ClientId member, bool presumed_dead)
      FINELOG_REQUIRES(mu_);
  void ReplicateCheckpoint() FINELOG_REQUIRES(mu_);
  void ReplicateClientOperational(ClientId client) FINELOG_REQUIRES(mu_);

  // Liveness helpers (DESIGN.md section 14). All are no-ops with the
  // heartbeat knob off, so the default message/clock schedule is untouched.
  bool liveness_enabled() const { return config_.liveness_enabled(); }

  // Expires overdue leases, then fences `client` if it is presumed dead;
  // on admission, renews its lease (any request proves liveness). Called at
  // the top of every normal-plane endpoint body. The recovery plane is
  // deliberately not fenced: crash recovery is how a zombie rejoins.
  Status LivenessAdmission(ClientId client) FINELOG_REQUIRES(mu_);

  // Declares every lease-expired client presumed dead.
  Status CheckLeases() FINELOG_REQUIRES(mu_);

  // The declaration itself: forces a membership record, fences the session
  // epoch, releases shared locks (§3.3), drops update tokens, and reclaims
  // exclusive locks on pages with no DCT entry for the client. Pages the
  // client has dirtied per the DCT stay quarantined (CheckPageReachable).
  Status DeclarePresumedDead(ClientId id) FINELOG_REQUIRES(mu_);

  // Appends and forces a kMembership record (declaration or clearing).
  Status AppendMembershipRecord(ClientId member, bool presumed_dead)
      FINELOG_REQUIRES(mu_);

  // True if `id` cannot currently serve or answer for its state: explicitly
  // crashed or presumed dead. The two sets get identical treatment in the
  // grant, callback, flush and restart paths.
  bool ClientUnreachable(ClientId id) const FINELOG_REQUIRES(mu_) {
    return crashed_clients_.count(id) != 0 || liveness_.IsPresumedDead(id);
  }

  // Restart step 0: replays kMembership records from the server log so the
  // presumed-dead set (and its quarantines) survives a server crash.
  Status ReloadMembership() FINELOG_REQUIRES(mu_);

  // Recovery helpers (Section 3.4), defined in server_recovery.cc.
  Status RebuildGlmAndCollectState(
      std::map<ClientId, ClientRecoveryState>* states) FINELOG_REQUIRES(mu_);
  Status ReconstructDct(const std::map<ClientId, ClientRecoveryState>& states,
                        std::map<PageId, std::set<ClientId>>* to_recover)
      FINELOG_REQUIRES(mu_);
  // One coordinated replay task: CoordinatePageRecovery refuses while
  // `client` is down (the caller defers the pair to its RecComplete);
  // ReplayClientLog sends the base image and DCT baseline and has `client`
  // replay its log, stopping before `up_to` (kNullPsn = everything).
  Status CoordinatePageRecovery(PageId pid, ClientId client)
      FINELOG_REQUIRES(mu_);
  Status ReplayClientLog(PageId pid, ClientId client, Psn up_to)
      FINELOG_REQUIRES(mu_);
  // The image a replay starts from: the server's copy, or a page formatted
  // at its allocation PSN when it never reached the disk (NotFound only).
  Result<std::string> ReplayBaseImage(PageId pid) FINELOG_REQUIRES(mu_);
  Result<std::vector<CallbackListEntry>> CollectCallbackList(PageId pid,
                                                             ClientId client)
      FINELOG_REQUIRES(mu_);

  // Restart repair internals (DESIGN.md section 18), defined in
  // server_recovery.cc. Every restart fills page_rec_; all of these are
  // no-ops once it is empty.

  // True while `pid` still owes restart repair work.
  bool PageRecoveryPending(PageId pid) const FINELOG_REQUIRES(mu_) {
    return page_rec_.count(pid) != 0;
  }

  // The per-endpoint guard: called right after LivenessAdmission by every
  // page-touching endpoint body. Demand-repairs `pid` if it is unrecovered,
  // then lets the background sweep drain one more page. Degrades to
  // WouldBlock(kRecoveringPage) when the repair cannot complete yet (fault
  // point, unreachable dependency, network).
  Status EnsurePageRecovered(PageId pid) FINELOG_REQUIRES(mu_);

  // Dispatches one pending page to RepairPage or (kFailed) SinglePageRepair
  // and retires its page_rec_ entry on success.
  Status AttemptPageRepair(PageId pid, bool demand) FINELOG_REQUIRES(mu_);

  // Runs `pid`'s outstanding task list (cache pulls, then coordinated log
  // replays), verifies the result, and erases the entry. On interruption the
  // remaining tasks are kept and the page re-queued for the sweep.
  Status RepairPage(PageId pid, bool demand) FINELOG_REQUIRES(mu_);

  // Restart cache pull for one (page, client): callback-list collection plus
  // the client's cached copy, merged without advancing its DCT baseline.
  // NotFound when the client no longer caches the page.
  Status PullCachedPage(PageId pid, ClientId client) FINELOG_REQUIRES(mu_);

  // Discards the suspect merged copy and rebuilds `pid` from its durable
  // base plus replay from every responsible (DCT) client's log.
  Status SinglePageRepair(PageId pid) FINELOG_REQUIRES(mu_);

  // Consistency check after repair: the merged page PSN must cover every
  // reachable responsible client's DCT baseline. Also the seat of the
  // recovery.server.page_check fault point.
  Status VerifyRecoveredPage(PageId pid) FINELOG_REQUIRES(mu_);

  // Picks the next page the sweep should repair; false when none eligible.
  bool PickSweepPage(PageId* out) FINELOG_REQUIRES(mu_);

  // Opportunistically drains one page after an admitted request; a
  // degraded repair ends the round.
  void MaybeBackgroundSweep() FINELOG_REQUIRES(mu_);

  // Repairs up to `max_pages` pending pages in sweep order; returns the
  // first degraded or hard status. Shared by the eager restart drain, the
  // background sweep and SweepRecovery.
  Status DrainBacklog(uint32_t max_pages) FINELOG_REQUIRES(mu_);

  // Emits recovery.time_to_fully_recovered_us once the backlog drains.
  void FinishLazyRecovery() FINELOG_REQUIRES(mu_);

  // Capability guarding the server's shared protocol state. Uncontended in
  // the simulation; in the real-clock mode the server token's holder takes
  // it (recursively across nested endpoint calls).
  mutable SimMutex mu_;

  SystemConfig config_ FINELOG_UNGUARDED("immutable after construction");
  // Clock/cost charges only; message counting goes via rpc_.
  Channel* channel_ FINELOG_UNGUARDED("externally owned wiring, set once");
  Rpc* rpc_ FINELOG_UNGUARDED("externally owned wiring, set once");
  Metrics* metrics_ FINELOG_UNGUARDED("monotonic counters, not protocol state");

  std::unique_ptr<DiskManager> disk_ FINELOG_PT_GUARDED_BY(mu_);
  std::unique_ptr<SpaceMap> space_map_ FINELOG_PT_GUARDED_BY(mu_);
  std::unique_ptr<LogManager> log_ FINELOG_PT_GUARDED_BY(mu_);
  std::unique_ptr<BufferPool> pool_ FINELOG_PT_GUARDED_BY(mu_);
  GlobalLockManager glm_ FINELOG_GUARDED_BY(mu_);
  DirtyClientTable dct_ FINELOG_GUARDED_BY(mu_);

  std::map<ClientId, ClientEndpoint*> clients_ FINELOG_GUARDED_BY(mu_);
  std::set<ClientId> crashed_clients_ FINELOG_GUARDED_BY(mu_);
  // Also holds the per-client recovery-admission windows (a presumed-dead
  // client that has started crash recovery is admitted until RecComplete).
  LivenessTable liveness_ FINELOG_GUARDED_BY(mu_);
  bool crashed_ FINELOG_UNGUARDED("harness lifecycle flag, toggled while "
                                  "no request is in flight") = false;

  // Hot standby / mastership (DESIGN.md section 19).
  int node_id_ FINELOG_UNGUARDED("wiring, set once") = 0;
  MastershipTable* mastership_ FINELOG_UNGUARDED(
      "externally owned wiring, set once; null = mastership disabled") =
      nullptr;
  Server* peer_ FINELOG_UNGUARDED("externally owned wiring, set once") =
      nullptr;
  // The grant this node serves under; epoch 0 = not serving master.
  uint64_t mastership_epoch_ FINELOG_GUARDED_BY(mu_) = 0;
  uint64_t mastership_valid_until_ FINELOG_GUARDED_BY(mu_) = 0;
  // True while the node's process is dead (crashed, not merely deposed):
  // failover probes are refused. A cold standby is crashed_ but not halted_.
  bool halted_ FINELOG_UNGUARDED("harness lifecycle flag, toggled while "
                                 "no request is in flight") = false;
  // False on a standby whose store handles were never opened (or were
  // released at step-down); TakeOver opens them fresh.
  bool store_open_ FINELOG_GUARDED_BY(mu_) = true;
  // Standby-side mirror of the primary's presumed-dead set, fed by
  // replicated membership records. Advisory: takeover replays the
  // authoritative membership history from the shared durable log; the
  // mirror lets tests observe replication and epoch fencing directly.
  std::set<ClientId> repl_dead_ FINELOG_GUARDED_BY(mu_);
  uint64_t repl_checkpoints_ FINELOG_GUARDED_BY(mu_) = 0;
  // False from a server crash until every client has completed restart: the
  // reconstructed DCT may be missing entries for crashed clients.
  bool dct_authoritative_ FINELOG_GUARDED_BY(mu_) = true;

  // Update-token baseline state (volatile).
  std::map<PageId, ClientId> token_holder_ FINELOG_GUARDED_BY(mu_);

  // Page recoveries deferred because they depend on a crashed client
  // (Section 3.5); retried when that client completes restart.
  std::vector<std::pair<ClientId, PageId>> deferred_recoveries_
      FINELOG_GUARDED_BY(mu_);

  // Restart repair (DESIGN.md section 18): per-page recovery state machine.
  // A page is *clean* when absent from page_rec_; otherwise it still owes
  // part of the Sections 3.4-3.5 restart work, held as an ordered task list
  // (cache pulls before log replays, client id order within each kind).
  enum class PageRecState : uint8_t {
    kNeedsRecovery,  // Tasks pending; first touch triggers demand repair.
    kRecovering,     // Repair in flight; the page's own Rec traffic passes.
    kFailed,         // Consistency check failed; next touch runs
                     // single-page repair from the responsible logs.
  };
  struct PageRecTask {
    ClientId client;
    bool pull_cached;  // true: restart cache pull; false: coordinated replay.
  };
  struct PageRecovery {
    PageRecState state = PageRecState::kNeedsRecovery;
    std::vector<PageRecTask> tasks;
  };
  std::map<PageId, PageRecovery> page_rec_ FINELOG_GUARDED_BY(mu_);
  // Pages to sweep next, most-recently-degraded first candidates at the
  // front. May hold stale ids; the sweep skips entries no longer pending.
  std::deque<PageId> rec_priority_ FINELOG_GUARDED_BY(mu_);
  // Reentrancy depth of RepairPage/SinglePageRepair: nested endpoint calls
  // made by a repair (the client ships the recovered page back through
  // ShipPage) must not start another sweep.
  int repair_depth_ FINELOG_GUARDED_BY(mu_) = 0;
  // Clock at the restart that filled page_rec_; 0 once fully recovered.
  uint64_t restart_begin_us_ FINELOG_GUARDED_BY(mu_) = 0;

  uint64_t disk_reads_ FINELOG_GUARDED_BY(mu_) = 0;
  uint64_t disk_writes_ FINELOG_GUARDED_BY(mu_) = 0;
};

}  // namespace finelog

#endif  // FINELOG_SERVER_SERVER_H_
