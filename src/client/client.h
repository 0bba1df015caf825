// Client: a workstation offering full local transactional facilities
// (Sections 2 and 3). Owns a private write-ahead log, a local page cache,
// a local lock manager (LLM) with inter-transaction lock caching, a dirty
// page table (DPT), and a transaction manager with savepoints.
//
// Transactions execute entirely at the client: commit forces only the
// private log (no server interaction under the paper's policy); rollback and
// crash recovery replay the private log. The client implements the
// ClientEndpoint surface for callbacks, flush notifications and the recovery
// protocol.

#ifndef FINELOG_CLIENT_CLIENT_H_
#define FINELOG_CLIENT_CLIENT_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/annotations.h"
#include "common/config.h"
#include "common/result.h"
#include "common/types.h"
#include "lock/llm.h"
#include "log/log_manager.h"
#include "net/channel.h"
#include "net/rpc.h"
#include "net/endpoints.h"
#include "util/metrics.h"

namespace finelog {

class FINELOG_SHARED_STATE_CLASS Client : public ClientEndpoint {
 public:
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static Result<std::unique_ptr<Client>> Create(ClientId id,
                                                const SystemConfig& config,
                                                ServerEndpoint* server,
                                                Channel* channel, Rpc* rpc,
                                                Metrics* metrics);

  ClientId id() const { return id_; }

  // The client's capability, registered with the QueueTransport as this
  // client's gate: released in full while the client parks on an RPC frame
  // so the reactor can deliver callbacks into it (DESIGN.md section 17).
  SimMutex& gate() { return mu_; }

  // Transaction API ----------------------------------------------------------

  Result<TxnId> Begin();

  // Reads an object under a shared lock.
  Result<std::string> Read(TxnId txn, ObjectId oid);

  // Overwrites an object in place with a same-sized value -- the "mergeable"
  // update of Section 3.1; requires only an object-level exclusive lock, so
  // other clients may concurrently update other objects of the same page.
  Status Write(TxnId txn, ObjectId oid, Slice data);

  // Batched variants: lock misses are sent to the server in multi-item
  // messages (up to config.max_batch_items per message) and uncached pages
  // are prefetched the same way, then the per-object work proceeds against
  // warm local state. With max_batch_items == 1 these degenerate to the
  // sequential paths above.
  Status WriteBatch(TxnId txn,
                    const std::vector<std::pair<ObjectId, std::string>>& writes);
  Result<std::vector<std::string>> ReadBatch(TxnId txn,
                                             const std::vector<ObjectId>& oids);

  // Structure-modifying (non-mergeable) updates; require a page-level
  // exclusive lock (Section 3.1).
  Result<ObjectId> Create(TxnId txn, PageId pid, Slice data);
  Status Resize(TxnId txn, ObjectId oid, Slice data);
  Status Delete(TxnId txn, ObjectId oid);

  // Allocates a fresh page from the server (the caller gets a page X lock).
  Result<PageId> AllocatePage(TxnId txn);

  // Commit: forces the private log (client-local policy) or ships log
  // records / pages to the server (baseline policies, Section 4.1). Locks
  // are retained in the LLM as cached.
  Status Commit(TxnId txn);

  // Total rollback with CLRs, handled entirely by the client.
  Status Abort(TxnId txn);

  // Savepoints and partial rollback (Section 3.2).
  Result<size_t> SetSavepoint(TxnId txn);
  Status RollbackToSavepoint(TxnId txn, size_t savepoint);

  // Group commit (config.group_commit_window > 0, client-local logging):
  // forces the private log if any committed transactions are still waiting
  // for durability. Benchmarks and tests call this to close the final,
  // partially-filled window. A no-op when nothing is pending.
  Status FlushCommitGroup();
  size_t pending_group_commits() const FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    return pending_commits_;
  }

  // Independent fuzzy checkpoint: active transactions + DPT (Section 3.2).
  Status TakeCheckpoint();

  // Ships every dirty cached page to the server (evicting it), as cache
  // pressure eventually would. Used to reach quiescent states. Forces the
  // log once, then ships in chunks of max(1, max_batch_items) pages. A chunk
  // that comes back RecoveringPage (instant restart) stays cached; the rest
  // still ship and the degradation is returned at the end.
  Status ShipAllDirtyPages();

  // Orderly resource release (a client preparing to disconnect): ships all
  // dirty pages, then gives up every cached lock not used by an active
  // transaction and drops the corresponding cached pages.
  Status ReleaseIdleLocks();

  // Crash / recovery ----------------------------------------------------------

  // Simulated crash: lock tables, cache, DPT and unforced log tail are lost;
  // the private log file survives.
  Status Crash();
  bool crashed() const { return crashed_; }

  // Restart recovery (Section 3.3): ARIES analysis / conditional redo / undo
  // against the private log, fetching base pages (with DCT PSNs installed)
  // from the server.
  Status Restart();

  // ClientEndpoint ------------------------------------------------------------

  CallbackReply HandleObjectCallback(ObjectId oid, LockMode requested) override;
  DeescalateReply HandleDeescalate(PageId pid) override;
  CallbackReply HandlePageCallback(PageId pid, LockMode requested) override;
  void HandleFlushNotify(PageId pid, Psn flushed_psn) override;
  Result<ShippedPage> HandleTokenRecall(PageId pid) override;
  Status HandleCheckpointSync() override;
  Result<ClientRecoveryState> HandleRecGetState() override;
  Result<ShippedPage> HandleRecFetchCachedPage(
      PageId pid, const std::vector<CallbackListEntry>& suppress) override;
  Result<std::vector<CallbackListEntry>> HandleRecScanCallbacks(
      PageId pid, ClientId crashed) override;
  Status HandleRecRecoverPage(PageId pid,
                              const std::vector<CallbackListEntry>& callback_list,
                              const std::string& base_image, Psn base_psn,
                              Psn psn_limit) override;

  // Introspection -------------------------------------------------------------

  // Reference-returning accessors escape the capability on purpose: tests
  // and benches use them on quiesced systems (and the components they
  // return carry their own capabilities).
  LocalLockManager& llm() FINELOG_NO_THREAD_SAFETY_ANALYSIS { return llm_; }
  BufferPool& cache() FINELOG_NO_THREAD_SAFETY_ANALYSIS { return *cache_; }
  LogManager& log() FINELOG_NO_THREAD_SAFETY_ANALYSIS { return *log_; }
  const std::map<PageId, Lsn>& dpt() const FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    return dpt_;
  }
  size_t active_txns() const;
  // Benign racy reads (monotonic counters read by harnesses at quiescence).
  uint64_t commits() const FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    return commits_;
  }
  uint64_t aborts() const FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    return aborts_;
  }

 private:
  // An open transaction. Commit, Abort and restart undo erase it, so the
  // table never holds a finished one.
  struct Txn {
    Lsn first_lsn = kNullLsn;
    Lsn last_lsn = kNullLsn;
    std::vector<Lsn> savepoints;
    std::set<PageId> dirtied_pages;  // For the ship-pages-at-commit baseline.
  };

  // Remembered per page at ship time (Section 3.6): the PSN the page had and
  // the end of the private log, used to advance the DPT RedoLSN when the
  // server reports the page flushed.
  struct ShipInfo {
    Psn psn;
    Lsn log_end = kNullLsn;
  };

  // State of one page's replay during coordinated server-crash recovery
  // (Section 3.4): a resumable cursor so a parallel-recovery handshake can
  // ask for a bounded prefix (all records with PSN < limit).
  struct RecoverySession {
    Page page{0};
    std::vector<LogRecord> records;  // LSN-ordered, for this page.
    size_t cursor = 0;
    std::map<ObjectId, Psn> callback_list;
    std::set<SlotId> modified;
    bool complete = false;
  };

  Client(ClientId id, const SystemConfig& config, ServerEndpoint* server,
         Channel* channel, Rpc* rpc, Metrics* metrics)
      : id_(id), config_(config), server_(server), channel_(channel),
        rpc_(rpc), metrics_(metrics) {}

  Result<Txn*> GetActiveTxn(TxnId txn) FINELOG_REQUIRES(mu_);

  // Fault-injection I/O options for the private log, derived from config_
  // (used at Create and at every post-crash reopen).
  LogIoOptions LogIo() const {
    return LogIoOptions{config_.fault_injector, config_.log_sink,
                        "client" + ToString(id_) + ".log",
                        config_.debug_trust_log_tail};
  }

  // Page lock acquisition with LLM caching; a miss goes to the server.
  Status AcquirePageLock(TxnId txn, PageId pid, LockMode mode)
      FINELOG_REQUIRES(mu_);

  // Installs a server object-lock grant into local state: LLM entry,
  // pending exclusive callbacks, unflushed-slot tracking, the object or page
  // image carried by the reply, and the escalation check.
  Status InstallObjectLockReply(TxnId txn, ObjectId oid, LockMode mode,
                                const ObjectLockReply& reply)
      FINELOG_REQUIRES(mu_);

  // Acquires object locks for `oids` with LLM caching. The misses go to the
  // server in lock requests of up to config.max_batch_items items, and each
  // grant's object/page image is installed (client-side merge, Section 2).
  // Page-granularity configurations acquire page locks instead.
  Status AcquireObjectLocks(TxnId txn, std::span<const ObjectId> oids,
                            LockMode mode) FINELOG_REQUIRES(mu_);

  // Fetches any of `pids` that are not cached, in fetch requests of up to
  // config.max_batch_items pages.
  Status FetchPages(std::span<const PageId> pids) FINELOG_REQUIRES(mu_);

  // Ships the dirty cached pages `pids` (the log is already forced), in ship
  // requests of up to config.max_batch_items pages; their frames stay
  // cached, clean.
  Status ShipPages(std::span<const PageId> pids) FINELOG_REQUIRES(mu_);

  // Forces the private log and charges the cost model's force latency. Any
  // successful force makes every queued group commit durable, so the pending
  // group drains here no matter which call site triggered the force.
  Status ForceLog() FINELOG_REQUIRES(mu_);

  // True when the group-commit window must close now: the group reached
  // config.group_commit_max_txns, or the oldest queued commit has waited
  // at least config.group_commit_window simulated microseconds.
  bool GroupForceDue() const FINELOG_REQUIRES(mu_);

  // Returns the cached frame for `pid`, fetching from the server on a miss.
  Result<BufferPool::Frame*> GetCachedPage(PageId pid) FINELOG_REQUIRES(mu_);

  // The cache eviction handler: WAL-force the private log, then ship dirty
  // victims to the server (Section 2).
  BufferPool::EvictHandler EvictHandler();

  // Builds a ShippedPage from a frame and resets its modification tracking
  // (the frame is then "clean" = in sync with what the server has been sent).
  ShippedPage BuildShip(PageId pid, BufferPool::Frame& frame)
      FINELOG_REQUIRES(mu_);

  // Appends to the private log, running the log space protocol of Section
  // 3.6 on kLogFull.
  Result<Lsn> AppendLog(const LogRecord& rec) FINELOG_REQUIRES(mu_);

  // Log space management (Section 3.6): replace/force the page with the
  // minimum RedoLSN until an append fits.
  Status TryFreeLogSpace() FINELOG_REQUIRES(mu_);
  void UpdateReclaimLsn() FINELOG_REQUIRES(mu_);

  // Ensures a DPT entry exists for `pid` before an update is logged.
  void EnsureDptEntry(PageId pid) FINELOG_REQUIRES(mu_);

  // Records a local modification of (pid, slot) in both tracking sets.
  void TrackModification(BufferPool::Frame* frame, PageId pid, SlotId slot)
      FINELOG_REQUIRES(mu_);

  // Appends a record of `t` that it may start with (an update or a callback
  // record) and moves the transaction's first and last LSNs onto it.
  Status AppendTxnLog(Txn* t, const LogRecord& rec) FINELOG_REQUIRES(mu_);

  // Writes the pending callback log record for `oid`, if any (Section 3.1).
  // Callback records are logged lazily at the first update of the
  // called-back object: a grant that is never followed by an update must
  // not suppress the responder's recovery replay.
  Status LogPendingCallback(TxnId txn, Txn* t, ObjectId oid)
      FINELOG_REQUIRES(mu_);

  // Update-token baseline: acquire the page's update token before a
  // physical update (Section 3.1).
  Status EnsureToken(PageId pid) FINELOG_REQUIRES(mu_);

  // Liveness (DESIGN.md section 14), called at the top of every public API
  // entry point except the local rollback paths (Abort,
  // RollbackToSavepoint). Piggybacks a heartbeat when the configured
  // interval has elapsed -- no background thread; the simulated clock only
  // moves when someone acts. A heartbeat that cannot reach the server is
  // non-fatal (the next call retries), but once the last granted lease
  // horizon has passed without a successful renewal the client self-fences
  // with kZombieFenced: the server may already have given its locks away,
  // so continuing against cached state would be unsafe. A no-op with the
  // heartbeat knob off.
  Status MaybeHeartbeat() FINELOG_REQUIRES(mu_);

  // Applies one logged operation (redo direction) to a page. The only way a
  // transaction's change reaches a page: at first execution, as a CLR at
  // rollback, and at crash redo.
  static FINELOG_MUTATES_PAGE Status ApplyRedo(Page* page,
                                               const LogRecord& rec);

  // Logs `rec`, an update of `t`, and applies it to `frame`'s page (WAL):
  // the pending callback records for its object and page go first, and the
  // record is chained onto the transaction.
  Status LogAndApply(TxnId txn, Txn* t, BufferPool::Frame* frame,
                     LogRecord rec) FINELOG_REQUIRES(mu_);

  // Rolls `txn` back to `stop_lsn` (kNullLsn = total rollback), writing CLRs.
  Status RollbackTo(TxnId txn_id, Txn* txn, Lsn stop_lsn)
      FINELOG_REQUIRES(mu_);

  // Restart helpers (client_recovery.cc).
  struct AnalysisResult {
    std::map<TxnId, Txn> losers;  // Open at the end of the log.
    std::map<PageId, Lsn> dpt;
    std::vector<ObjectId> x_objects;   // Derived from update records.
    std::vector<PageId> x_pages;       // Derived from structural records.
    std::map<ObjectId, Psn> max_psn;   // Highest record PSN per object.
    // Our own callback records per page: responder -> latest hand-off PSN.
    std::map<PageId, std::map<ClientId, Psn>> own_handoffs;
  };
  Result<AnalysisResult> RunAnalysis() FINELOG_REQUIRES(mu_);
  Status RunRedo(const AnalysisResult& analysis,
                 const std::map<PageId, Psn>& dct_psn, bool dct_authoritative,
                 const std::map<ObjectId, Psn>& callback_lists)
      FINELOG_REQUIRES(mu_);
  Status RunUndo(const std::map<TxnId, Txn>& losers) FINELOG_REQUIRES(mu_);

  // Capability guarding the client's transactional state. Uncontended in
  // the simulation; in the real-clock mode it is this client's gate,
  // contended between the client's own thread and the reactor delivering
  // callbacks (and released in full while the client parks on a frame).
  mutable SimMutex mu_;

  ClientId id_ FINELOG_UNGUARDED("immutable after construction");
  SystemConfig config_ FINELOG_UNGUARDED("immutable after construction");
  ServerEndpoint* server_ FINELOG_UNGUARDED("externally owned wiring, set once");
  Channel* channel_ FINELOG_UNGUARDED("externally owned wiring, set once");
  Rpc* rpc_ FINELOG_UNGUARDED("externally owned wiring, set once");
  Metrics* metrics_ FINELOG_UNGUARDED("monotonic counters, not protocol state");

  std::unique_ptr<LogManager> log_ FINELOG_PT_GUARDED_BY(mu_);
  std::unique_ptr<BufferPool> cache_ FINELOG_PT_GUARDED_BY(mu_);
  LocalLockManager llm_ FINELOG_GUARDED_BY(mu_);

  std::map<TxnId, Txn> txns_ FINELOG_GUARDED_BY(mu_);
  std::map<PageId, Lsn> dpt_ FINELOG_GUARDED_BY(mu_);
  std::map<PageId, ShipInfo> ship_info_ FINELOG_GUARDED_BY(mu_);
  // Exclusive callbacks granted to us, not yet covered by an update record.
  // One X request can call back several holders of the same object (the
  // previous writer plus readers), so each object keeps a list.
  std::map<ObjectId, std::vector<XCallbackInfo>> pending_callbacks_
      FINELOG_GUARDED_BY(mu_);
  // Slots modified since the server last confirmed a flush of the page.
  // Unlike Frame::modified_slots (since last *ship*), this set survives
  // ships, evictions and re-fetches; it is what a restarting server needs
  // merged when it pulls our cached copy (Section 3.4, step 4).
  std::map<PageId, std::set<SlotId>> unflushed_slots_ FINELOG_GUARDED_BY(mu_);
  std::set<PageId> tokens_held_ FINELOG_GUARDED_BY(mu_);
  std::map<PageId, RecoverySession> recovery_sessions_
      FINELOG_GUARDED_BY(mu_);

  // Group commit: how many transactions have commit records appended but not
  // yet forced, plus the simulated enqueue time of the oldest. Lost (with the
  // unforced log tail) on crash; recovery then treats them as losers, which
  // is exactly the deferred-durability contract.
  uint32_t pending_commits_ FINELOG_GUARDED_BY(mu_) = 0;
  uint64_t oldest_pending_commit_us_ FINELOG_GUARDED_BY(mu_) = 0;

  // Liveness: simulated time of the last heartbeat attempt, and the lease
  // horizon granted by the last successful renewal (0 = no lease yet).
  uint64_t last_heartbeat_us_ FINELOG_GUARDED_BY(mu_) = 0;
  uint64_t lease_valid_until_ FINELOG_GUARDED_BY(mu_) = 0;

  uint64_t next_txn_seq_ FINELOG_GUARDED_BY(mu_) = 1;
  bool crashed_ FINELOG_UNGUARDED("harness lifecycle flag, toggled while "
                                  "no request is in flight") = false;
  uint64_t commits_ FINELOG_GUARDED_BY(mu_) = 0;
  uint64_t aborts_ FINELOG_GUARDED_BY(mu_) = 0;
};

}  // namespace finelog

#endif  // FINELOG_CLIENT_CLIENT_H_
