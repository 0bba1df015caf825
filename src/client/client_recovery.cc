// Client-side recovery (Sections 3.3-3.5).
//
// Crash: the LLM, cache, DPT, transaction table and unforced log tail are
// volatile; the private log file survives.
//
// Restart (client crash, Section 3.3):
//   1. Analysis from the last complete checkpoint rebuilds the DPT and the
//      transaction table.
//   2. The client re-installs the exclusive locks it held before the
//      failure (from the server's GLM, or re-derived from its own log when
//      the GLM was lost in a complex crash).
//   3. Conditional redo from the minimum DPT RedoLSN: a page is fetched
//      only if it has a DCT entry; the server sends its copy together with
//      the DCT PSN, which the client installs on the page (Property 1); a
//      record is applied only to exclusively-locked objects whose PSN
//      condition indicates the update is missing.
//   4. Undo rolls back transactions active at the crash, writing CLRs.
//
// Server-crash coordination (Section 3.4): HandleRecRecoverPage replays this
// client's records for one page onto the base copy the server supplies,
// honouring the merged CallBack_P list, and ships the result. A resumable
// cursor supports the parallel-recovery handshake: a bounded call processes
// all records with PSN < limit and pauses.

#include <algorithm>

#include "client/client.h"
#include "server/page_merge.h"

namespace finelog {

Status Client::Crash() {
  SimMutexLock lock(mu_);
  crashed_ = true;
  llm_.Clear();
  cache_->Clear();
  dpt_.clear();
  ship_info_.clear();
  unflushed_slots_.clear();
  pending_callbacks_.clear();
  txns_.clear();
  tokens_held_.clear();
  recovery_sessions_.clear();
  // The group-commit queue dies with the unforced log tail: its commit
  // records were never durable, so recovery rolls those members back.
  pending_commits_ = 0;
  // Liveness state is volatile: the restarted process renews from scratch.
  last_heartbeat_us_ = 0;
  lease_valid_until_ = 0;
  // Reopen the private log: the unforced tail is lost, exactly as a real
  // volatile log buffer would be.
  FINELOG_ASSIGN_OR_RETURN(
      log_, LogManager::Open(config_.dir + "/client" + ToString(id_) +
                                 ".log",
                             config_.client_log_capacity, LogIo()));
  metrics_->Add(Counter::kClientCrashes);
  return Status::OK();
}

Result<Client::AnalysisResult> Client::RunAnalysis() {
  AnalysisResult out;
  Lsn start = log_->checkpoint_lsn();
  if (start != kNullLsn) {
    auto ckpt = log_->Read(start);
    if (!ckpt.ok()) return ckpt.status();
    for (const TxnCheckpointInfo& t : ckpt.value().active_txns) {
      Txn txn;
      txn.first_lsn = t.first_lsn;
      txn.last_lsn = t.last_lsn;
      out.losers[t.txn] = txn;
    }
    for (const DptEntry& d : ckpt.value().dpt) {
      out.dpt[d.page] = d.redo_lsn;
    }
  } else {
    start = log_->begin_lsn();
  }

  Status st = log_->Scan(start, [&](const LogRecord& rec) -> Status {
    // Transaction ids must never be reused across a crash (their log
    // records would alias); resume the sequence past every id in the tail.
    if (rec.txn != kInvalidTxnId) {
      next_txn_seq_ = std::max<uint64_t>(next_txn_seq_, TxnSeqOf(rec.txn) + 1);
    }
    switch (rec.type) {
      case LogRecordType::kUpdate:
      case LogRecordType::kClr: {
        Txn& txn = out.losers[rec.txn];
        if (txn.first_lsn == kNullLsn) txn.first_lsn = rec.lsn;
        txn.last_lsn = rec.lsn;
        if (out.dpt.count(rec.page) == 0) out.dpt[rec.page] = rec.lsn;
        break;
      }
      case LogRecordType::kCommit:  // A winner needs no undo.
      case LogRecordType::kTxnEnd:
        out.losers.erase(rec.txn);
        break;
      case LogRecordType::kAbort:
      case LogRecordType::kSavepoint:
      case LogRecordType::kCallback: {
        auto it = out.losers.find(rec.txn);
        if (it != out.losers.end()) it->second.last_lsn = rec.lsn;
        break;
      }
      default:
        break;
    }
    return Status::OK();
  });
  if (!st.ok()) return st;

  // Second pass over the full redo window (which can start before the
  // checkpoint anchor): collect the objects/pages whose exclusive locks the
  // redo of this log would exercise, plus the highest PSN per object.
  Lsn redo_start = start;
  for (const auto& [pid, redo] : out.dpt) {
    (void)pid;
    redo_start = std::min(redo_start, redo);
  }
  std::set<ObjectId> x_objects;
  std::set<PageId> x_pages;
  st = log_->Scan(redo_start, [&](const LogRecord& rec) -> Status {
    if (rec.type == LogRecordType::kCallback &&
        out.dpt.count(rec.cb_object.page) > 0) {
      // Our own hand-off records: after a complex crash, redo of the page
      // must wait for the responder's recovered state (the same ordering
      // the Section 3.4 session handshake provides).
      Psn& w = out.own_handoffs[rec.cb_object.page][rec.cb_responder];
      w = std::max(w, rec.cb_psn);
      return Status::OK();
    }
    if (rec.type != LogRecordType::kUpdate && rec.type != LogRecordType::kClr) {
      return Status::OK();
    }
    if (out.dpt.count(rec.page) == 0) return Status::OK();
    ObjectId oid{rec.page, rec.slot};
    Psn& mp = out.max_psn[oid];
    mp = std::max(mp, rec.psn);
    if (IsStructural(rec.op)) {
      x_pages.insert(rec.page);
    } else {
      x_objects.insert(oid);
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  out.x_objects.assign(x_objects.begin(), x_objects.end());
  out.x_pages.assign(x_pages.begin(), x_pages.end());
  return out;
}

FINELOG_REPLAY_PATH("crash redo: the record being applied IS the log")
Status Client::RunRedo(const AnalysisResult& analysis,
                       const std::map<PageId, Psn>& dct_psn,
                       bool dct_authoritative,
                       const std::map<ObjectId, Psn>& callback_lists) {
  if (analysis.dpt.empty()) return Status::OK();
  Lsn start = kMaxLsn;
  for (const auto& [pid, redo] : analysis.dpt) {
    (void)pid;
    start = std::min(start, redo);
  }

  return log_->Scan(start, [&](const LogRecord& rec) -> Status {
    if (rec.type != LogRecordType::kUpdate && rec.type != LogRecordType::kClr) {
      return Status::OK();  // Callback records are not processed (3.3).
    }
    auto dit = analysis.dpt.find(rec.page);
    if (dit == analysis.dpt.end() || rec.lsn < dit->second) return Status::OK();
    // Only pages with a DCT entry need recovery (Property 1) -- valid only
    // while the DCT is authoritative; after a server crash every DPT page
    // must be considered (Section 3.5).
    if (dct_authoritative && dct_psn.count(rec.page) == 0) {
      return Status::OK();
    }

    BufferPool::Frame* frame = cache_->Peek(rec.page);
    if (frame == nullptr) {
      // Complex crash, page granularity: honor the hand-off order recorded
      // in our own log -- the responders' recovered states must be merged
      // at the server before we rebuild on top of them (otherwise our ship,
      // built on the stale disk base, would shadow their whole-page state).
      // Object granularity needs none of this: per-slot overlays plus
      // CallBack_P suppression already order same-object updates.
      if (!dct_authoritative &&
          config_.lock_granularity == LockGranularity::kPage) {
        auto hit = analysis.own_handoffs.find(rec.page);
        if (hit != analysis.own_handoffs.end()) {
          for (const auto& [responder, w] : hit->second) {
            auto ordered = server_->Call(
                id_, wire::RecOrderedFetch{rec.page, responder, w});
            if (!ordered.ok()) return ordered.status();  // kCrashed => defer.
          }
        }
      }
      auto reply = server_->Call(id_, wire::RecFetchPage{rec.page});
      if (!reply.ok()) return reply.status();
      Page page(config_.page_size);
      page.raw() = reply.value().page_image;
      // Install the PSN the server remembers for this client (3.3): records
      // with PSN >= this value are exactly the ones missing from the
      // server's copy.
      if (reply.value().dct_psn != kNullPsn) {
        page.set_psn(reply.value().dct_psn);
      }
      auto put = cache_->Put(rec.page, std::move(page), EvictHandler());
      if (!put.ok()) return put.status();
      frame = put.value();
      metrics_->Add(Counter::kClientRecoveryPageFetches);
    }
    Page& page = frame->page;

    // Apply only updates to objects this client holds exclusively (3.3).
    // After a complex crash the re-installed lock set is approximate, so
    // correctness rests on the PSN baseline plus the CallBack_P suppression
    // below; the lock filter applies only when the GLM survived.
    bool covered =
        IsStructural(rec.op)
            ? llm_.CoversPage(rec.page, LockMode::kExclusive)
            : llm_.CoversObject(ObjectId{rec.page, rec.slot},
                                LockMode::kExclusive);
    if (!dct_authoritative) covered = true;
    if (!covered) return Status::OK();
    if (rec.psn < page.psn()) return Status::OK();  // Already reflected.
    // Complex crash: the merged CallBack_P list supersedes the PSN baseline
    // for objects whose exclusive lock was relinquished pre-crash -- a
    // record older than the responding ship must not be replayed over a
    // later client's value (Section 3.4 rule 1 applied to Section 3.5).
    auto cit = callback_lists.find(ObjectId{rec.page, rec.slot});
    if (cit == callback_lists.end()) {
      cit = callback_lists.find(ObjectId{rec.page, kInvalidSlotId});
    }
    if (cit != callback_lists.end() && rec.psn < cit->second) {
      return Status::OK();
    }

    FINELOG_RETURN_IF_ERROR(ApplyRedo(&page, rec));
    page.set_psn(rec.psn.Next());
    TrackModification(frame, rec.page, rec.slot);
    if (IsStructural(rec.op)) frame->structurally_modified = true;
    metrics_->Add(Counter::kClientRedos);
    return Status::OK();
  });
}

Status Client::RunUndo(const std::map<TxnId, Txn>& losers) {
  for (const auto& [txn_id, txn] : losers) {
    Txn* t = &(txns_[txn_id] = txn);
    FINELOG_RETURN_IF_ERROR(RollbackTo(txn_id, t, kNullLsn));
    LogRecord end = LogRecord::Control(LogRecordType::kTxnEnd, txn_id, t->last_lsn);
    FINELOG_RETURN_IF_ERROR(AppendLog(end).status());
    txns_.erase(txn_id);
    metrics_->Add(Counter::kClientLoserRollbacks);
  }
  return log_->Force();
}

Status Client::Restart() {
  SimMutexLock lock(mu_);
  metrics_->Add(Counter::kClientRestarts);
  // New session epoch: replies and callbacks addressed to the pre-crash
  // incarnation are fenced instead of being mistaken for fresh traffic.
  if (rpc_ != nullptr) rpc_->BumpEpoch(id_);

  // Phase 1: analysis.
  FINELOG_ASSIGN_OR_RETURN(AnalysisResult analysis, RunAnalysis());
  crashed_ = false;

  // Phase 2: re-install exclusive locks (3.3). In a complex crash the GLM
  // was lost with the server; fall back to locks derived from our own log,
  // restricted to pages the reconstructed DCT still lists for us.
  auto glm_locks = server_->Call(id_, wire::RecGetMyXLocks{});
  if (!glm_locks.ok()) return glm_locks.status();
  auto dct = server_->Call(id_, wire::RecGetMyDct{});
  if (!dct.ok()) return dct.status();
  bool dct_authoritative = dct.value().authoritative;
  std::map<PageId, Psn> dct_psn;
  for (const DctEntry& e : dct.value().entries) {
    dct_psn[e.page] = e.psn;
  }

  std::set<ObjectId> x_objects;
  std::set<PageId> x_pages;
  for (const auto& [oid, mode] : glm_locks.value().object_locks) {
    (void)mode;
    x_objects.insert(oid);
  }
  for (const auto& [pid, mode] : glm_locks.value().page_locks) {
    (void)mode;
    x_pages.insert(pid);
  }
  // Complex crash: collect the merged CallBack_P lists for our dirty pages.
  // They tell us which of our objects were handed over to other clients
  // before the crash (our records older than the responding ship must not
  // be replayed, and we must not re-claim those exclusive locks).
  std::map<ObjectId, Psn> callback_lists;
  if (!dct_authoritative) {
    for (const auto& [pid, redo] : analysis.dpt) {
      (void)redo;
      auto list = server_->Call(id_, wire::RecGetCallbackList{pid});
      if (!list.ok()) {
        if (list.status().IsRecoveringPage()) {
          // Lazy post-restart repair of this page degraded mid-flight
          // (DESIGN.md section 18): reset and let the caller retry once the
          // server's sweep has made progress.
          FINELOG_RETURN_IF_ERROR(Crash());
          metrics_->Add(Counter::kClientRestartDeferrals);
          return Status::WouldBlock("restart waits for lazy page repair");
        }
        return list.status();
      }
      for (const CallbackListEntry& e : list.value()) {
        Psn& p = callback_lists[e.object];
        p = std::max(p, e.psn);
      }
    }
  }

  // Log-derived locks are a complex-crash fallback only: when the GLM
  // survived (client-crash case), its answer is complete, and re-claiming a
  // lock that was called back before the crash would wrongly shadow the
  // current holder.
  std::vector<ObjectId> derived_objects;
  std::vector<PageId> derived_pages;
  if (!dct_authoritative) {
    for (const ObjectId& oid : analysis.x_objects) {
      // Skip objects whose lock we demonstrably gave up before the crash
      // (a later callback ship supersedes all our records for them).
      auto cit = callback_lists.find(oid);
      if (cit == callback_lists.end()) {
        cit = callback_lists.find(ObjectId{oid.page, kInvalidSlotId});
      }
      auto mit = analysis.max_psn.find(oid);
      if (cit != callback_lists.end() &&
          (mit == analysis.max_psn.end() || mit->second < cit->second)) {
        continue;
      }
      if (x_objects.insert(oid).second) {
        derived_objects.push_back(oid);
      }
    }
    for (PageId pid : analysis.x_pages) {
      auto cit = callback_lists.find(ObjectId{pid, kInvalidSlotId});
      Psn page_max;
      for (const auto& [moid, mp] : analysis.max_psn) {
        if (moid.page == pid) page_max = std::max(page_max, mp);
      }
      if (cit != callback_lists.end() && page_max < cit->second) {
        continue;
      }
      if (x_pages.insert(pid).second) {
        derived_pages.push_back(pid);
      }
    }
  }
  if (!derived_objects.empty() || !derived_pages.empty()) {
    auto accepted = server_->Call(
        id_, wire::RecInstallLocks{derived_objects, derived_pages});
    if (!accepted.ok()) return accepted.status();
    // Only accepted claims survive; rejected ones had been called back or
    // downgraded before the crash.
    std::set<ObjectId> rejected_objects(derived_objects.begin(),
                                        derived_objects.end());
    for (const auto& [oid, mode] : accepted.value().object_locks) {
      (void)mode;
      rejected_objects.erase(oid);
    }
    std::set<PageId> rejected_pages(derived_pages.begin(), derived_pages.end());
    for (const auto& [pid, mode] : accepted.value().page_locks) {
      (void)mode;
      rejected_pages.erase(pid);
    }
    for (const ObjectId& oid : rejected_objects) x_objects.erase(oid);
    for (PageId pid : rejected_pages) x_pages.erase(pid);
  }
  for (const ObjectId& oid : x_objects) {
    llm_.AddObjectLock(kInvalidTxnId, oid, LockMode::kExclusive);
  }
  for (PageId pid : x_pages) {
    llm_.AddPageLock(kInvalidTxnId, pid, LockMode::kExclusive);
  }
  llm_.OnTxnEnd(kInvalidTxnId);  // Re-installed locks are cached, not in use.

  // Phase 3: conditional redo; Phase 4: undo losers.
  dpt_ = analysis.dpt;
  Status redo = RunRedo(analysis, dct_psn, dct_authoritative, callback_lists);
  if (redo.IsCrashed() || redo.IsRecoveringPage()) {
    // An ordering dependency on a client that has not restarted yet, or a
    // lazy post-restart page repair that degraded mid-flight (DESIGN.md
    // section 18): reset to the crashed state and let the caller retry.
    FINELOG_RETURN_IF_ERROR(Crash());
    metrics_->Add(Counter::kClientRestartDeferrals);
    return Status::WouldBlock("restart waits for another crashed client");
  }
  FINELOG_RETURN_IF_ERROR(redo);
  FINELOG_RETURN_IF_ERROR(RunUndo(analysis.losers));

  // Complex crash: the server lost its merged copies along with us, so the
  // redone state must flow back immediately -- otherwise other clients read
  // stale server copies of objects we no longer hold locks on.
  if (!dct_authoritative) {
    Status ship = ShipAllDirtyPages();
    if (ship.IsRecoveringPage()) {
      FINELOG_RETURN_IF_ERROR(Crash());
      metrics_->Add(Counter::kClientRestartDeferrals);
      return Status::WouldBlock("restart waits for lazy page repair");
    }
    FINELOG_RETURN_IF_ERROR(ship);
  }

  // Fresh checkpoint so the next crash starts from here.
  FINELOG_RETURN_IF_ERROR(TakeCheckpoint());
  return server_->Call(id_, wire::RecComplete{});
}

// ---------------------------------------------------------------------------
// Server-restart participation (Section 3.4)
// ---------------------------------------------------------------------------

Result<ClientRecoveryState> Client::HandleRecGetState() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  // A new server restart generation begins: any replay session left over
  // from an earlier (interrupted) restart is stale -- its base image and
  // cursor refer to the previous generation's merged state.
  recovery_sessions_.clear();
  ClientRecoveryState state;
  for (const auto& [pid, redo] : dpt_) {
    state.dpt.push_back(DptEntry{pid, redo});
  }
  state.cached_pages = cache_->PageIds();
  auto snap = llm_.GetSnapshot();
  state.object_locks = std::move(snap.objects);
  state.page_locks = std::move(snap.pages);
  // The server's token table died with it.
  tokens_held_.clear();
  return state;
}

Result<ShippedPage> Client::HandleRecFetchCachedPage(
    PageId pid, const std::vector<CallbackListEntry>& suppress) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::NotFound("crashed: cache is empty");
  BufferPool::Frame* frame = cache_->Peek(pid);
  if (frame == nullptr) {
    return Status::NotFound("page not cached");
  }
  FINELOG_RETURN_IF_ERROR(log_->Force());  // WAL before the copy leaves.
  ShippedPage shipped = BuildShip(pid, *frame);
  // The server lost every merge since the last flush of this page: overlay
  // everything we still hold authority over (modified since the flush),
  // not just the since-last-ship delta. A slot is excluded when the merged
  // CallBack_P list proves a successor updated it after taking it from us
  // *and* we hold no current lock on it -- a hand-off can happen without a
  // callback ever reaching us (our lock claim rejected during an earlier
  // restart: the "ghost writer" case), leaving a stale unflushed claim.
  // A currently-held lock always wins: the callback protocol keeps locked
  // objects fresh, so any list entry about them is from an older epoch.
  shipped.modified_slots.clear();
  auto uit = unflushed_slots_.find(pid);
  if (uit != unflushed_slots_.end()) {
    for (SlotId slot : uit->second) {
      bool superseded = false;
      if (!llm_.CoversObject(ObjectId{pid, slot}, LockMode::kShared)) {
        for (const CallbackListEntry& e : suppress) {
          if (e.object.slot == slot) superseded = true;
        }
      }
      if (!superseded) shipped.modified_slots.push_back(slot);
    }
  }
  shipped.structural = false;  // Slot overlay covers creates/deletes.
  return shipped;
}

Result<std::vector<CallbackListEntry>> Client::HandleRecScanCallbacks(
    PageId pid, ClientId responder) {
  SimMutexLock lock(mu_);
  // Deliberately answered even while this client is crashed: the scan only
  // touches the durable log file, never volatile state.
  // Callback records this client wrote naming `responder` for objects on
  // `pid`; only the most recent PSN per object matters (Section 3.4).
  std::map<ObjectId, Psn> latest;
  // A hand-off marker suppresses the responder's replay only once this
  // client durably continued the object's history (an Update/CLR after the
  // Callback record). A callback at the durable tail with its follow-up
  // update lost (torn force, abort between the two appends) must not
  // suppress: the responder's log is then the only durable source of the
  // object's committed value.
  std::map<ObjectId, Psn> pending;
  // Read the page's records over the whole retained log: hand-off records
  // older than the current reclaim point can still order another client's
  // replay (the paper bounds this scan by the DPT RedoLSN, an optimization
  // that relies on flush coverage the post-crash DCT reconstruction cannot
  // always reproduce). ScanPage's per-page index keeps this to the page's
  // own frames.
  Status st = log_->ScanPage(pid, log_->begin_lsn(), [&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kCallback &&
        rec.cb_responder == responder) {
      // Whole-page hand-off entries (sentinel slot) never go into the
      // suppression list: page-granularity ordering is enforced by the
      // linear per-page PSN history (the server adopts only newer page
      // images) plus the parallel-recovery handshake these records drive
      // in the *requester's* replay.
      if (rec.cb_object.slot == kInvalidSlotId) {
        return Status::OK();
      }
      pending[rec.cb_object] = rec.cb_psn;
      return Status::OK();
    }
    if (rec.type == LogRecordType::kUpdate ||
        rec.type == LogRecordType::kClr) {
      auto pit = pending.find(ObjectId{rec.page, rec.slot});
      if (pit != pending.end()) {
        latest[pit->first] = pit->second;
        pending.erase(pit);
      }
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  std::vector<CallbackListEntry> out;
  out.reserve(latest.size());
  for (const auto& [oid, psn] : latest) {
    out.push_back(CallbackListEntry{oid, psn});
  }
  return out;
}

FINELOG_REPLAY_PATH("server-crash replay of this client's own log records "
                    "for one page (Section 3.4)")
Status Client::HandleRecRecoverPage(
    PageId pid, const std::vector<CallbackListEntry>& callback_list,
    const std::string& base_image, Psn base_psn, Psn psn_limit) {
  SimMutexLock lock(mu_);
  // Deliberately serviceable while this client is "crashed": the replay
  // reads only the durable log and the supplied base -- no volatile state.
  // This lets another recovering client's ordered fetch obtain our
  // contribution without waiting for our full restart (Section 3.4's
  // partial recovery, applied across simultaneous failures).

  auto sit = recovery_sessions_.find(pid);
  if (sit == recovery_sessions_.end()) {
    RecoverySession session;
    session.page = Page(config_.page_size);
    session.page.raw() = base_image;
    // Install the DCT PSN (Property 1); with no reconstructed PSN the base
    // image's own PSN (the disk state) is the correct conservative base.
    if (base_psn != kNullPsn) session.page.set_psn(base_psn);
    for (const CallbackListEntry& e : callback_list) {
      session.callback_list[e.object] = e.psn;
    }
    // Collect this client's records for the page, in LSN order, from the
    // DPT RedoLSN (Section 3.4: "the starting point of the log scan is
    // determined from the RedoLSN value present in the DPT entry for P").
    auto dit = dpt_.find(pid);
    Lsn start = dit != dpt_.end() ? dit->second : log_->reclaim_lsn();
    Status st = log_->ScanPage(pid, start, [&](const LogRecord& rec) {
      session.records.push_back(rec);
      return Status::OK();
    });
    if (!st.ok()) return st;
    sit = recovery_sessions_.emplace(pid, std::move(session)).first;
    metrics_->Add(Counter::kClientRecoverySessions);
  }
  RecoverySession& session = sit->second;
  if (session.complete) return Status::OK();

  while (session.cursor < session.records.size()) {
    const LogRecord& rec = session.records[session.cursor];
    Psn rec_psn = rec.type == LogRecordType::kCallback ? rec.cb_psn : rec.psn;
    if (psn_limit != kNullPsn && rec_psn >= psn_limit) break;

    if (rec.type == LogRecordType::kCallback) {
      ObjectId oid = rec.cb_object;
      if (session.callback_list.count(oid) > 0) {
        // Rule 3, first half: ordering for this object is already fixed by
        // the merged CallBack_P list; skip.
        ++session.cursor;
        continue;
      }
      // Rule 3, second half: we took this object (or whole page, for a
      // page-granularity hand-off) over from another client; its updates
      // must reach us (through the server) before ours replay on top --
      // the parallel-recovery handshake.
      auto fetched = server_->Call(
          id_, wire::RecOrderedFetch{pid, rec.cb_responder, rec.cb_psn});
      if (!fetched.ok()) return fetched.status();
      Page incoming(config_.page_size);
      incoming.raw() = fetched.value().page_image;
      Psn keep = session.page.psn();
      if (oid.slot != kInvalidSlotId) {
        // Overlay just the handed-over object; the session PSN is left
        // alone (it tracks this client's own record sequence).
        std::optional<std::string> image;
        if (incoming.SlotExists(oid.slot)) {
          auto data = incoming.ReadObject(oid.slot);
          if (!data.ok()) return data.status();
          image = std::move(data).value();
        }
        FINELOG_RETURN_IF_ERROR(
            InstallObject(&session.page, oid.slot, image, Psn{0}));
      } else {
        // Whole-page hand-off: the fetched copy supersedes ours entirely.
        session.page.raw() = incoming.raw();
      }
      session.page.set_psn(keep);
      metrics_->Add(Counter::kClientOrderedFetches);
      ++session.cursor;
      continue;
    }

    // Update / CLR record.
    ObjectId oid{rec.page, rec.slot};
    bool apply;
    auto lit = session.callback_list.find(oid);
    if (lit == session.callback_list.end()) {
      // A whole-page hand-off entry covers every object on the page.
      lit = session.callback_list.find(ObjectId{rec.page, kInvalidSlotId});
    }
    if (lit != session.callback_list.end()) {
      // Rule 1: objects that were called back from us replay only from the
      // PSN of our responding ship onward.
      apply = rec.psn >= lit->second;
    } else {
      // Rule 2 with Property 1's PSN condition against the installed base.
      apply = rec.psn >= session.page.psn();
    }
    if (apply) {
      FINELOG_RETURN_IF_ERROR(ApplyRedo(&session.page, rec));
      session.page.set_psn(std::max(session.page.psn(), rec.psn.Next()));
      session.modified.insert(rec.slot);
      metrics_->Add(Counter::kClientRecoveryRedos);
    }
    ++session.cursor;
  }

  // Ship the current state back so the server can merge it (slot overlay:
  // structural ops were serialized by page locks originally, so per-slot
  // merging is consistent even for creates and deletes).
  ShippedPage shipped;
  shipped.page = pid;
  shipped.image = session.page.raw();
  shipped.modified_slots.assign(session.modified.begin(),
                                session.modified.end());
  shipped.structural = false;
  Psn ship_psn = session.page.psn();
  FINELOG_RETURN_IF_ERROR(
      server_->Call(id_, wire::ShipPage{std::span(&shipped, 1)}));

  if (psn_limit == kNullPsn) {
    // The recovered state is now at the server; our RedoLSN can advance
    // once the server flushes (normal flush-notification path).
    ship_info_[pid] = ShipInfo{ship_psn, log_->end_lsn()};
    recovery_sessions_.erase(pid);
  }
  return Status::OK();
}

}  // namespace finelog
