#include "client/client.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "common/check.h"
#include "buffer/pin_guard.h"
#include "server/page_merge.h"
#include "util/fault.h"

namespace finelog {

Result<std::unique_ptr<Client>> Client::Create(ClientId id,
                                               const SystemConfig& config,
                                               ServerEndpoint* server,
                                               Channel* channel, Rpc* rpc,
                                               Metrics* metrics) {
  auto client = std::unique_ptr<Client>(
      new Client(id, config, server, channel, rpc, metrics));
  FINELOG_ASSIGN_OR_RETURN(
      client->log_,
      LogManager::Open(config.dir + "/client" + ToString(id) + ".log",
                       config.client_log_capacity, client->LogIo()));
  client->cache_ = std::make_unique<BufferPool>(config.client_cache_pages);
  return client;
}

size_t Client::active_txns() const {
  SimMutexLock lock(mu_);
  return txns_.size();
}

Result<Client::Txn*> Client::GetActiveTxn(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("no such active transaction");
  }
  return &it->second;
}

Result<TxnId> Client::Begin() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  // A new transaction is the clock edge that can close an expired
  // group-commit window (the simulation has no background flusher).
  if (GroupForceDue()) {
    FINELOG_RETURN_IF_ERROR(ForceLog());
  }
  // MakeTxnId packs the sequence into the low 32 bits; a wrap would alias
  // the owner field and mis-attribute log records to another client.
  FINELOG_CHECK(next_txn_seq_ <= 0xFFFFFFFFull,
                "per-client txn sequence exhausted (2^32 txns)");
  TxnId id = MakeTxnId(id_, next_txn_seq_++);
  txns_[id] = Txn{};
  metrics_->Add(Counter::kClientTxnBegins);
  return id;
}

// ---------------------------------------------------------------------------
// Locking
// ---------------------------------------------------------------------------

Status Client::InstallObjectLockReply(TxnId txn, ObjectId oid, LockMode mode,
                                      const ObjectLockReply& reply) {
  llm_.AddObjectLock(txn, oid, mode);
  for (const XCallbackInfo& info : reply.x_callbacks) {
    pending_callbacks_[info.object].push_back(info);
  }
  if (mode == LockMode::kExclusive) {
    // Authority for the object now rests here: our (just refreshed) copy is
    // the latest version, and restart pulls must overlay it even if we
    // never update it ourselves.
    unflushed_slots_[oid.page].insert(oid.slot);
  }

  // Re-resolve the frame at install time: in a batch, an earlier item may
  // have installed (or evicted) this page since the request was built.
  BufferPool::Frame* frame = cache_->Peek(oid.page);
  if (reply.page_image) {
    // We asked with no cached copy, so the reply carries the whole page.
    // Any frame present now was installed clean by an earlier batch item;
    // adopting the server copy again is safe.
    Page page(config_.page_size);
    page.raw() = *reply.page_image;
    auto put = cache_->Put(oid.page, std::move(page), EvictHandler());
    if (!put.ok()) return put.status();
  } else if (frame != nullptr) {
    // Install the fresh object value into the cached copy (Section 2).
    std::optional<std::string> image;
    if (reply.object_present && reply.object_image) {
      image = *reply.object_image;
    }
    FINELOG_RETURN_IF_ERROR(
        InstallObject(&frame->page, oid.slot, image, reply.server_psn));
  }

  // Adaptive escalation [3]: many exclusive object locks on one page ->
  // try to trade them for a page lock (best effort).
  if (mode == LockMode::kExclusive &&
      llm_.ExclusiveObjectCountOnPage(oid.page) > config_.escalation_threshold &&
      !llm_.CoversPage(oid.page, LockMode::kExclusive)) {
    Status st = AcquirePageLock(txn, oid.page, LockMode::kExclusive);
    if (st.ok()) metrics_->Add(Counter::kClientEscalations);
    // A WouldBlock here is fine: object locks still cover the access.
    if (!st.ok() && !st.IsWouldBlock() && !st.IsCrashed()) return st;
  }
  return Status::OK();
}

Status Client::AcquireObjectLocks(TxnId txn, std::span<const ObjectId> oids,
                                  LockMode mode) {
  if (config_.lock_granularity == LockGranularity::kPage) {
    // Page-locking baseline: every object access locks the whole page.
    for (ObjectId oid : oids) {
      FINELOG_RETURN_IF_ERROR(AcquirePageLock(txn, oid.page, mode));
    }
    return Status::OK();
  }
  // Collect the LLM misses in request order, deduplicated. A lone object
  // (every Read and Write) skips the set: a lock hit allocates nothing.
  std::vector<wire::LockObject::Item> misses;
  std::set<ObjectId> seen;
  for (ObjectId oid : oids) {
    if (oids.size() > 1 && !seen.insert(oid).second) continue;
    switch (llm_.TryAcquireObject(txn, oid, mode)) {
      case LocalLockManager::Acquire::kHit:
        metrics_->Add(Counter::kClientLockHits);
        continue;
      case LocalLockManager::Acquire::kLocalConflict:
        return Status::WouldBlock("local transaction holds conflicting lock");
      case LocalLockManager::Acquire::kMiss:
        break;
    }
    metrics_->Add(Counter::kClientLockMisses);
    BufferPool::Frame* frame = cache_->Peek(oid.page);
    misses.push_back(wire::LockObject::Item{
        oid, mode, frame != nullptr ? frame->page.psn() : kNullPsn});
  }
  const size_t limit = std::max<uint32_t>(1, config_.max_batch_items);
  for (size_t i = 0; i < misses.size(); i += limit) {
    size_t n = std::min(limit, misses.size() - i);
    auto outcomes = server_->Call(
        id_, wire::LockObject{std::span(misses).subspan(i, n)});
    if (!outcomes.ok()) return outcomes.status();
    if (n > 1) {
      metrics_->Add(Counter::kClientBatchLockRequests);
      metrics_->Add(Counter::kClientBatchLockItems, n);
    }
    for (size_t j = 0; j < n; ++j) {
      const ObjectLockOutcome& out = outcomes.value()[j];
      // Earlier grants in the chunk stay installed; the caller sees the
      // first failure, exactly as the sequential loop would report it.
      FINELOG_RETURN_IF_ERROR(out.status);
      FINELOG_RETURN_IF_ERROR(
          InstallObjectLockReply(txn, misses[i + j].oid, mode, out.reply));
    }
  }
  return Status::OK();
}

FINELOG_REPLAY_PATH("overlays our modified slots onto the server's page "
                    "image from the lock grant; those updates are already "
                    "in the private log")
Status Client::AcquirePageLock(TxnId txn, PageId pid, LockMode mode) {
  switch (llm_.TryAcquirePage(txn, pid, mode)) {
    case LocalLockManager::Acquire::kHit:
      metrics_->Add(Counter::kClientLockHits);
      return Status::OK();
    case LocalLockManager::Acquire::kLocalConflict:
      return Status::WouldBlock("local transaction holds conflicting lock");
    case LocalLockManager::Acquire::kMiss:
      break;
  }
  metrics_->Add(Counter::kClientLockMisses);
  BufferPool::Frame* frame = cache_->Peek(pid);
  Psn cached_psn = frame != nullptr ? frame->page.psn() : kNullPsn;
  auto reply = server_->Call(id_, wire::LockPage{pid, mode, cached_psn});
  if (!reply.ok()) return reply.status();

  llm_.AddPageLock(txn, pid, mode);
  for (const XCallbackInfo& info : reply.value().x_callbacks) {
    pending_callbacks_[info.object].push_back(info);
  }

  if (reply.value().page_image) {
    if (frame != nullptr && frame->dirty) {
      // Merge: adopt the server's copy, then re-apply our unshipped
      // modifications on top (they are strictly newer for those slots --
      // our locks protected them).
      Page incoming(config_.page_size);
      incoming.raw() = *reply.value().page_image;
      Psn merged = Psn::Merge(frame->page.psn(), incoming.psn());
      FINELOG_RETURN_IF_ERROR(
          OverlaySlots(&incoming, frame->page, frame->modified_slots));
      incoming.set_psn(merged);
      frame->page = std::move(incoming);
    } else {
      Page page(config_.page_size);
      page.raw() = *reply.value().page_image;
      auto put = cache_->Put(pid, std::move(page), EvictHandler());
      if (!put.ok()) return put.status();
      frame = put.value();
    }
  }
  if (mode == LockMode::kExclusive) {
    // A page-level exclusive grant transfers update authority for the whole
    // page: every conflicting holder shipped its copy and relinquished its
    // unflushed claims, so this client's copy is now the newest version of
    // every object. Claim them all, or a server restart that pulls our
    // cached copy would resurrect the disk version of slots we never
    // modified ourselves.
    if (frame == nullptr) frame = cache_->Peek(pid);
    if (frame != nullptr) {
      std::set<SlotId>& unflushed = unflushed_slots_[pid];
      for (SlotId slot : frame->page.LiveSlots()) {
        unflushed.insert(slot);
      }
    }
  }
  return Status::OK();
}

Status Client::AppendTxnLog(Txn* t, const LogRecord& rec) {
  FINELOG_ASSIGN_OR_RETURN(Lsn lsn, AppendLog(rec));
  if (t->first_lsn == kNullLsn) t->first_lsn = lsn;
  t->last_lsn = lsn;
  return Status::OK();
}

Status Client::LogPendingCallback(TxnId txn, Txn* t, ObjectId oid) {
  auto pit = pending_callbacks_.find(oid);
  if (pit == pending_callbacks_.end()) return Status::OK();
  std::vector<XCallbackInfo> infos = std::move(pit->second);
  pending_callbacks_.erase(pit);
  for (const XCallbackInfo& info : infos) {
    FINELOG_RETURN_IF_ERROR(AppendTxnLog(
        t, LogRecord::Callback(txn, t->last_lsn, info.object, info.responder,
                               info.psn)));
    metrics_->Add(Counter::kClientCallbackRecords);
  }
  return Status::OK();
}

Status Client::LogAndApply(TxnId txn, Txn* t, BufferPool::Frame* frame,
                           LogRecord rec) {
  EnsureDptEntry(rec.page);
  // The paper logs a callback record before the first update of the
  // called-back object (or of any object, for a whole-page hand-off).
  FINELOG_RETURN_IF_ERROR(
      LogPendingCallback(txn, t, ObjectId{rec.page, rec.slot}));
  FINELOG_RETURN_IF_ERROR(
      LogPendingCallback(txn, t, ObjectId{rec.page, kInvalidSlotId}));
  rec.prev_lsn = t->last_lsn;
  FINELOG_RETURN_IF_ERROR(AppendTxnLog(t, rec));
  t->dirtied_pages.insert(rec.page);

  FINELOG_RETURN_IF_ERROR(ApplyRedo(&frame->page, rec));
  frame->page.BumpPsn();
  TrackModification(frame, rec.page, rec.slot);
  if (IsStructural(rec.op)) frame->structurally_modified = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

ShippedPage Client::BuildShip(PageId pid, BufferPool::Frame& frame) {
  ShippedPage s;
  s.page = pid;
  s.image = frame.page.raw();
  s.modified_slots.assign(frame.modified_slots.begin(),
                          frame.modified_slots.end());
  s.structural = frame.structurally_modified;
  frame.modified_slots.clear();
  frame.structurally_modified = false;
  frame.dirty = false;
  ship_info_[pid] = ShipInfo{frame.page.psn(), log_->end_lsn()};
  frame.ship_log_lsn = log_->end_lsn();
  return s;
}

BufferPool::EvictHandler Client::EvictHandler() {
  return [this](PageId pid, BufferPool::Frame& frame) -> Status {
    // Recursive: the pool only calls back while the owning method holds the
    // capability; the analysis can't see through the std::function.
    SimMutexLock lock(mu_);
    if (!frame.dirty) return Status::OK();
    // WAL: log records covering the updates must be durable before the page
    // leaves the client (Section 2).
    FINELOG_RETURN_IF_ERROR(ForceLog());
    metrics_->Add(Counter::kClientWalForcesOnReplace);
    return ShipPages(std::span(&pid, 1));
  };
}

Status Client::ShipPages(std::span<const PageId> pids) {
  const size_t limit = std::max<uint32_t>(1, config_.max_batch_items);
  for (size_t i = 0; i < pids.size(); i += limit) {
    size_t n = std::min(limit, pids.size() - i);
    std::vector<ShippedPage> chunk;
    chunk.reserve(n);
    for (PageId pid : pids.subspan(i, n)) {
      chunk.push_back(BuildShip(pid, *cache_->Peek(pid)));
      metrics_->Add(Counter::kClientPagesShipped);
    }
    FINELOG_RETURN_IF_ERROR(server_->Call(id_, wire::ShipPage{chunk}));
    if (n > 1) {
      metrics_->Add(Counter::kClientBatchShipRequests);
      metrics_->Add(Counter::kClientBatchShipItems, n);
    }
  }
  return Status::OK();
}

Result<BufferPool::Frame*> Client::GetCachedPage(PageId pid) {
  if (BufferPool::Frame* f = cache_->Get(pid)) return f;
  FINELOG_RETURN_IF_ERROR(FetchPages(std::span(&pid, 1)));
  return cache_->Peek(pid);
}

// ---------------------------------------------------------------------------
// Log management
// ---------------------------------------------------------------------------

void Client::TrackModification(BufferPool::Frame* frame, PageId pid,
                               SlotId slot) {
  frame->dirty = true;
  frame->modified_slots.insert(slot);
  unflushed_slots_[pid].insert(slot);
}

void Client::EnsureDptEntry(PageId pid) {
  if (dpt_.count(pid) == 0) {
    // Conservative RedoLSN: the current end of the log (Section 3.2).
    dpt_[pid] = log_->end_lsn();
  }
}

void Client::UpdateReclaimLsn() {
  Lsn reclaim = log_->end_lsn();
  for (const auto& [pid, redo] : dpt_) {
    (void)pid;
    reclaim = std::min(reclaim, redo);
  }
  for (const auto& [id, t] : txns_) {
    (void)id;
    if (t.first_lsn != kNullLsn) reclaim = std::min(reclaim, t.first_lsn);
  }
  if (log_->checkpoint_lsn() != kNullLsn) {
    reclaim = std::min(reclaim, log_->checkpoint_lsn());
  }
  log_->SetReclaimLsn(reclaim);
}

Result<Lsn> Client::AppendLog(const LogRecord& rec) {
  auto lsn = log_->Append(rec);
  if (lsn.ok()) return lsn;
  if (!lsn.status().IsLogFull()) return lsn;
  metrics_->Add(Counter::kClientLogFullEvents);
  FINELOG_RETURN_IF_ERROR(TryFreeLogSpace());
  return log_->Append(rec);
}

Status Client::ForceLog() {
  FINELOG_RETURN_IF_ERROR(log_->Force());
  channel_->clock()->Advance(channel_->costs().log_force_us);
  if (pending_commits_ > 0) {
    metrics_->Add(Counter::kClientGroupCommits);
    metrics_->Add(Counter::kClientGroupCommitTxns, pending_commits_);
    metrics_->SetMax(Counter::kClientGroupCommitMaxBatch, pending_commits_);
    pending_commits_ = 0;
  }
  metrics_->SetMax(Counter::kClientLogPendingHighWater,
                   log_->pending_high_water());
  return Status::OK();
}

bool Client::GroupForceDue() const {
  if (pending_commits_ == 0) return false;
  if (pending_commits_ >=
      std::max<uint32_t>(1, config_.group_commit_max_txns)) {
    return true;
  }
  return channel_->clock()->now_us() - oldest_pending_commit_us_ >=
         config_.group_commit_window;
}

Status Client::FlushCommitGroup() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  if (pending_commits_ == 0) return Status::OK();
  return ForceLog();
}

Status Client::TryFreeLogSpace() {
  // Section 3.6: replace the page with the minimum RedoLSN from the cache
  // (shipping it) and ask the server to force it; the flush notification
  // advances our DPT RedoLSN, letting the log tail move forward. A fresh
  // checkpoint first keeps the analysis anchor from pinning the tail.
  FINELOG_RETURN_IF_ERROR(TakeCheckpoint());
  for (int attempts = 0; attempts < 64; ++attempts) {
    UpdateReclaimLsn();
    if (log_->capacity() == 0 ||
        log_->used_bytes() < log_->capacity() * 3 / 4) {
      return Status::OK();
    }
    // Find the DPT entry with the minimum RedoLSN.
    PageId victim = kInvalidPageId;
    Lsn min_redo = kMaxLsn;
    for (const auto& [pid, redo] : dpt_) {
      if (redo < min_redo) {
        min_redo = redo;
        victim = pid;
      }
    }
    if (victim == kInvalidPageId) {
      return Status::LogFull("log pinned by active transactions");
    }
    BufferPool::Frame* frame = cache_->Peek(victim);
    if (frame != nullptr && frame->dirty) {
      if (cache_->IsPinned(victim)) {
        // The page is in use by the very operation that ran out of log
        // space: ship a copy without evicting it.
        FINELOG_RETURN_IF_ERROR(ForceLog());
        FINELOG_RETURN_IF_ERROR(ShipPages(std::span(&victim, 1)));
      } else {
        FINELOG_RETURN_IF_ERROR(cache_->Evict(victim, EvictHandler()));
      }
    }
    Lsn before = dpt_.count(victim) ? dpt_[victim] : kNullLsn;
    FINELOG_RETURN_IF_ERROR(server_->Call(id_, wire::ForcePage{victim}));
    metrics_->Add(Counter::kClientLogSpaceForces);
    Lsn after = dpt_.count(victim) ? dpt_[victim] : kMaxLsn;
    if (after <= before && dpt_.count(victim)) {
      // No progress (e.g. the entry is pinned by an active transaction's
      // unshipped update newer than the flush): give up.
      return Status::LogFull("log space protocol made no progress");
    }
  }
  return Status::LogFull("log space protocol exhausted attempts");
}

Status Client::ShipAllDirtyPages() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  std::vector<PageId> dirty;
  for (PageId pid : cache_->PageIds()) {
    BufferPool::Frame* frame = cache_->Peek(pid);
    if (frame != nullptr && frame->dirty) dirty.push_back(pid);
  }
  if (dirty.empty()) return Status::OK();
  // WAL (Section 2): one force covers every page shipped after it.
  FINELOG_RETURN_IF_ERROR(ForceLog());
  metrics_->Add(Counter::kClientWalForcesOnReplace);
  // During an instant restart (DESIGN.md section 18) a ship can come back
  // degraded because a page's lazy repair was interrupted; skip that chunk,
  // ship the rest, and surface the degradation at the end so one recovering
  // page never blocks the whole flush.
  Status deferred = Status::OK();
  const size_t limit = std::max<uint32_t>(1, config_.max_batch_items);
  for (size_t i = 0; i < dirty.size(); i += limit) {
    // One ship request per chunk. ShipPages leaves the frames clean, so
    // these evictions just drop them before the next chunk ships.
    auto chunk = std::span(dirty).subspan(i, std::min(limit, dirty.size() - i));
    Status st = ShipPages(chunk);
    if (st.IsRecoveringPage()) {
      deferred = st;
      continue;
    }
    FINELOG_RETURN_IF_ERROR(st);
    for (PageId pid : chunk) {
      FINELOG_RETURN_IF_ERROR(cache_->Evict(pid, EvictHandler()));
    }
  }
  return deferred;
}

Status Client::FetchPages(std::span<const PageId> pids) {
  std::vector<PageId> missing;
  std::set<PageId> seen;
  for (PageId pid : pids) {
    if (!seen.insert(pid).second) continue;
    if (cache_->Peek(pid) != nullptr) continue;
    missing.push_back(pid);
  }
  const size_t limit = std::max<uint32_t>(1, config_.max_batch_items);
  for (size_t i = 0; i < missing.size(); i += limit) {
    size_t n = std::min(limit, missing.size() - i);
    auto replies = server_->Call(
        id_, wire::FetchPage{std::span(missing).subspan(i, n)});
    if (!replies.ok()) return replies.status();
    if (n > 1) {
      metrics_->Add(Counter::kClientBatchFetchRequests);
      metrics_->Add(Counter::kClientBatchFetchItems, n);
    }
    for (size_t j = 0; j < n; ++j) {
      Page page(config_.page_size);
      // The DCT PSN sent along is ignored during normal processing
      // (Section 3.2).
      page.raw() = replies.value()[j].page_image;
      metrics_->Add(Counter::kClientPageFetches);
      auto put = cache_->Put(missing[i + j], std::move(page), EvictHandler());
      if (!put.ok()) return put.status();
    }
  }
  return Status::OK();
}

Status Client::ReleaseIdleLocks() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_RETURN_IF_ERROR(ShipAllDirtyPages());
  auto snap = llm_.GetSnapshot();
  std::vector<ObjectId> objects;
  std::vector<PageId> pages;
  for (const auto& [oid, mode] : snap.objects) {
    (void)mode;
    if (llm_.CanReleaseObject(oid)) {
      objects.push_back(oid);
    }
  }
  for (const auto& [pid, mode] : snap.pages) {
    (void)mode;
    if (llm_.CanDeescalatePage(pid)) {
      pages.push_back(pid);
    }
  }
  FINELOG_RETURN_IF_ERROR(
      server_->Call(id_, wire::ReleaseLocks{objects, pages}));
  for (const ObjectId& oid : objects) {
    llm_.ReleaseObject(oid);
    pending_callbacks_.erase(oid);
    auto uit = unflushed_slots_.find(oid.page);
    if (uit != unflushed_slots_.end()) {
      uit->second.erase(oid.slot);
      if (uit->second.empty()) unflushed_slots_.erase(uit);
    }
  }
  for (PageId pid : pages) {
    llm_.ReleasePage(pid);
    unflushed_slots_.erase(pid);
  }
  // Drop cached pages no longer covered by any lock.
  for (PageId pid : cache_->PageIds()) {
    if (!llm_.HasAnyLockOnPage(pid)) {
      cache_->Drop(pid);
    }
  }
  metrics_->Add(Counter::kClientIdleReleases);
  return Status::OK();
}

Status Client::TakeCheckpoint() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  std::vector<TxnCheckpointInfo> active;
  for (const auto& [id, t] : txns_) {
    active.push_back(TxnCheckpointInfo{id, t.first_lsn, t.last_lsn});
  }
  std::vector<DptEntry> dpt;
  dpt.reserve(dpt_.size());
  for (const auto& [pid, redo] : dpt_) {
    dpt.push_back(DptEntry{pid, redo});
  }
  LogRecord rec = LogRecord::ClientCheckpoint(std::move(active), std::move(dpt));
  // Checkpoints bypass both the Section 3.6 retry path and the capacity
  // check: a successful checkpoint is what lets the log tail advance.
  auto lsn = log_->Append(rec, /*enforce_capacity=*/false);
  if (!lsn.ok()) return lsn.status();
  FINELOG_RETURN_IF_ERROR(ForceLog());
  FINELOG_RETURN_IF_ERROR(log_->SetCheckpointLsn(lsn.value()));
  UpdateReclaimLsn();
  metrics_->Add(Counter::kClientCheckpoints);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Data operations
// ---------------------------------------------------------------------------

Status Client::EnsureToken(PageId pid) {
  if (config_.same_page_policy != SamePageUpdatePolicy::kUpdateToken) {
    return Status::OK();
  }
  if (tokens_held_.count(pid) > 0) return Status::OK();
  auto reply = server_->Call(id_, wire::AcquireToken{pid});
  if (!reply.ok()) return reply.status();
  tokens_held_.insert(pid);
  if (reply.value().page_image) {
    // The page travels with the token (Section 3.1). Our own committed
    // values are already in the server's copy (we shipped when the token
    // was recalled from us), so plain adoption is safe.
    Page page(config_.page_size);
    page.raw() = *reply.value().page_image;
    BufferPool::Frame* frame = cache_->Peek(pid);
    if (frame != nullptr && frame->dirty) {
      // Unshipped modifications exist only while we held the token; keep
      // our newer copy.
      return Status::OK();
    }
    auto put = cache_->Put(pid, std::move(page), EvictHandler());
    if (!put.ok()) return put.status();
  }
  return Status::OK();
}

Status Client::MaybeHeartbeat() {
  if (!config_.liveness_enabled()) return Status::OK();
  const uint64_t now = channel_->clock()->now_us();
  if (last_heartbeat_us_ == 0 ||
      now - last_heartbeat_us_ >= config_.heartbeat_interval_us) {
    last_heartbeat_us_ = now;
    bool suppressed =
        config_.fault_injector != nullptr &&
        config_.fault_injector->Evaluate("liveness.client.heartbeat", 0, false)
                .action != FaultAction::kNone;
    if (!suppressed) {
      metrics_->Add(Counter::kLivenessHeartbeatsSent);
      Status st = server_->Call(id_, wire::Heartbeat{});
      if (st.ok()) {
        lease_valid_until_ = now + config_.lease_duration_us;
      } else if (st.IsZombieFenced()) {
        return st;
      } else if (st.IsFailoverInProgress()) {
        // Mastership gap: no node is serving, so no node can give our locks
        // away either -- the time-based self-fence below must not fire off a
        // renewal we were never allowed to send. Re-arm the heartbeat so the
        // next call retries it immediately, and surface the WouldBlock so
        // the operation itself retries. If the takeover actually declared us
        // dead, the first successful contact returns ZombieFenced.
        last_heartbeat_us_ = 0;
        return st;
      }
      // Any other failure (e.g. a dropped leg under partition) is non-fatal:
      // the next call retries, and the self-fence below takes over once the
      // lease horizon passes.
    }
  }
  if (lease_valid_until_ != 0 && now >= lease_valid_until_) {
    // Self-fencing: the single simulated clock means our deadline can only
    // be earlier than (or equal to) the server's view, so by now the server
    // may have declared us presumed dead and given our shared locks away.
    // Refuse to operate on cached state; crash recovery re-registers us.
    return Status::WouldBlock(WouldBlockReason::kZombieFenced,
                              "lease expired locally; crash recovery required");
  }
  return Status::OK();
}

Result<std::string> Client::Read(TxnId txn, ObjectId oid) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn));
  (void)t;
  FINELOG_RETURN_IF_ERROR(
      AcquireObjectLocks(txn, std::span(&oid, 1), LockMode::kShared));
  FINELOG_ASSIGN_OR_RETURN(BufferPool::Frame * frame, GetCachedPage(oid.page));
  metrics_->Add(Counter::kClientReads);
  return frame->page.ReadObject(oid.slot);
}

Status Client::Write(TxnId txn, ObjectId oid, Slice data) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn));
  FINELOG_RETURN_IF_ERROR(
      AcquireObjectLocks(txn, std::span(&oid, 1), LockMode::kExclusive));
  FINELOG_RETURN_IF_ERROR(EnsureToken(oid.page));
  FINELOG_ASSIGN_OR_RETURN(BufferPool::Frame * frame, GetCachedPage(oid.page));
  ScopedPin pin(cache_.get(), oid.page);
  Page& page = frame->page;
  auto old = page.ReadObject(oid.slot);
  if (!old.ok()) return old.status();
  if (old.value().size() != data.size()) {
    return Status::InvalidArgument(
        "Write() requires a same-sized value; use Resize()");
  }
  FINELOG_RETURN_IF_ERROR(LogAndApply(
      txn, t, frame,
      LogRecord::Update(txn, kNullLsn, oid.page, oid.slot,
                        UpdateOp::kOverwrite, page.psn(), data.ToString(),
                        std::move(old).value())));
  metrics_->Add(Counter::kClientWrites);
  return Status::OK();
}

Status Client::WriteBatch(
    TxnId txn, const std::vector<std::pair<ObjectId, std::string>>& writes) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn));
  (void)t;
  std::vector<ObjectId> oids;
  oids.reserve(writes.size());
  for (const auto& [oid, data] : writes) {
    (void)data;
    oids.push_back(oid);
  }
  FINELOG_RETURN_IF_ERROR(
      AcquireObjectLocks(txn, oids, LockMode::kExclusive));
  std::vector<PageId> pages;
  pages.reserve(oids.size());
  for (ObjectId oid : oids) pages.push_back(oid.page);
  FINELOG_RETURN_IF_ERROR(FetchPages(pages));
  // Locks and pages are warm now; the per-object writes run locally.
  for (const auto& [oid, data] : writes) {
    FINELOG_RETURN_IF_ERROR(Write(txn, oid, data));
  }
  return Status::OK();
}

Result<std::vector<std::string>> Client::ReadBatch(
    TxnId txn, const std::vector<ObjectId>& oids) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn));
  (void)t;
  FINELOG_RETURN_IF_ERROR(AcquireObjectLocks(txn, oids, LockMode::kShared));
  std::vector<PageId> pages;
  pages.reserve(oids.size());
  for (ObjectId oid : oids) pages.push_back(oid.page);
  FINELOG_RETURN_IF_ERROR(FetchPages(pages));
  std::vector<std::string> values;
  values.reserve(oids.size());
  for (ObjectId oid : oids) {
    FINELOG_ASSIGN_OR_RETURN(std::string value, Read(txn, oid));
    values.push_back(std::move(value));
  }
  return values;
}

Result<ObjectId> Client::Create(TxnId txn, PageId pid, Slice data) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn));
  FINELOG_RETURN_IF_ERROR(AcquirePageLock(txn, pid, LockMode::kExclusive));
  FINELOG_RETURN_IF_ERROR(EnsureToken(pid));
  FINELOG_ASSIGN_OR_RETURN(BufferPool::Frame * frame, GetCachedPage(pid));
  ScopedPin pin(cache_.get(), pid);
  Page& page = frame->page;
  // Footnote-3 reservation: create with headroom so later growth can stay
  // in place (and therefore mergeable).
  uint16_t capacity = static_cast<uint16_t>(
      std::min<size_t>(0xFFFF, data.size() * (1.0 + config_.resize_reserve)));
  SlotId slot = page.FreeSlot();
  if (!page.Fits(slot, capacity)) {
    return Status::FailedPrecondition("page full");
  }
  LogRecord rec = LogRecord::Update(txn, kNullLsn, pid, slot,
                                    UpdateOp::kCreate, page.psn(),
                                    data.ToString(), std::string());
  rec.capacity = capacity;
  FINELOG_RETURN_IF_ERROR(LogAndApply(txn, t, frame, std::move(rec)));
  metrics_->Add(Counter::kClientCreates);
  return ObjectId{pid, slot};
}

Status Client::Resize(TxnId txn, ObjectId oid, Slice data) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn));

  // Footnote-3 fast path: take the object lock first; if the new size fits
  // the slot's reserved capacity, the resize is in place and mergeable --
  // no page-level lock, no structural flag, full same-page concurrency.
  FINELOG_RETURN_IF_ERROR(
      AcquireObjectLocks(txn, std::span(&oid, 1), LockMode::kExclusive));
  FINELOG_RETURN_IF_ERROR(EnsureToken(oid.page));
  {
    FINELOG_ASSIGN_OR_RETURN(BufferPool::Frame * frame,
                             GetCachedPage(oid.page));
    ScopedPin pin(cache_.get(), oid.page);
    Page& page = frame->page;
    if (config_.lock_granularity == LockGranularity::kObject &&
        page.ResizeFitsInPlace(oid.slot, data.size())) {
      auto old = page.ReadObject(oid.slot);
      if (!old.ok()) return old.status();
      FINELOG_RETURN_IF_ERROR(LogAndApply(
          txn, t, frame,
          LogRecord::Update(txn, kNullLsn, oid.page, oid.slot,
                            UpdateOp::kResizeInPlace, page.psn(),
                            data.ToString(), std::move(old).value())));
      metrics_->Add(Counter::kClientResizesInPlace);
      return Status::OK();
    }
  }

  // Structural path: the object must be reallocated on the page.
  FINELOG_RETURN_IF_ERROR(AcquirePageLock(txn, oid.page, LockMode::kExclusive));
  FINELOG_ASSIGN_OR_RETURN(BufferPool::Frame * frame, GetCachedPage(oid.page));
  ScopedPin pin(cache_.get(), oid.page);
  Page& page = frame->page;
  auto old = page.ReadObject(oid.slot);
  if (!old.ok()) return old.status();
  if (!page.Fits(oid.slot, data.size())) {
    return Status::FailedPrecondition("page full");
  }
  FINELOG_RETURN_IF_ERROR(LogAndApply(
      txn, t, frame,
      LogRecord::Update(txn, kNullLsn, oid.page, oid.slot, UpdateOp::kResize,
                        page.psn(), data.ToString(),
                        std::move(old).value())));
  metrics_->Add(Counter::kClientResizes);
  return Status::OK();
}

Status Client::Delete(TxnId txn, ObjectId oid) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn));
  FINELOG_RETURN_IF_ERROR(AcquirePageLock(txn, oid.page, LockMode::kExclusive));
  FINELOG_RETURN_IF_ERROR(EnsureToken(oid.page));
  FINELOG_ASSIGN_OR_RETURN(BufferPool::Frame * frame, GetCachedPage(oid.page));
  ScopedPin pin(cache_.get(), oid.page);
  Page& page = frame->page;
  auto old = page.ReadObject(oid.slot);
  if (!old.ok()) return old.status();
  FINELOG_RETURN_IF_ERROR(LogAndApply(
      txn, t, frame,
      LogRecord::Update(txn, kNullLsn, oid.page, oid.slot, UpdateOp::kDelete,
                        page.psn(), std::string(), std::move(old).value())));
  metrics_->Add(Counter::kClientDeletes);
  return Status::OK();
}

Result<PageId> Client::AllocatePage(TxnId txn) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn));
  (void)t;
  auto reply = server_->Call(id_, wire::AllocatePage{});
  if (!reply.ok()) return reply.status();
  llm_.AddPageLock(txn, reply.value().page, LockMode::kExclusive);
  Page page(config_.page_size);
  page.raw() = reply.value().page_image;
  auto put = cache_->Put(reply.value().page, std::move(page), EvictHandler());
  if (!put.ok()) return put.status();
  return reply.value().page;
}

// ---------------------------------------------------------------------------
// Commit / rollback
// ---------------------------------------------------------------------------

Status Client::Commit(TxnId txn_id) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn_id));

  LogRecord commit = LogRecord::Control(LogRecordType::kCommit, txn_id,
                                        t->last_lsn);
  FINELOG_ASSIGN_OR_RETURN(Lsn lsn, AppendLog(commit));
  t->last_lsn = lsn;

  switch (config_.logging_policy) {
    case LoggingPolicy::kClientLocal: {
      // The headline property: commit is a purely local log force; no
      // server interaction, no page or log shipping (Section 5, item 1).
      if (config_.group_commit_window == 0) {
        FINELOG_RETURN_IF_ERROR(ForceLog());
      } else {
        // Group commit: durability is deferred. The commit record sits in
        // the log buffer until the group reaches group_commit_max_txns or
        // the window expires, and one force then covers every queued
        // transaction. A crash before the force loses the whole group --
        // restart recovery sees no durable commit records and rolls the
        // members back, which is the deferred-durability contract.
        if (pending_commits_ == 0) {
          oldest_pending_commit_us_ = channel_->clock()->now_us();
        }
        ++pending_commits_;
        if (GroupForceDue()) {
          FINELOG_RETURN_IF_ERROR(ForceLog());
        }
      }
      break;
    }
    case LoggingPolicy::kShipLogsAtCommit: {
      // ARIES/CSA: ship the transaction's log records to the server, which
      // forces them to its log before acknowledging (Section 4.1).
      size_t bytes = 0;
      Lsn cur = t->last_lsn;
      while (cur != kNullLsn) {
        auto rec = log_->Read(cur);
        if (!rec.ok()) return rec.status();
        bytes += rec.value().Encode().size() + 8;
        cur = rec.value().prev_lsn;
      }
      FINELOG_RETURN_IF_ERROR(
          server_->Call(id_, wire::CommitShipLogs{bytes}));
      break;
    }
    case LoggingPolicy::kShipPagesAtCommit: {
      // Versant-style: every page the transaction modified travels to the
      // server at commit (Section 4.1).
      std::vector<ShippedPage> pages;
      for (PageId pid : t->dirtied_pages) {
        BufferPool::Frame* frame = cache_->Peek(pid);
        if (frame != nullptr && frame->dirty) {
          pages.push_back(BuildShip(pid, *frame));
        }
      }
      if (!pages.empty()) {
        FINELOG_RETURN_IF_ERROR(
            server_->Call(id_, wire::CommitShipPages{pages}));
      }
      break;
    }
  }

  // Like Abort's, the end record bypasses the capacity check: the
  // Section 3.6 protocol run here would checkpoint this transaction as
  // still open, after its commit record.
  LogRecord end = LogRecord::Control(LogRecordType::kTxnEnd, txn_id, t->last_lsn);
  FINELOG_RETURN_IF_ERROR(
      log_->Append(end, /*enforce_capacity=*/false).status());

  txns_.erase(txn_id);
  llm_.OnTxnEnd(txn_id);  // Locks stay cached (inter-transaction caching).
  UpdateReclaimLsn();
  ++commits_;
  metrics_->Add(Counter::kClientCommits);
  return Status::OK();
}

Status Client::ApplyRedo(Page* page, const LogRecord& rec) {
  if (rec.op != UpdateOp::kDelete) {
    return ForceSlotValue(page, rec.slot, rec.redo, rec.capacity);
  }
  if (page->SlotExists(rec.slot)) return page->DeleteObject(rec.slot);
  return Status::OK();
}

Status Client::RollbackTo(TxnId txn_id, Txn* txn, Lsn stop_lsn) {
  // ARIES undo with compensation records. Walk the transaction's backward
  // chain from last_lsn; CLRs redirect via undo_next_lsn so compensated
  // work is never undone twice.
  Lsn cur = txn->last_lsn;
  while (cur != kNullLsn && cur > stop_lsn) {
    auto rec_or = log_->Read(cur);
    if (!rec_or.ok()) return rec_or.status();
    const LogRecord& rec = rec_or.value();
    if (rec.type == LogRecordType::kClr) {
      cur = rec.undo_next_lsn;
      continue;
    }
    if (rec.type != LogRecordType::kUpdate) {
      cur = rec.prev_lsn;
      continue;
    }
    FINELOG_RETURN_IF_ERROR(EnsureToken(rec.page));
    FINELOG_ASSIGN_OR_RETURN(BufferPool::Frame * frame, GetCachedPage(rec.page));
    ScopedPin pin(cache_.get(), rec.page);
    Page& page = frame->page;

    // Compensation record: redo-able inverse of `rec`.
    UpdateOp inverse = rec.op;
    if (rec.op == UpdateOp::kCreate) inverse = UpdateOp::kDelete;
    if (rec.op == UpdateOp::kDelete) inverse = UpdateOp::kCreate;
    LogRecord clr = LogRecord::Clr(txn_id, txn->last_lsn, rec.page, rec.slot,
                                   inverse, page.psn(), rec.undo, rec.prev_lsn);
    EnsureDptEntry(rec.page);
    // Rollback must always succeed: compensation records bypass the log
    // capacity check (rolling back is what ultimately frees the space).
    auto clr_lsn_or = log_->Append(clr, /*enforce_capacity=*/false);
    if (!clr_lsn_or.ok()) return clr_lsn_or.status();
    Lsn clr_lsn = clr_lsn_or.value();
    txn->last_lsn = clr_lsn;

    FINELOG_RETURN_IF_ERROR(ApplyRedo(&page, clr));
    page.BumpPsn();
    TrackModification(frame, rec.page, rec.slot);
    if (IsStructural(clr.op)) frame->structurally_modified = true;
    metrics_->Add(Counter::kClientUndos);
    cur = rec.prev_lsn;
  }
  return Status::OK();
}

Status Client::Abort(TxnId txn_id) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn_id));

  LogRecord abort = LogRecord::Control(LogRecordType::kAbort, txn_id, t->last_lsn);
  auto lsn_or = log_->Append(abort, /*enforce_capacity=*/false);
  if (!lsn_or.ok()) return lsn_or.status();
  t->last_lsn = lsn_or.value();

  FINELOG_RETURN_IF_ERROR(RollbackTo(txn_id, t, kNullLsn));

  LogRecord end = LogRecord::Control(LogRecordType::kTxnEnd, txn_id, t->last_lsn);
  FINELOG_RETURN_IF_ERROR(
      log_->Append(end, /*enforce_capacity=*/false).status());
  FINELOG_RETURN_IF_ERROR(ForceLog());

  txns_.erase(txn_id);
  llm_.OnTxnEnd(txn_id);  // Locks retained even after rollback (Section 2).
  UpdateReclaimLsn();
  ++aborts_;
  metrics_->Add(Counter::kClientAborts);
  return Status::OK();
}

Result<size_t> Client::SetSavepoint(TxnId txn_id) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_RETURN_IF_ERROR(MaybeHeartbeat());
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn_id));
  LogRecord rec = LogRecord::Control(LogRecordType::kSavepoint, txn_id,
                                     t->last_lsn);
  FINELOG_ASSIGN_OR_RETURN(Lsn lsn, AppendLog(rec));
  t->last_lsn = lsn;
  t->savepoints.push_back(lsn);
  metrics_->Add(Counter::kClientSavepoints);
  return t->savepoints.size() - 1;
}

Status Client::RollbackToSavepoint(TxnId txn_id, size_t savepoint) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  FINELOG_ASSIGN_OR_RETURN(Txn * t, GetActiveTxn(txn_id));
  if (savepoint >= t->savepoints.size()) {
    return Status::InvalidArgument("no such savepoint");
  }
  Lsn stop = t->savepoints[savepoint];
  FINELOG_RETURN_IF_ERROR(RollbackTo(txn_id, t, stop));
  t->savepoints.resize(savepoint + 1);
  metrics_->Add(Counter::kClientPartialRollbacks);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Callback handling (ClientEndpoint)
// ---------------------------------------------------------------------------

Client::CallbackReply Client::HandleObjectCallback(ObjectId oid,
                                                   LockMode requested) {
  SimMutexLock lock(mu_);
  CallbackReply reply;
  if (crashed_) return reply;  // Denied; the server queues the request.
  if (requested == LockMode::kExclusive) {
    if (!llm_.CanReleaseObject(oid)) return reply;  // In use: deny.
  } else {
    if (!llm_.CanDowngradeObject(oid)) return reply;
  }
  reply.granted = true;

  BufferPool::Frame* frame = cache_->Peek(oid.page);
  if (frame != nullptr) {
    reply.psn_at_response = frame->page.psn();
    if (frame->dirty) {
      // WAL before the copy leaves the client.
      Status st = ForceLog();
      if (!st.ok()) {
        reply.granted = false;
        return reply;
      }
      reply.page = BuildShip(oid.page, *frame);
    }
  } else {
    auto si = ship_info_.find(oid.page);
    reply.psn_at_response = si != ship_info_.end() ? si->second.psn : kNullPsn;
  }

  if (requested == LockMode::kExclusive) {
    llm_.ReleaseObject(oid);
    pending_callbacks_.erase(oid);  // We never updated it; ordering is moot.
    // Update authority for the object moves to the requester: our (just
    // shipped) value is at the server and must never overlay the new
    // holder's later updates via a restart cache pull. If the merged copy
    // is later lost with the server, our *log* (replayed with CallBack_P
    // ordering) restores the value.
    auto uit = unflushed_slots_.find(oid.page);
    if (uit != unflushed_slots_.end()) {
      uit->second.erase(oid.slot);
      if (uit->second.empty()) unflushed_slots_.erase(uit);
    }
    // Drop the page if no other locks cover objects on it (Section 3.2).
    if (frame != nullptr && !llm_.HasAnyLockOnPage(oid.page)) {
      cache_->Drop(oid.page);
      reply.dropped_page = true;
    }
  } else {
    llm_.DowngradeObject(oid);
  }
  metrics_->Add(Counter::kClientCallbacksHandled);
  return reply;
}

Client::DeescalateReply Client::HandleDeescalate(PageId pid) {
  SimMutexLock lock(mu_);
  DeescalateReply reply;
  if (crashed_) return reply;
  if (!llm_.CanDeescalatePage(pid)) return reply;  // Structural txn active.
  reply.granted = true;
  reply.object_locks = llm_.Deescalate(pid);

  BufferPool::Frame* frame = cache_->Peek(pid);
  if (frame != nullptr) {
    reply.psn_at_response = frame->page.psn();
    if (frame->dirty) {
      Status st = ForceLog();
      if (!st.ok()) {
        reply.granted = false;
        return reply;
      }
      reply.page = BuildShip(pid, *frame);
    }
    if (!llm_.HasAnyLockOnPage(pid)) {
      cache_->Drop(pid);
    }
  }
  metrics_->Add(Counter::kClientDeescalationsHandled);
  return reply;
}

Client::CallbackReply Client::HandlePageCallback(PageId pid,
                                                 LockMode requested) {
  SimMutexLock lock(mu_);
  CallbackReply reply;
  if (crashed_) return reply;
  // Deny while any local transaction uses the page (or objects on it).
  if (!llm_.CanDeescalatePage(pid)) return reply;
  if (requested == LockMode::kExclusive &&
      llm_.ExclusiveObjectInUseOnPage(pid)) {
    return reply;
  }
  reply.granted = true;

  BufferPool::Frame* frame = cache_->Peek(pid);
  if (frame != nullptr) {
    reply.psn_at_response = frame->page.psn();
    if (frame->dirty) {
      Status st = ForceLog();
      if (!st.ok()) {
        reply.granted = false;
        return reply;
      }
      reply.page = BuildShip(pid, *frame);
    }
  }
  if (requested == LockMode::kExclusive) {
    llm_.ReleasePage(pid);
    // Authority over the whole page moves on.
    unflushed_slots_.erase(pid);
    if (frame != nullptr) {
      cache_->Drop(pid);
      reply.dropped_page = true;
    }
  } else {
    // Downgrade: keep the page cached under the shared lock.
    llm_.DowngradePage(pid);
  }
  metrics_->Add(Counter::kClientPageCallbacksHandled);
  return reply;
}

void Client::HandleFlushNotify(PageId pid, Psn flushed_psn) {
  SimMutexLock lock(mu_);
  if (crashed_) return;
  auto si = ship_info_.find(pid);
  if (si == ship_info_.end()) return;
  if (flushed_psn == kNullPsn || flushed_psn < si->second.psn) {
    return;  // Stale flush: our latest ship is not on disk yet.
  }
  BufferPool::Frame* frame = cache_->Peek(pid);
  if (frame != nullptr && frame->dirty) {
    // Updated again since the ship: advance the RedoLSN to the remembered
    // end-of-log (Section 3.6). Only the post-ship modifications remain
    // unflushed.
    auto it = dpt_.find(pid);
    if (it != dpt_.end() && it->second < si->second.log_end) {
      it->second = si->second.log_end;
    }
    unflushed_slots_[pid] = frame->modified_slots;
  } else {
    // All our updates for this page are on disk: drop the DPT entry
    // (Section 3.2).
    dpt_.erase(pid);
    ship_info_.erase(si);
    unflushed_slots_.erase(pid);
  }
  UpdateReclaimLsn();
  metrics_->Add(Counter::kClientFlushNotifies);
}

Result<ShippedPage> Client::HandleTokenRecall(PageId pid) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  tokens_held_.erase(pid);
  BufferPool::Frame* frame = cache_->Peek(pid);
  if (frame == nullptr || !frame->dirty) {
    ShippedPage empty;
    empty.page = pid;
    return empty;  // Nothing unshipped; token moves without data.
  }
  FINELOG_RETURN_IF_ERROR(ForceLog());
  return BuildShip(pid, *frame);
}

Status Client::HandleCheckpointSync() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("client down");
  // ARIES/CSA-style synchronized checkpoint: the client forces its state so
  // the server checkpoint can bound recovery (Section 4.1).
  FINELOG_RETURN_IF_ERROR(ForceLog());
  return Status::OK();
}

}  // namespace finelog
