// Server restart recovery, Sections 3.4 and 3.5.
//
// After a server crash the buffer pool, GLM and DCT are gone; the database
// disk, the space map, and the (always forced) server log survive. Restart:
//
//  1. Rebuild the GLM and collect each operational client's DPT, cached page
//     list and LLM snapshot.
//  2. Determine the pages requiring recovery: in some client's DPT but not
//     in that client's cache. For a complex crash, add DCT placeholders for
//     crashed clients found in the checkpoint DCT and replacement records.
//  3. Reconstruct the DCT: read candidate pages from disk, remember their
//     PSNs, and scan the server log from the checkpoint's minimum RedoLSN;
//     a replacement record whose PSN equals the on-disk PSN of the page
//     fixes the per-client PSNs (Property 2).
//  4. Mark every page owing work with an ordered task list: pull the dirty
//     copies still cached at operational clients, then coordinate
//     per-(page, client) recovery -- collect CallBack_P lists from the other
//     clients, send the base copy with the DCT PSN, and let the client
//     replay its private log. Recoveries that depend on a crashed client are
//     deferred until that client completes restart (Section 3.5).
//  5. Drain the task lists: before admission opens (the default), or on
//     demand and in the background after it (instant_restart, DESIGN.md
//     section 18).

#include "server/server.h"

#include <algorithm>

#include "net/rpc.h"
#include "server/page_merge.h"
#include "util/fault.h"

namespace finelog {

Status Server::Restart() {
  SimMutexLock lock(mu_);
  return RestartLocked();
}

Status Server::RestartLocked() {
  const uint64_t t0 = channel_->clock()->now_us();
  crashed_ = false;
  metrics_->Add(Counter::kServerRestarts);

  // Step 0: membership. Presumed-dead declarations are durable; reload them
  // before rebuilding lock state so quarantines survive the server crash.
  FINELOG_RETURN_IF_ERROR(ReloadMembership());

  std::map<ClientId, ClientRecoveryState> states;
  FINELOG_RETURN_IF_ERROR(RebuildGlmAndCollectState(&states));

  std::map<PageId, std::set<ClientId>> to_recover;
  FINELOG_RETURN_IF_ERROR(ReconstructDct(states, &to_recover));

  // Step 4: per-page task lists (DESIGN.md section 18). The GLM, membership
  // and DCT are fully authoritative at this point -- that is the whole
  // safety argument -- so the endpoint guards can repair a page on first
  // touch. Per page, cache pulls run first, then coordinated log replays,
  // client id order within each kind.
  page_rec_.clear();
  rec_priority_.clear();
  for (const auto& [cid, state] : states) {
    std::set<PageId> cached(state.cached_pages.begin(),
                            state.cached_pages.end());
    for (const DptEntry& d : state.dpt) {
      if (cached.count(d.page) == 0) continue;
      page_rec_[d.page].tasks.push_back(PageRecTask{cid, true});
    }
  }
  for (const auto& [pid, involved] : to_recover) {
    for (ClientId cid : involved) {
      page_rec_[pid].tasks.push_back(PageRecTask{cid, false});
    }
  }
  restart_begin_us_ = t0;
  metrics_->Add(Counter::kRecoveryPagesMarked, page_rec_.size());
  metrics_->SetMax(Counter::kRecoveryPagesPendingHighWater, page_rec_.size());
  if (page_rec_.empty()) FinishLazyRecovery();

  // Step 5: instant_restart only decides when admission opens. Without it
  // the whole backlog drains first, in sweep order. A repair that degrades
  // (network, an unreachable dependency) ends the drain early: that page and
  // the rest stay pending behind the endpoint guards, exactly as after an
  // instant restart. A hard error fails the restart.
  if (!config_.instant_restart) {
    Status drained = DrainBacklog(static_cast<uint32_t>(-1));
    if (!drained.ok() && !drained.IsWouldBlock()) return drained;
  }
  metrics_->Add(Counter::kRecoveryTimeToFirstAdmitUs,
                channel_->clock()->now_us() - t0);
  return Status::OK();
}

Status Server::RebuildGlmAndCollectState(
    std::map<ClientId, ClientRecoveryState>* states) {
  for (const auto& [cid, ep] : clients_) {
    if (ClientUnreachable(cid)) continue;
    ClientEndpoint* endpoint = ep;
    auto state = rpc_->Exchange(cid, wire::RecGetState{},
                                [&] { return endpoint->HandleRecGetState(); });
    if (!state.ok()) {
      if (liveness_enabled() && state.status().IsWouldBlock() &&
          state.status().would_block_reason() ==
              WouldBlockReason::kRpcTimeout) {
        // Partition-tolerant restart: a client that cannot be reached is
        // declared presumed dead on the spot and the rebuild continues
        // without it. Its dirty pages stay quarantined via the DCT
        // placeholders reconstructed from checkpoint and replacement
        // records below.
        FINELOG_RETURN_IF_ERROR(DeclarePresumedDead(cid));
        continue;
      }
      return state.status();
    }
    for (const auto& [oid, mode] : state.value().object_locks) {
      glm_.GrantObject(cid, oid, mode);
    }
    for (const auto& [pid, mode] : state.value().page_locks) {
      glm_.GrantPage(cid, pid, mode);
    }
    (*states)[cid] = std::move(state).value();
  }
  return Status::OK();
}

Status Server::ReconstructDct(
    const std::map<ClientId, ClientRecoveryState>& states,
    std::map<PageId, std::set<ClientId>>* to_recover) {
  // Step 1: placeholder entries for every page in an operational DPT. Every
  // (page, client) pair gets a coordinated log replay -- a cached copy
  // merged in step 4 covers the client's *current* authority, but only the
  // log (with CallBack_P ordering) restores values whose exclusive lock
  // moved on before the crash.
  for (const auto& [cid, state] : states) {
    for (const DptEntry& d : state.dpt) {
      dct_.Set(d.page, cid, kNullPsn, kNullLsn);
      (*to_recover)[d.page].insert(cid);
    }
  }

  // Determine the scan start: the minimum RedoLSN in the checkpoint DCT.
  Lsn ckpt_lsn = log_->checkpoint_lsn();
  Lsn scan_start = log_->begin_lsn();
  if (ckpt_lsn != kNullLsn) {
    auto ckpt = log_->Read(ckpt_lsn);
    if (!ckpt.ok()) return ckpt.status();
    scan_start = ckpt_lsn;
    for (const DctEntry& e : ckpt.value().dct) {
      if (e.redo_lsn != kNullLsn) scan_start = std::min(scan_start, e.redo_lsn);
      // Complex crash: checkpoint entries of crashed or presumed-dead
      // clients seed placeholders (their DPTs are unavailable until they
      // recover).
      if (ClientUnreachable(e.client) && !dct_.Get(e.page, e.client)) {
        dct_.Set(e.page, e.client, kNullPsn, kNullLsn);
      }
    }
  }

  // First pass: placeholders for crashed or presumed-dead clients named in
  // replacement records (Section 3.5).
  if (!crashed_clients_.empty() || liveness_.AnyPresumedDead()) {
    FINELOG_RETURN_IF_ERROR(
        log_->Scan(scan_start, [&](const LogRecord& rec) -> Status {
          if (rec.type != LogRecordType::kReplacement) return Status::OK();
          for (const DctEntry& e : rec.dct) {
            if (ClientUnreachable(e.client) && !dct_.Get(e.page, e.client)) {
              dct_.Set(e.page, e.client, kNullPsn, kNullLsn);
            }
          }
          return Status::OK();
        }));
  }

  // Step 2: read every page with a DCT entry from disk and remember its PSN.
  std::map<PageId, Psn> disk_psn;
  for (const DctEntry& e : dct_.All()) {
    if (disk_psn.count(e.page) > 0) continue;
    Page page(config_.page_size);
    Status st = disk_->ReadPage(e.page, &page);
    if (st.ok()) {
      channel_->clock()->Advance(channel_->costs().disk_read_us);
      ++disk_reads_;
      disk_psn[e.page] = page.psn();
    } else if (!st.IsNotFound()) {
      return st;
    }
  }

  // Step 3: forward scan; Property 2 fixes per-client PSNs when a
  // replacement record's PSN equals the on-disk PSN.
  FINELOG_RETURN_IF_ERROR(
      log_->Scan(scan_start, [&](const LogRecord& rec) -> Status {
        if (rec.type != LogRecordType::kReplacement) return Status::OK();
        if (!dct_.HasPage(rec.page)) return Status::OK();
        dct_.SetRedoLsnIfNull(rec.page, rec.lsn);
        auto it = disk_psn.find(rec.page);
        if (it == disk_psn.end() || rec.page_psn != it->second) {
          return Status::OK();
        }
        for (const DctEntry& e : rec.dct) {
          if (dct_.Get(rec.page, e.client)) {
            dct_.SetPsn(rec.page, e.client, e.psn);
          }
        }
        return Status::OK();
      }));

  // Entries whose PSN is still unknown get the on-disk page PSN as their
  // baseline: no replacement record vouches for any of that client's updates
  // being on disk, so "everything at or past the disk PSN" must be redone.
  // Captured here (before any re-merging into the pool) so later merges
  // cannot inflate another client's redo baseline.
  for (const DctEntry& e : dct_.All()) {
    if (e.psn != kNullPsn) continue;
    auto it = disk_psn.find(e.page);
    if (it != disk_psn.end()) {
      dct_.SetPsn(e.page, e.client, it->second);
    } else {
      auto base = space_map_->BasePsn(e.page);
      if (base.ok()) dct_.SetPsn(e.page, e.client, base.value());
    }
  }
  return Status::OK();
}

Result<std::vector<CallbackListEntry>> Server::CollectCallbackList(
    PageId pid, ClientId client) {
  std::map<ObjectId, Psn> merged;
  for (const auto& [cid, ep] : clients_) {
    if (cid == client) continue;
    // Crashed clients are scanned too: callback records live in the durable
    // private log, which is readable without the client's volatile state
    // (Section 2 allows any node with access to a log to process it).
    ClientEndpoint* endpoint = ep;
    auto entries = rpc_->Exchange(cid, wire::RecScanCallbacks{}, [&] {
      return endpoint->HandleRecScanCallbacks(pid, client);
    });
    if (!entries.ok()) return entries.status();
    for (const CallbackListEntry& e : entries.value()) {
      auto [it, inserted] = merged.try_emplace(e.object, e.psn);
      if (!inserted) it->second = std::max(it->second, e.psn);
    }
  }
  std::vector<CallbackListEntry> out;
  out.reserve(merged.size());
  for (const auto& [oid, psn] : merged) {
    out.push_back(CallbackListEntry{oid, psn});
  }
  return out;
}

Status Server::CoordinatePageRecovery(PageId pid, ClientId client) {
  if (ClientUnreachable(client)) {
    return Status::Crashed("client still down");
  }
  Status st = ReplayClientLog(pid, client, kNullPsn);
  metrics_->Add(Counter::kServerCoordinatedPageRecoveries);
  return st;
}

FINELOG_REPLAY_PATH("recovery plane: base images come from disk or a "
                    "formatted page; the client's log drives the replay")
Result<std::string> Server::ReplayBaseImage(PageId pid) {
  auto frame = GetPage(pid);
  if (frame.ok()) return frame.value()->page.raw();
  // Only a page that was never written falls back to a formatted copy at
  // its allocation PSN. A corrupt or short read must surface: replaying onto
  // a blank page would silently drop every update the disk copy holds.
  if (!frame.status().IsNotFound()) return frame.status();
  auto base = space_map_->BasePsn(pid);
  if (!base.ok()) return base.status();
  Page page(config_.page_size);
  page.Format(pid, base.value());
  return page.raw();
}

Status Server::ReplayClientLog(PageId pid, ClientId client, Psn up_to) {
  auto cit = clients_.find(client);
  if (cit == clients_.end()) {
    return Status::Internal("unknown client in page recovery");
  }
  ClientEndpoint* endpoint = cit->second;
  auto list = CollectCallbackList(pid, client);
  if (!list.ok()) return list.status();
  auto base_image = ReplayBaseImage(pid);
  if (!base_image.ok()) return base_image.status();
  auto entry = dct_.Get(pid, client);
  Psn base_psn = (entry && entry->psn != kNullPsn) ? entry->psn : kNullPsn;

  // The replay re-enters this node from the client's handler: the recovered
  // copy ships back through ShipPage, a hand-off record asks for an ordered
  // fetch. In real-clock mode the handler runs inline on the reactor while
  // the parked submitter of the current frame nominally holds mu_, so the
  // body adopts mu_ for the call and those re-entries recurse instead of
  // deadlocking (DESIGN.md section 17).
  SimMutexAdopt adopt(mu_);
  return rpc_->Exchange(client, wire::RecRecoverPage{base_image.value()}, [&] {
    return endpoint->HandleRecRecoverPage(pid, list.value(), base_image.value(),
                                          base_psn, up_to);
  });
}

Status Server::ReloadMembership() {
  // Every lease is volatile: clients must renew against the new incarnation.
  liveness_.DropLeases();
  // So is the recovery-admission window: a zombie mid-recovery when the
  // server went down must re-enter through the Rec plane.
  liveness_.ClearRecoveryWindows();
  if (!liveness_enabled()) return Status::OK();
  // Replay declaration/clearing pairs in log order; whoever is still marked
  // at the end is presumed dead in this incarnation too.
  std::set<ClientId> dead;
  FINELOG_RETURN_IF_ERROR(
      log_->Scan(log_->begin_lsn(), [&](const LogRecord& rec) -> Status {
        if (rec.type != LogRecordType::kMembership) return Status::OK();
        if (rec.presumed_dead) {
          dead.insert(rec.member);
        } else {
          dead.erase(rec.member);
        }
        return Status::OK();
      }));
  for (ClientId id : dead) {
    liveness_.MarkPresumedDead(id);
    // Re-fence: the new incarnation must keep rejecting the zombie's stale
    // session until it completes crash recovery.
    rpc_->BumpEpoch(id);
  }
  return Status::OK();
}

Answer<wire::RecGetCallbackList> Server::Handle(
    ClientId client, const wire::RecGetCallbackList& req) {
  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(req.pid));
  return CollectCallbackList(req.pid, client);
}

Answer<wire::RecOrderedFetch> Server::Handle(
    ClientId client, const wire::RecOrderedFetch& req) {
  const PageId pid = req.pid;
  // Lazy restart: the ordered-fetch base must include every other client's
  // restart repair work before the requester replays its own log onto it.
  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(pid));
  metrics_->Add(Counter::kServerOrderedFetches);

  auto entry = dct_.Get(pid, req.other);
  bool satisfied = entry && entry->psn != kNullPsn && entry->psn >= req.psn;
  if (!satisfied) {
    if (ClientUnreachable(req.other) &&
        config_.lock_granularity != LockGranularity::kPage) {
      // Object granularity: the caller's machinery (deferred coordinated
      // recoveries, CallBack_P suppression) handles the dependency once the
      // client restarts. Page granularity instead runs the responder's
      // replay below even while it is down -- its session reads only the
      // durable log (Section 3.4 partial recovery).
      return Refusal{Status::Crashed("ordering dependency on crashed client")};
    }
    // If `other` still has the page cached, its copy is complete: pull it.
    // Otherwise `other` is recovering the page in parallel: ask it to
    // process all records with PSN < `psn` first (Section 3.4, last
    // paragraph).
    Status pulled = PullCachedPage(pid, req.other);
    if (pulled.IsNotFound()) pulled = ReplayClientLog(pid, req.other, req.psn);
    if (!pulled.ok()) return pulled;
  }

  PageFetchReply reply;
  auto frame = GetPage(pid);
  if (!frame.ok()) return frame.status();
  reply.page_image = frame.value()->page.raw();
  auto my_entry = dct_.Get(pid, client);
  reply.dct_psn = my_entry ? my_entry->psn : kNullPsn;
  return reply;
}

// Instant restart (DESIGN.md section 18) -------------------------------------

Status Server::EnsurePageRecovered(PageId pid) {
  if (page_rec_.empty()) return Status::OK();
  Status st = AttemptPageRepair(pid, /*demand=*/true);
  if (!st.ok()) {
    if (st.IsWouldBlock()) {
      metrics_->Add(Counter::kRecoveryDegradedResponses);
    }
    return st;
  }
  MaybeBackgroundSweep();
  return Status::OK();
}

Status Server::AttemptPageRepair(PageId pid, bool demand) {
  auto it = page_rec_.find(pid);
  if (it == page_rec_.end() || it->second.state == PageRecState::kRecovering) {
    // Clean, or this very page's repair traffic re-entering (the client
    // ships the recovered copy back through ShipPage / ordered fetch).
    return Status::OK();
  }
  if (it->second.state == PageRecState::kFailed) {
    FINELOG_RETURN_IF_ERROR(SinglePageRepair(pid));
    page_rec_.erase(pid);
    metrics_->Add(Counter::kRecoveryPagesRepaired);
    if (page_rec_.empty()) FinishLazyRecovery();
    return Status::OK();
  }
  return RepairPage(pid, demand);
}

Status Server::RepairPage(PageId pid, bool demand) {
  auto it = page_rec_.find(pid);
  if (it == page_rec_.end()) return Status::OK();
  it->second.state = PageRecState::kRecovering;
  metrics_->Add(demand ? Counter::kRecoveryDemandRepairs
                       : Counter::kRecoverySweepRepairs);
  ++repair_depth_;

  std::vector<PageRecTask> tasks;
  tasks.swap(it->second.tasks);
  Status degraded = Status::OK();
  size_t done = 0;
  for (const PageRecTask& t : tasks) {
    if (config_.fault_injector != nullptr &&
        config_.fault_injector->Evaluate("recovery.server.lazy_repair", 0,
                                         false)
                .action != FaultAction::kNone) {
      // Armed interruption: keep this and the remaining tasks and degrade.
      degraded = Status::WouldBlock(WouldBlockReason::kRecoveringPage,
                                    "lazy page repair interrupted");
      break;
    }
    Status st;
    if (t.pull_cached) {
      // An unreachable client's cache is volatile and gone; its durable log
      // is covered by its replay task (or its own restart). Nothing to pull.
      st = ClientUnreachable(t.client) ? Status::OK()
                                       : PullCachedPage(pid, t.client);
      // Evicted since restart marked the task: the replay task and flush
      // notifications cover whatever the cache no longer holds.
      if (st.IsNotFound()) st = Status::OK();
    } else {
      st = CoordinatePageRecovery(pid, t.client);
      if (st.IsCrashed()) {
        // Section 3.5 deferral: retried at the client's RecComplete;
        // meanwhile CheckPageReachable quarantines the page.
        deferred_recoveries_.emplace_back(t.client, pid);
        st = Status::OK();
      }
    }
    if (st.IsWouldBlock()) {
      degraded = Status::WouldBlock(WouldBlockReason::kRecoveringPage,
                                    "page repair waiting on the network");
      break;
    }
    if (!st.ok()) {
      // Hard error: restore the remaining work and surface it.
      --repair_depth_;
      it = page_rec_.find(pid);
      if (it != page_rec_.end()) {
        it->second.tasks.assign(tasks.begin() + done, tasks.end());
        it->second.state = PageRecState::kNeedsRecovery;
      }
      return st;
    }
    ++done;
  }
  --repair_depth_;

  it = page_rec_.find(pid);
  if (it == page_rec_.end()) return Status::OK();
  if (!degraded.ok()) {
    it->second.tasks.assign(tasks.begin() + done, tasks.end());
    it->second.state = PageRecState::kNeedsRecovery;
    // Demand-priority: a touched-but-interrupted page goes to the front of
    // the sweep queue.
    rec_priority_.push_front(pid);
    return degraded;
  }

  Status check = VerifyRecoveredPage(pid);
  if (!check.ok()) {
    metrics_->Add(Counter::kRecoveryFailedChecks);
    it->second.state = PageRecState::kFailed;
    // Single-page repair right away; if it cannot complete either, the
    // kFailed state persists and the next touch retries.
    Status repair = SinglePageRepair(pid);
    if (!repair.ok()) return repair;
  }
  page_rec_.erase(pid);
  metrics_->Add(Counter::kRecoveryPagesRepaired);
  if (page_rec_.empty()) FinishLazyRecovery();
  return Status::OK();
}

Status Server::PullCachedPage(PageId pid, ClientId client) {
  // Restart step 4 for one (page, client): CallBack_P suppression list, then
  // the client's cached copy, merged without advancing its DCT baseline.
  auto suppress = CollectCallbackList(pid, client);
  if (!suppress.ok()) return suppress.status();
  auto cit = clients_.find(client);
  if (cit == clients_.end()) {
    return Status::Internal("unknown client in cache pull");
  }
  ClientEndpoint* endpoint = cit->second;
  auto shipped = rpc_->Exchange(client, wire::RecFetchCachedPage{}, [&] {
    return endpoint->HandleRecFetchCachedPage(pid, suppress.value());
  });
  if (!shipped.ok()) return shipped.status();
  return ApplyShippedPage(client, shipped.value(), /*update_dct_psn=*/false);
}

FINELOG_REPLAY_PATH("recovery plane: discards the suspect merged copy and "
                    "rebuilds the page from its durable base plus the "
                    "responsible clients' logs")
Status Server::SinglePageRepair(PageId pid) {
  metrics_->Add(Counter::kRecoverySinglePageRepairs);
  auto it = page_rec_.find(pid);
  if (it != page_rec_.end()) it->second.state = PageRecState::kRecovering;
  ++repair_depth_;

  // Drop the suspect copy: WAL guarantees the durable base plus the
  // responsible clients' logs regenerate every update.
  pool_->Drop(pid);

  // Reset each responsible client's baseline to the honest redo floor (the
  // on-disk PSN, or the allocation PSN for a never-flushed page): earlier
  // partial repairs may have advanced DCT PSNs past updates the drop just
  // discarded.
  Psn floor = kNullPsn;
  {
    Page disk_page(config_.page_size);
    Status st = disk_->ReadPage(pid, &disk_page);
    if (st.ok()) {
      channel_->clock()->Advance(channel_->costs().disk_read_us);
      ++disk_reads_;
      floor = disk_page.psn();
    } else if (st.IsNotFound()) {
      auto base = space_map_->BasePsn(pid);
      if (base.ok()) floor = base.value();
    } else {
      --repair_depth_;
      return st;
    }
  }
  std::vector<DctEntry> responsible = dct_.EntriesForPage(pid);
  // The disk copy can carry a partially-repaired image (an earlier degraded
  // repair merged some clients, then an eviction flushed it), so its PSN
  // alone is not a safe floor: also take the minimum over the preserved
  // per-client baselines. A lower floor only means more (idempotent) replay.
  for (const DctEntry& e : responsible) {
    if (e.psn != kNullPsn && e.psn < floor) floor = e.psn;
  }
  dct_.ResetPagePsns(pid, floor);

  Status result = Status::OK();
  for (const DctEntry& e : responsible) {
    Status st = CoordinatePageRecovery(pid, e.client);
    if (st.IsCrashed()) {
      deferred_recoveries_.emplace_back(e.client, pid);
      continue;
    }
    if (st.IsWouldBlock()) {
      result = Status::WouldBlock(WouldBlockReason::kRecoveringPage,
                                  "single-page repair interrupted");
      break;
    }
    if (!st.ok()) {
      result = st;
      break;
    }
  }
  if (result.ok()) result = VerifyRecoveredPage(pid);
  --repair_depth_;
  if (!result.ok()) {
    it = page_rec_.find(pid);
    if (it != page_rec_.end()) it->second.state = PageRecState::kFailed;
  }
  return result;
}

Status Server::VerifyRecoveredPage(PageId pid) {
  if (config_.fault_injector != nullptr &&
      config_.fault_injector->Evaluate("recovery.server.page_check", 0, false)
              .action != FaultAction::kNone) {
    return Status::Corruption("armed page consistency-check failure");
  }
  auto frame = GetPage(pid);
  if (!frame.ok()) {
    // Never materialized (no pull, no replay shipped): nothing to check;
    // the disk/allocation base is the page.
    if (frame.status().IsNotFound()) return Status::OK();
    return frame.status();
  }
  const Psn have = frame.value()->page.psn();
  for (const DctEntry& e : dct_.EntriesForPage(pid)) {
    if (e.psn == kNullPsn || ClientUnreachable(e.client)) continue;
    if (e.psn > have) {
      return Status::Corruption(
          "recovered page PSN below a responsible client's baseline");
    }
  }
  return Status::OK();
}

bool Server::PickSweepPage(PageId* out) {
  while (!rec_priority_.empty()) {
    PageId cand = rec_priority_.front();
    rec_priority_.pop_front();
    auto it = page_rec_.find(cand);
    if (it != page_rec_.end() &&
        it->second.state != PageRecState::kRecovering) {
      *out = cand;
      return true;
    }
  }
  for (const auto& [pid, pr] : page_rec_) {
    if (pr.state != PageRecState::kRecovering) {
      *out = pid;
      return true;
    }
  }
  return false;
}

void Server::MaybeBackgroundSweep() {
  if (page_rec_.empty() || repair_depth_ > 0) return;
  // Opportunistic: a degraded (or deliberately interrupted) repair ends this
  // round -- the page re-queued itself at the front of rec_priority_ -- and
  // hard errors are left for the next demand touch to surface.
  (void)DrainBacklog(1);
}

Status Server::DrainBacklog(uint32_t max_pages) {
  PageId pick;
  uint32_t budget = max_pages;
  while (budget-- > 0 && !page_rec_.empty() && PickSweepPage(&pick)) {
    FINELOG_RETURN_IF_ERROR(AttemptPageRepair(pick, /*demand=*/false));
  }
  return Status::OK();
}

void Server::FinishLazyRecovery() {
  if (restart_begin_us_ == 0) return;
  metrics_->Add(Counter::kRecoveryTimeToFullyRecoveredUs,
                channel_->clock()->now_us() - restart_begin_us_);
  restart_begin_us_ = 0;
}

Status Server::SweepRecovery(uint32_t max_pages) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("server down");
  return DrainBacklog(max_pages);
}

}  // namespace finelog
