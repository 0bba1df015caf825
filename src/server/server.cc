#include "server/server.h"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "net/rpc.h"
#include "server/page_merge.h"
#include "util/fault.h"

namespace finelog {

Result<std::unique_ptr<Server>> Server::Create(const SystemConfig& config,
                                               Channel* channel, Rpc* rpc,
                                               Metrics* metrics) {
  auto server =
      std::unique_ptr<Server>(new Server(config, channel, rpc, metrics));
  // Nothing else can reference `server` yet; locking satisfies the guarded-
  // member discipline for the wiring stores below.
  SimMutexLock lock(server->mu_);
  FINELOG_ASSIGN_OR_RETURN(
      server->disk_, DiskManager::Open(config.dir + "/db.pages", config.page_size,
                                       server->DiskIo()));
  FINELOG_ASSIGN_OR_RETURN(
      server->space_map_, SpaceMap::Open(config.dir + "/db.spacemap", config.num_pages));
  FINELOG_ASSIGN_OR_RETURN(server->log_,
                           LogManager::Open(config.dir + "/server.log", 0,
                                            server->LogIo()));
  server->pool_ = std::make_unique<BufferPool>(config.server_cache_pages);
  return server;
}

Result<std::unique_ptr<Server>> Server::CreateStandby(
    const SystemConfig& config, Channel* channel, Rpc* rpc, Metrics* metrics) {
  auto server =
      std::unique_ptr<Server>(new Server(config, channel, rpc, metrics));
  SimMutexLock lock(server->mu_);
  // The store files stay closed: the primary owns them, and a second set of
  // buffered stdio handles over the same files would serve stale bytes.
  // TakeOver opens everything fresh once this node wins the lease.
  server->store_open_ = false;
  server->crashed_ = true;
  server->pool_ = std::make_unique<BufferPool>(config.server_cache_pages);
  return server;
}

DiskIoOptions Server::DiskIo() const {
  return DiskIoOptions{config_.fault_injector, config_.log_sink, "server.disk",
                       config_.debug_skip_journal_replay};
}

LogIoOptions Server::LogIo() const {
  return LogIoOptions{config_.fault_injector, config_.log_sink, "server.log",
                      false};
}

void Server::RegisterClient(ClientId id, ClientEndpoint* endpoint) {
  SimMutexLock lock(mu_);
  clients_[id] = endpoint;
}

void Server::SetClientCrashed(ClientId id, bool crashed) {
  SimMutexLock lock(mu_);
  if (crashed) {
    crashed_clients_.insert(id);
    // Any in-flight crash recovery is void; the restarted client begins a
    // fresh one, so its recovery-admission window closes.
    liveness_.CloseRecoveryWindow(id);
    // Section 3.3: the server releases all shared locks held by the crashed
    // client; exclusive locks are retained for re-installation at restart.
    glm_.ReleaseSharedLocksOf(id);
    for (auto it = token_holder_.begin(); it != token_holder_.end();) {
      if (it->second == id) {
        it = token_holder_.erase(it);
      } else {
        ++it;
      }
    }
    // The explicit-crash path supersedes lease tracking while the client is
    // down; presumed-dead status (if already declared) persists until crash
    // recovery completes.
    liveness_.Suspend(id);
  } else {
    crashed_clients_.erase(id);
  }
}

Status Server::Crash() {
  SimMutexLock lock(mu_);
  FINELOG_RETURN_IF_ERROR(DropVolatileState());
  // A crashed process is not probeable: failover probes are refused until
  // the harness re-provisions the node (ProvisionStandby or Restart).
  halted_ = true;
  metrics_->Add(Counter::kServerCrashes);
  return Status::OK();
}

Status Server::DropVolatileState() {
  crashed_ = true;
  dct_authoritative_ = false;
  ClearVolatileState();
  // Deposed or stepping down: this node no longer serves any epoch.
  mastership_epoch_ = 0;
  mastership_valid_until_ = 0;
  if (!store_open_) return Status::OK();
  // The server log is forced at every append site, so reopening loses
  // nothing; reopening models the post-crash process state. The database
  // file is reopened too: DiskManager::Open replays (or invalidates) the
  // doublewrite journal, resolving any write a fault injector left torn.
  // (Safe even with a hot standby: at the instant this node stops serving
  // it is still the sole store writer; a successor's TakeOver reopens its
  // own handles fresh.)
  FINELOG_ASSIGN_OR_RETURN(
      disk_, DiskManager::Open(config_.dir + "/db.pages", config_.page_size,
                               DiskIo()));
  FINELOG_ASSIGN_OR_RETURN(
      log_, LogManager::Open(config_.dir + "/server.log", 0, LogIo()));
  return Status::OK();
}

void Server::ClearVolatileState() {
  pool_->Clear();
  glm_.Clear();
  dct_.Clear();
  token_holder_.clear();
  // Deferred recoveries and the repair backlog are volatile too: a crash
  // mid-drain loses nothing, because the next Restart re-derives both from
  // the durable logs and the clients' DPTs. Keeping them would replay the
  // same (client, page) pair once per restart.
  deferred_recoveries_.clear();
  page_rec_.clear();
  rec_priority_.clear();
  restart_begin_us_ = 0;
  repair_depth_ = 0;
}

FINELOG_REPLAY_PATH("bootstrap preload: pages are formatted, filled and "
                    "flushed to disk before any client can reference them")
Status Server::Bootstrap(uint32_t n, uint32_t objects_per_page,
                         uint32_t object_size) {
  SimMutexLock lock(mu_);
  std::string payload(object_size, '\0');
  FINELOG_ASSIGN_OR_RETURN(auto pages, space_map_->AllocatePagesInMemory(n));
  for (const SpaceMap::Allocation& alloc : pages) {
    Page page(config_.page_size);
    page.Format(alloc.page, alloc.initial_psn);
    for (uint32_t j = 0; j < objects_per_page; ++j) {
      auto slot = page.CreateObject(payload);
      if (!slot.ok()) return slot.status();
    }
    FINELOG_RETURN_IF_ERROR(disk_->WritePage(alloc.page, &page));
    ++disk_writes_;
  }
  // The map goes last: a preload that failed above left it empty on disk,
  // so the next System::Create bootstraps again.
  return space_map_->Persist();
}

BufferPool::EvictHandler Server::EvictHandler() {
  return [this](PageId pid, BufferPool::Frame& frame) -> Status {
    // The pool only calls back from inside an endpoint body, whose thread
    // already holds mu_: lock recursively so the analysis sees the
    // capability it can't trace through the std::function.
    SimMutexLock lock(mu_);
    if (!frame.dirty) return Status::OK();
    return WritePageToDisk(pid, frame);
  };
}

Result<BufferPool::Frame*> Server::GetPage(PageId pid) {
  if (BufferPool::Frame* f = pool_->Get(pid)) return f;
  Page page(config_.page_size);
  Status st = disk_->ReadPage(pid, &page);
  if (!st.ok()) return st;
  channel_->clock()->Advance(channel_->costs().disk_read_us);
  ++disk_reads_;
  metrics_->Add(Counter::kServerDiskReads);
  return pool_->Put(pid, std::move(page), EvictHandler());
}

Status Server::WritePageToDisk(PageId pid, BufferPool::Frame& frame) {
  // WAL for the no-data-logging server: force a replacement log record
  // carrying the page PSN and the DCT entries (Section 3.2) before the
  // in-place page write.
  std::vector<DctEntry> entries = dct_.EntriesForPage(pid);
  LogRecord rec = LogRecord::Replacement(pid, frame.page.psn(), entries);
  auto lsn = log_->Append(rec);
  if (!lsn.ok()) return lsn.status();
  FINELOG_RETURN_IF_ERROR(log_->Force());
  channel_->clock()->Advance(channel_->costs().log_force_us);
  metrics_->Add(Counter::kServerReplacementRecords);
  dct_.SetRedoLsnIfNull(pid, lsn.value());

  FINELOG_RETURN_IF_ERROR(disk_->WritePage(pid, &frame.page));
  channel_->clock()->Advance(channel_->costs().disk_write_us);
  ++disk_writes_;
  metrics_->Add(Counter::kServerDiskWrites);
  frame.dirty = false;

  // Notify the updating clients (Sections 3.2 and 3.6) and drop DCT entries
  // for clients no longer holding exclusive locks on the page.
  for (const DctEntry& e : entries) {
    auto cit = clients_.find(e.client);
    if (cit != clients_.end() && !ClientUnreachable(e.client)) {
      rpc_->Notify(e.client, wire::FlushNotify{},
                   [&] { cit->second->HandleFlushNotify(pid, e.psn); });
    }
    // Any exclusive object lock on the page keeps the entry alive.
    bool holds_x = glm_.HoldsPage(e.client, pid, LockMode::kExclusive) ||
                   glm_.HoldsExclusiveObjectOnPage(e.client, pid);
    // A page still owing lazy restart repair keeps every entry: the DCT PSN
    // is the redo baseline its pending log replay starts from, and nothing
    // proves the client's updates reached this (partially merged) image.
    if (!holds_x && !ClientUnreachable(e.client) &&
        !PageRecoveryPending(pid)) {
      dct_.Remove(pid, e.client);
    }
  }
  return Status::OK();
}

Status Server::CheckPageReachable(PageId pid, ClientId requester) {
  // A page is unreachable while an unreachable client other than the
  // requester has unflushed updates on it (a DCT entry) or still holds
  // exclusive locks covering it.
  auto blocks = [this, pid](ClientId c) {
    // Its DCT entry blocks, and so do its GLM X locks (the client-crash-only
    // case where the GLM survived).
    return dct_.Get(pid, c).has_value() ||
           glm_.HoldsExclusiveObjectOnPage(c, pid) ||
           glm_.HoldsPage(c, pid, LockMode::kExclusive);
  };
  for (ClientId c : crashed_clients_) {
    if (c == requester) continue;
    if (blocks(c)) {
      return Status::WouldBlock(WouldBlockReason::kCrashedDependency,
                                "page involves a crashed client");
    }
  }
  for (ClientId c : liveness_.presumed_dead()) {
    if (c == requester || crashed_clients_.count(c) != 0) continue;
    if (blocks(c)) {
      metrics_->Add(Counter::kLivenessQuarantineDenials);
      return Status::WouldBlock(
          WouldBlockReason::kQuarantinedPage,
          "page quarantined: presumed-dead client has unflushed updates");
    }
  }
  return Status::OK();
}

Status Server::ExecuteCallbacks(
    const std::vector<CallbackAction>& actions,
    std::vector<XCallbackInfo>* x_callbacks) {
  // Piggybacking: consecutive actions against one target travel as a single
  // callback request message and are answered in a single reply message
  // (bounded by max_batch_items). With max_batch_items = 1 every action pays
  // its own round trip -- the seed behavior.
  const size_t limit = std::max<uint32_t>(1, config_.max_batch_items);
  size_t i = 0;
  while (i < actions.size()) {
    // Per-target validation happens before any message is charged, exactly
    // as the unbatched path did per action.
    const ClientId target = actions[i].target;
    if (ClientUnreachable(target)) {
      return Status::WouldBlock(WouldBlockReason::kCrashedDependency,
                                "callback target unreachable; queued");
    }
    if (clients_.find(target) == clients_.end()) {
      return Status::Internal("unknown client in callback");
    }
    size_t j = i + 1;
    while (j < actions.size() && actions[j].target == target &&
           j - i < limit) {
      ++j;
    }
    const size_t n = j - i;
    auto answers = rpc_->Exchange(target, wire::Callbacks{n}, [&] {
      if (n > 1) {
        metrics_->Add(Counter::kServerBatchCallbackRequests);
        metrics_->Add(Counter::kServerBatchCallbackItems, n);
      }
      // A denial still answers: the reply carries the outcomes produced so
      // far.
      wire::CallbackReplies replies;
      for (size_t k = i; k < j && replies.status.ok(); ++k) {
        replies.status = ExecuteOneCallback(actions[k], x_callbacks, &replies);
      }
      return replies;
    });
    if (!answers.ok()) return answers.status();
    FINELOG_RETURN_IF_ERROR(answers.value().status);
    i = j;
  }
  return Status::OK();
}

Status Server::ExecuteOneCallback(const CallbackAction& a,
                                  std::vector<XCallbackInfo>* x_callbacks,
                                  wire::CallbackReplies* replies) {
  {
    ClientEndpoint* ep = clients_.at(a.target);
    switch (a.what) {
      case CallbackAction::What::kReleaseObject:
      case CallbackAction::What::kDowngradeObject: {
        LockMode want = a.what == CallbackAction::What::kReleaseObject
                            ? LockMode::kExclusive
                            : LockMode::kShared;
        auto reply = ep->HandleObjectCallback(a.object, want);
        replies->Add(reply.page);
        metrics_->Add(Counter::kServerCallbacksObject);
        if (!reply.granted) {
          metrics_->Add(Counter::kServerCallbacksDenied);
          return Status::WouldBlock(WouldBlockReason::kLockConflict,
                                    "callback denied: object in use");
        }
        if (reply.page) {
          FINELOG_RETURN_IF_ERROR(ApplyShippedPage(a.target, *reply.page));
        }
        if (want == LockMode::kExclusive) {
          glm_.ReleaseObject(a.target, a.object);
        } else {
          glm_.DowngradeObject(a.target, a.object);
        }
        // The requester must log the inter-client hand-off of update
        // authority (callback log record, Section 3.1). Only exclusive
        // *requests* count: an S-triggered downgrade transfers no authority,
        // and suppressing the responder's replay for it would lose the only
        // surviving copy of its updates. The holder matters when it is (or
        // recently was) a writer: it holds X, or it still has a DCT entry
        // for the page -- a downgraded writer keeps its entry until its
        // updates reach the disk.
        auto entry = dct_.Get(a.object.page, a.target);
        bool possibly_wrote =
            a.holder_mode == LockMode::kExclusive || entry.has_value();
        if (want == LockMode::kExclusive && possibly_wrote &&
            x_callbacks != nullptr) {
          Psn psn;
          if (reply.page) {
            // The responder shipped with the callback: the DCT entry now
            // holds exactly the PSN of that ship.
            psn = entry && entry->psn != kNullPsn ? entry->psn
                                                  : reply.psn_at_response;
          } else {
            // Nothing shipped: everything the responder ever contributed is
            // already in the server lineage, so the current copy's PSN is
            // an honest supersession bound (DCT entries can deflate after a
            // restart reconstructed them from the disk baseline).
            auto f = GetPage(a.object.page);
            psn = f.ok() ? f.value()->page.psn()
                         : (entry && entry->psn != kNullPsn
                                ? entry->psn
                                : reply.psn_at_response);
          }
          x_callbacks->push_back(XCallbackInfo{a.target, a.object, psn});
        }
        break;
      }
      case CallbackAction::What::kDeescalatePage: {
        if (config_.lock_granularity == LockGranularity::kPage) {
          // Page-locking baseline: page locks are called back, not
          // de-escalated (there are no object locks to fall back to).
          auto reply = ep->HandlePageCallback(a.page, a.requested);
          replies->Add(reply.page);
          metrics_->Add(Counter::kServerCallbacksPage);
          if (!reply.granted) {
            metrics_->Add(Counter::kServerCallbacksDenied);
            return Status::WouldBlock(WouldBlockReason::kLockConflict,
                                      "page callback denied");
          }
          if (reply.page) {
            FINELOG_RETURN_IF_ERROR(ApplyShippedPage(a.target, *reply.page));
          }
          // Whole-page authority hand-off: record it so recovery can
          // re-establish the inter-client order of page versions. The
          // sentinel slot id means "every object on the page".
          auto pentry = dct_.Get(a.page, a.target);
          bool wrote = a.holder_mode == LockMode::kExclusive ||
                       pentry.has_value();
          if (a.requested == LockMode::kExclusive && wrote &&
              x_callbacks != nullptr) {
            Psn psn = pentry && pentry->psn != kNullPsn
                          ? pentry->psn
                          : reply.psn_at_response;
            x_callbacks->push_back(XCallbackInfo{
                a.target, ObjectId{a.page, kInvalidSlotId}, psn});
          }
          if (a.requested == LockMode::kExclusive) {
            glm_.ReleasePage(a.target, a.page);
          } else {
            glm_.DowngradePage(a.target, a.page);
          }
          break;
        }
        auto reply = ep->HandleDeescalate(a.page);
        replies->Add(reply.page);
        metrics_->Add(Counter::kServerDeescalations);
        if (!reply.granted) {
          metrics_->Add(Counter::kServerCallbacksDenied);
          return Status::WouldBlock(WouldBlockReason::kLockConflict,
                                    "de-escalation denied: structural update");
        }
        if (reply.page) {
          FINELOG_RETURN_IF_ERROR(ApplyShippedPage(a.target, *reply.page));
        }
        // The GLM trades the page lock for the reported object locks.
        glm_.ReleasePage(a.target, a.page);
        for (const auto& [oid, mode] : reply.object_locks) {
          glm_.GrantObject(a.target, oid, mode);
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status Server::ApplyShippedPage(ClientId client, const ShippedPage& shipped,
                                bool update_dct_psn) {
  auto frame = GetPage(shipped.page);
  if (!frame.ok()) {
    if (!frame.status().IsNotFound()) return frame.status();
    // First copy the server ever sees (page never reached the disk): the
    // incoming image is the base.
    Page page(config_.page_size);
    page.raw() = shipped.image;
    auto put = pool_->Put(shipped.page, std::move(page), EvictHandler());
    if (!put.ok()) return put.status();
    put.value()->dirty = true;
    Page incoming(config_.page_size);
    incoming.raw() = shipped.image;
    dct_.SetPsn(shipped.page, client, incoming.psn());
    metrics_->Add(Counter::kServerPagesMerged);
    return Status::OK();
  }
  Page incoming(config_.page_size);
  incoming.raw() = shipped.image;
  Psn incoming_psn = incoming.psn();
  if (config_.lock_granularity == LockGranularity::kPage) {
    // Page-level locking gives each page a single linear version history
    // (one writer at a time), so copies are totally ordered by PSN: adopt
    // the incoming image iff it is newer; an older ship is an ancestor of
    // the current copy and carries nothing new.
    Page& local = frame.value()->page;
    if (incoming.psn() > local.psn()) {
      local.raw() = shipped.image;
      frame.value()->dirty = true;
    }
  } else {
    FINELOG_RETURN_IF_ERROR(MergeShippedPage(&frame.value()->page, shipped));
    frame.value()->dirty = true;
  }
  channel_->clock()->Advance(channel_->costs().page_merge_us);
  // "The server ... sets the value of the PSN field to be the PSN value
  // present on P" (Section 3.2).
  if (update_dct_psn) dct_.SetPsn(shipped.page, client, incoming_psn);
  metrics_->Add(Counter::kServerPagesMerged);
  return Status::OK();
}

void Server::Serve(ClientId client, AnyServerCall call) {
  std::visit(
      [&](auto* c) { c->result.emplace(Dispatch(client, c->request)); },
      call);
}

template <typename Req>
ReplyOf<Req> Server::Dispatch(ClientId client, const Req& request) {
  EndpointLock lock(mu_, rpc_->transport(), client);
  FINELOG_RETURN_IF_ERROR(lock.status());
  if (crashed_) return Status::Crashed("server down");
  if constexpr (requires { request.empty(); }) {
    // An empty batch is answered locally: no message travels.
    if (request.empty()) {
      if constexpr (std::is_void_v<typename Req::Reply>) {
        return Status::OK();
      } else {
        return typename Req::Reply{};
      }
    }
  }
  return rpc_->Exchange(client, request, [&]() -> Answer<Req> {
    if constexpr (std::is_same_v<Req, wire::Heartbeat>) {
      // Counted before the fences: a refused renewal still arrived.
      metrics_->Add(Counter::kLivenessHeartbeatsReceived);
    }
    if constexpr (!Req::kSpec.recovery_plane) {
      FINELOG_RETURN_IF_ERROR(MastershipAdmission());
      FINELOG_RETURN_IF_ERROR(LivenessAdmission(client));
    } else {
      // The recovery plane is unfenced: crash recovery is how a zombie
      // rejoins. Its requests keep the caller's recovery window open.
      liveness_.OpenRecoveryWindow(client);
    }
    return Handle(client, request);
  });
}

Answer<wire::LockObject> Server::Handle(ClientId client,
                                        const wire::LockObject& req) {
  std::vector<ObjectLockOutcome> out(req.items.size());
  for (size_t i = 0; i < req.items.size(); ++i) {
    Result<ObjectLockReply> r = GrantObjectLock(client, req.items[i]);
    if (r.ok()) {
      out[i].reply = std::move(r.value());
    } else {
      out[i].status = r.status();
    }
  }
  return out;
}

Result<ObjectLockReply> Server::GrantObjectLock(
    ClientId client, const wire::LockObject::Item& item) {
  const ObjectId oid = item.oid;
  metrics_->Add(Counter::kServerLockRequests);

  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(oid.page));
  FINELOG_RETURN_IF_ERROR(CheckPageReachable(oid.page, client));

  // Resolve conflicts; de-escalations can surface new object conflicts, so
  // iterate until the request is clean.
  std::vector<XCallbackInfo> x_callbacks;
  for (int round = 0;; ++round) {
    std::vector<CallbackAction> actions =
        glm_.RequiredForObject(client, oid, item.mode);
    if (actions.empty()) break;
    if (round >= 8) {
      return Status::WouldBlock(WouldBlockReason::kLockConflict,
                                "lock conflict not resolved");
    }
    FINELOG_RETURN_IF_ERROR(ExecuteCallbacks(actions, &x_callbacks));
  }

  glm_.GrantObject(client, oid, item.mode);
  auto frame = GetPage(oid.page);
  if (!frame.ok()) {
    return frame.status();
  }
  Page& page = frame.value()->page;
  if (item.mode == LockMode::kExclusive) {
    // Hand-off entries for "ghost writers": clients with unflushed updates
    // (a DCT entry) but no remaining lock on the object -- e.g. a client
    // whose lock claim was rejected during restart. Without a callback log
    // record their later replay could resurrect a superseded value. The
    // recorded PSN is the server copy's *current* PSN: everything such a
    // client ever contributed is in this lineage (its hand-off shipped it,
    // or a restart replay re-merged it), so records below this PSN are
    // superseded once the requester updates the object.
    for (const DctEntry& e : dct_.EntriesForPage(oid.page)) {
      if (e.client == client || e.psn == kNullPsn) continue;
      bool already = false;
      for (const auto& info : x_callbacks) {
        if (info.responder == e.client) already = true;
      }
      if (!already && !glm_.HoldsObject(e.client, oid, LockMode::kShared)) {
        x_callbacks.push_back(XCallbackInfo{e.client, oid, page.psn()});
      }
    }
  }

  if (item.mode == LockMode::kExclusive && !dct_.Get(oid.page, client)) {
    // First exclusive grant: remember the PSN (Section 3.2). The client's
    // cached copy PSN if it has the page, else the PSN of the copy we are
    // about to send.
    dct_.Insert(oid.page, client,
                item.cached_psn != kNullPsn ? item.cached_psn : page.psn());
  }

  ObjectLockReply reply;
  reply.server_psn = page.psn();
  reply.x_callbacks = std::move(x_callbacks);
  if (item.cached_psn != kNullPsn) {
    // Client has the page: refresh just the object (fine-granularity
    // transfer).
    if (page.SlotExists(oid.slot)) {
      auto data = page.ReadObject(oid.slot);
      if (!data.ok()) return data.status();
      reply.object_image = std::move(data).value();
    } else {
      reply.object_present = false;
    }
  } else {
    reply.page_image = page.raw();
    reply.object_present = page.SlotExists(oid.slot);
  }
  return reply;
}

Answer<wire::LockPage> Server::Handle(ClientId client,
                                      const wire::LockPage& req) {
  const PageId pid = req.pid;
  metrics_->Add(Counter::kServerLockRequests);

  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(pid));
  FINELOG_RETURN_IF_ERROR(CheckPageReachable(pid, client));

  std::vector<XCallbackInfo> x_callbacks;
  for (int round = 0;; ++round) {
    std::vector<CallbackAction> actions =
        glm_.RequiredForPage(client, pid, req.mode);
    if (actions.empty()) break;
    if (round >= 8) {
      return Status::WouldBlock(WouldBlockReason::kLockConflict,
                                "lock conflict not resolved");
    }
    FINELOG_RETURN_IF_ERROR(ExecuteCallbacks(actions, &x_callbacks));
  }

  glm_.GrantPage(client, pid, req.mode);
  auto frame = GetPage(pid);
  if (!frame.ok()) return frame.status();
  Page& page = frame.value()->page;
  if (req.mode == LockMode::kExclusive) {
    // Ghost-writer hand-off entries (see GrantObjectLock); a page grant covers
    // every object, hence the sentinel slot.
    for (const DctEntry& e : dct_.EntriesForPage(pid)) {
      if (e.client == client || e.psn == kNullPsn) continue;
      bool already = false;
      for (const auto& info : x_callbacks) {
        if (info.responder == e.client) already = true;
      }
      if (!already) {
        x_callbacks.push_back(
            XCallbackInfo{e.client, ObjectId{pid, kInvalidSlotId}, page.psn()});
      }
    }
  }

  if (req.mode == LockMode::kExclusive && !dct_.Get(pid, client)) {
    dct_.Insert(pid, client,
                req.cached_psn != kNullPsn ? req.cached_psn : page.psn());
  }

  PageLockReply reply;
  reply.server_psn = page.psn();
  reply.x_callbacks = std::move(x_callbacks);
  // A page grant always ships the server's current copy: conflicting
  // holders just merged their updates into it, and the requester's cached
  // copy (if any) may be stale for objects it holds no locks on.
  reply.page_image = page.raw();
  return reply;
}

Answer<wire::FetchPage> Server::Handle(ClientId client,
                                       const wire::FetchPage& req) {
  std::vector<PageFetchReply> out(req.pids.size());
  for (size_t i = 0; i < req.pids.size(); ++i) {
    const PageId pid = req.pids[i];
    FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(pid));
    auto frame = GetPage(pid);
    if (!frame.ok()) return frame.status();
    out[i].page_image = frame.value()->page.raw();
    auto entry = dct_.Get(pid, client);
    out[i].dct_psn = entry ? entry->psn : kNullPsn;
    metrics_->Add(Counter::kServerPageFetches);
  }
  return out;
}

Answer<wire::ShipPage> Server::Handle(ClientId client,
                                      const wire::ShipPage& req) {
  for (const ShippedPage& p : req.pages) {
    FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(p.page));
    FINELOG_RETURN_IF_ERROR(ApplyShippedPage(client, p));
  }
  return Status::OK();
}

FINELOG_REPLAY_PATH("formats a fresh page whose PSN lineage lives in the "
                    "space map; the allocating client logs from there on")
Answer<wire::AllocatePage> Server::Handle(ClientId client,
                                          const wire::AllocatePage&) {
  auto alloc = space_map_->AllocatePage();
  if (!alloc.ok()) return alloc.status();
  // A freed-then-reused page id may still owe lazy restart repair; retire
  // that debt before installing the fresh image, or the background sweep
  // would later "repair" the reborn page back to its pre-crash contents.
  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(alloc.value().page));
  Page page(config_.page_size);
  page.Format(alloc.value().page, alloc.value().initial_psn);
  auto put = pool_->Put(alloc.value().page, page, EvictHandler());
  if (!put.ok()) return put.status();
  put.value()->dirty = true;
  // The allocating client starts with a page-level exclusive lock.
  glm_.GrantPage(client, alloc.value().page, LockMode::kExclusive);
  dct_.Insert(alloc.value().page, client, alloc.value().initial_psn);
  AllocReply reply;
  reply.page = alloc.value().page;
  reply.page_image = page.raw();
  metrics_->Add(Counter::kServerAllocations);
  return reply;
}

Answer<wire::ForcePage> Server::Handle(ClientId client,
                                       const wire::ForcePage& req) {
  const PageId pid = req.pid;
  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(pid));
  metrics_->Add(Counter::kServerForcePageRequests);
  if (BufferPool::Frame* frame = pool_->Get(pid)) {
    if (frame->dirty) {
      FINELOG_RETURN_IF_ERROR(WritePageToDisk(pid, *frame));
    }
  } else {
    // Already flushed at eviction time; re-notify so the requester can
    // advance its DPT even if it missed the original notification.
    auto entry = dct_.Get(pid, client);
    auto cit = clients_.find(client);
    if (cit != clients_.end()) {
      rpc_->Notify(client, wire::FlushNotify{}, [&] {
        cit->second->HandleFlushNotify(pid, entry ? entry->psn : kNullPsn);
      });
    }
  }
  return Status::OK();
}

Answer<wire::ReleaseLocks> Server::Handle(ClientId client,
                                          const wire::ReleaseLocks& req) {
  for (const ObjectId& oid : req.objects) {
    glm_.ReleaseObject(client, oid);
  }
  for (PageId pid : req.pages) {
    glm_.ReleasePage(client, pid);
  }
  // Entries whose pages are already on disk can now leave the DCT (the
  // client renounced its update authority).
  for (const DctEntry& e : dct_.EntriesForClient(client)) {
    bool still_locked = glm_.HoldsPage(client, e.page, LockMode::kShared) ||
                        glm_.HoldsExclusiveObjectOnPage(client, e.page);
    // A page still owing lazy restart repair keeps its entries -- the PSN
    // is the baseline the pending replay starts from -- so the recovery
    // state is consulted before the pool (recovery-guard discipline).
    if (PageRecoveryPending(e.page)) continue;
    BufferPool::Frame* f = pool_->Peek(e.page);
    bool unflushed = f != nullptr && f->dirty;
    if (!still_locked && !unflushed && e.psn != kNullPsn) {
      // Everything the client contributed has reached the disk.
      dct_.Remove(e.page, client);
    }
  }
  metrics_->Add(Counter::kServerLockReleases);
  return Status::OK();
}

Answer<wire::CommitShipLogs> Server::Handle(ClientId,
                                            const wire::CommitShipLogs&) {
  // ARIES/CSA: the server forces the shipped records to its log before
  // acknowledging. The records themselves are not interpreted (the client
  // retains its own copy); only the durability cost is modelled.
  channel_->clock()->Advance(channel_->costs().log_force_us);
  metrics_->Add(Counter::kServerCommitLogShips);
  return Status::OK();
}

Answer<wire::CommitShipPages> Server::Handle(ClientId client,
                                             const wire::CommitShipPages& req) {
  for (const ShippedPage& p : req.pages) {
    FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(p.page));
    FINELOG_RETURN_IF_ERROR(ApplyShippedPage(client, p));
  }
  channel_->clock()->Advance(channel_->costs().log_force_us);
  metrics_->Add(Counter::kServerCommitPageShips);
  return Status::OK();
}

Answer<wire::AcquireToken> Server::Handle(ClientId client,
                                          const wire::AcquireToken& req) {
  const PageId pid = req.pid;
  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(pid));
  metrics_->Add(Counter::kServerTokenRequests);
  auto it = token_holder_.find(pid);
  if (it != token_holder_.end() && it->second == client) {
    return TokenReply{};
  }
  if (it != token_holder_.end()) {
    ClientId holder = it->second;
    if (ClientUnreachable(holder)) {
      return Refusal{Status::WouldBlock(WouldBlockReason::kCrashedDependency,
                                        "token holder unreachable")};
    }
    auto shipped = rpc_->Exchange(holder, wire::TokenRecall{}, [&] {
      return clients_.at(holder)->HandleTokenRecall(pid);
    });
    if (!shipped.ok()) return Refusal{shipped.status()};
    if (!shipped.value().image.empty()) {
      FINELOG_RETURN_IF_ERROR(ApplyShippedPage(holder, shipped.value()));
    }
    metrics_->Add(Counter::kServerTokenTransfers);
  }
  token_holder_[pid] = client;
  TokenReply reply;
  auto frame = GetPage(pid);
  if (frame.ok()) {
    reply.page_image = frame.value()->page.raw();
  }
  return reply;
}

Answer<wire::Heartbeat> Server::Handle(ClientId, const wire::Heartbeat&) {
  // The fences in Dispatch are the whole exchange: an admitted request
  // renews the lease.
  return Status::OK();
}

Status Server::TakeCheckpoint() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("server down");
  LogRecord rec = LogRecord::ServerCheckpoint(dct_.All());
  auto lsn = log_->Append(rec);
  if (!lsn.ok()) return lsn.status();
  FINELOG_RETURN_IF_ERROR(log_->Force());
  channel_->clock()->Advance(channel_->costs().log_force_us);
  FINELOG_RETURN_IF_ERROR(log_->SetCheckpointLsn(lsn.value()));
  metrics_->Add(Counter::kServerCheckpoints);
  ReplicateCheckpoint();
  return Status::OK();
}

Status Server::TakeSynchronizedCheckpoint() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("server down");
  // ARIES/CSA-style: synchronous round trip with every connected client
  // before the checkpoint record is written (Section 4.1).
  for (const auto& [id, ep] : clients_) {
    if (ClientUnreachable(id)) continue;
    ClientEndpoint* endpoint = ep;
    Status st = rpc_->Exchange(id, wire::CheckpointSync{},
                               [&] { return endpoint->HandleCheckpointSync(); });
    FINELOG_RETURN_IF_ERROR(st);
  }
  metrics_->Add(Counter::kServerSyncCheckpoints);
  return TakeCheckpoint();
}

Status Server::DeallocatePage(PageId pid) {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("server down");
  // Refuse while any client could still reference the page.
  if (dct_.HasPage(pid)) {
    return Status::FailedPrecondition("page has dirty client entries");
  }
  for (const auto& [cid, ep] : clients_) {
    (void)ep;
    if (glm_.HoldsExclusiveObjectOnPage(cid, pid) ||
        glm_.HoldsPage(cid, pid, LockMode::kExclusive)) {
      return Status::FailedPrecondition("page is exclusively locked");
    }
  }
  Psn final_psn;
  if (BufferPool::Frame* frame = pool_->Peek(pid)) {
    final_psn = frame->page.psn();
    pool_->Drop(pid);
  } else {
    // The final PSN is the lineage the space map keeps: a page that cannot
    // be read stays allocated. Only a never-written page has none.
    Page page(config_.page_size);
    Status st = disk_->ReadPage(pid, &page);
    if (st.ok()) {
      final_psn = page.psn();
    } else if (!st.IsNotFound()) {
      return st;
    }
  }
  metrics_->Add(Counter::kServerDeallocations);
  return space_map_->DeallocatePage(pid, final_psn);
}

Status Server::FlushAllPages() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("server down");
  for (PageId pid : pool_->PageIds()) {
    BufferPool::Frame* frame = pool_->Peek(pid);
    if (frame != nullptr && frame->dirty) {
      FINELOG_RETURN_IF_ERROR(WritePageToDisk(pid, *frame));
    }
  }
  return Status::OK();
}

Answer<wire::RecGetMyDct> Server::Handle(ClientId client,
                                         const wire::RecGetMyDct&) {
  DctSnapshot snap;
  snap.authoritative = dct_authoritative_;
  snap.entries = dct_.EntriesForClient(client);
  return snap;
}

Answer<wire::RecGetMyXLocks> Server::Handle(ClientId client,
                                            const wire::RecGetMyXLocks&) {
  ClientRecoveryState state;
  for (const ObjectId& oid : glm_.ExclusiveObjectLocksOf(client)) {
    state.object_locks.emplace_back(oid, LockMode::kExclusive);
  }
  for (PageId pid : glm_.ExclusivePageLocksOf(client)) {
    state.page_locks.emplace_back(pid, LockMode::kExclusive);
  }
  return state;
}

Answer<wire::RecInstallLocks> Server::Handle(
    ClientId client, const wire::RecInstallLocks& req) {
  ClientRecoveryState accepted;
  for (const ObjectId& oid : req.objects) {
    // A conflicting lock held by another client proves this claim is an
    // over-claim (the crashed client's lock was called back or downgraded
    // before the failure).
    if (!glm_.RequiredForObject(client, oid, LockMode::kExclusive).empty()) {
      continue;
    }
    glm_.GrantObject(client, oid, LockMode::kExclusive);
    accepted.object_locks.emplace_back(oid, LockMode::kExclusive);
  }
  for (PageId pid : req.pages) {
    if (!glm_.RequiredForPage(client, pid, LockMode::kExclusive).empty()) {
      continue;
    }
    glm_.GrantPage(client, pid, LockMode::kExclusive);
    accepted.page_locks.emplace_back(pid, LockMode::kExclusive);
  }
  return accepted;
}

Answer<wire::RecFetchPage> Server::Handle(ClientId client,
                                          const wire::RecFetchPage& req) {
  const PageId pid = req.pid;
  // Lazy restart: the base image a restarting client replays onto must
  // already carry every other client's restart repair for this page.
  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(pid));
  metrics_->Add(Counter::kServerRecoveryPageFetches);
  PageFetchReply reply;
  auto base_image = ReplayBaseImage(pid);
  if (!base_image.ok()) return base_image.status();
  reply.page_image = std::move(base_image).value();
  auto entry = dct_.Get(pid, client);
  if (entry && entry->psn != kNullPsn) {
    reply.dct_psn = entry->psn;
  } else {
    // No reconstructed evidence for this client: the on-disk PSN is the
    // honest redo baseline (everything at or past it must be replayed).
    Page disk_page(config_.page_size);
    Status st = disk_->ReadPage(pid, &disk_page);
    if (st.ok()) {
      reply.dct_psn = disk_page.psn();
    } else {
      auto base = space_map_->BasePsn(pid);
      reply.dct_psn = base.ok() ? base.value() : kNullPsn;
    }
  }
  return reply;
}

Answer<wire::RecComplete> Server::Handle(ClientId client,
                                         const wire::RecComplete&) {
  crashed_clients_.erase(client);
  // The standby's crashed set (seeded by the same harness hooks) must
  // not outlive this recovery, or a later takeover would treat the
  // operational client as still down and drop its lock state.
  ReplicateClientOperational(client);
  liveness_.CloseRecoveryWindow(client);
  if (liveness_.IsPresumedDead(client)) {
    // Balance the declaration with a durable clearing record *before*
    // lifting the quarantine, so a server restart between the two
    // cannot resurrect a stale presumed-dead status.
    FINELOG_RETURN_IF_ERROR(
        AppendMembershipRecord(client, /*presumed_dead=*/false));
    liveness_.MarkRecovered(client, channel_->clock()->now_us());
    metrics_->Add(Counter::kLivenessRecoveredZombies);
  }
  if (crashed_clients_.empty() && !liveness_.AnyPresumedDead()) {
    dct_authoritative_ = true;
  }
  // Retry page recoveries that were waiting on this client
  // (Section 3.5).
  std::vector<std::pair<ClientId, PageId>> pending;
  pending.swap(deferred_recoveries_);
  for (const auto& [c, p] : pending) {
    // Lazy restart: the page's remaining task list (other clients'
    // pulls/replays) must run before this pair's deferred replay, or
    // the replay would merge onto an unrepaired base.
    if (PageRecoveryPending(p)) {
      Status pre = AttemptPageRepair(p, /*demand=*/true);
      if (pre.IsWouldBlock()) {
        deferred_recoveries_.emplace_back(c, p);
        continue;
      } else if (!pre.ok()) {
        return pre;
      }
    }
    Status st = CoordinatePageRecovery(p, c);
    if (st.IsCrashed() || st.IsWouldBlock()) {
      deferred_recoveries_.emplace_back(c, p);
    } else if (!st.ok()) {
      return st;
    }
  }
  return Status::OK();
}

Status Server::LivenessAdmission(ClientId client) {
  if (!liveness_enabled()) return Status::OK();
  // An admitted request is proof of life: renew the caller *before* the
  // expiry sweep, so a lease that lapsed while this request was in flight
  // (real-clock scheduling or IO delay; impossible under the simulated
  // clock, where the client self-fences first) cannot get the sender
  // itself declared dead. Nothing is given away until a declaration runs,
  // so the renewal is safe -- and it cannot resurrect an already-declared
  // zombie, because Renew no-ops on presumed-dead clients until crash
  // recovery clears the flag.
  liveness_.Renew(client, channel_->clock()->now_us());
  FINELOG_RETURN_IF_ERROR(CheckLeases());
  if (liveness_.IsPresumedDead(client) &&
      !liveness_.InRecoveryWindow(client)) {
    // Zombie: the pre-expiry incarnation's epoch is already fenced at the
    // RPC layer; a fresh request that does reach us is rejected with a
    // distinguishable status until the client runs crash recovery.
    metrics_->Add(Counter::kLivenessZombieFenced);
    return Status::WouldBlock(WouldBlockReason::kZombieFenced,
                              "client presumed dead; crash recovery required");
  }
  return Status::OK();
}

Status Server::CheckLeases() {
  for (ClientId id : liveness_.CollectExpired(channel_->clock()->now_us())) {
    metrics_->Add(Counter::kLivenessLeaseExpiries);
    FINELOG_RETURN_IF_ERROR(DeclarePresumedDead(id));
  }
  return Status::OK();
}

Status Server::DeclarePresumedDead(ClientId id) {
  if (config_.fault_injector != nullptr &&
      config_.fault_injector->Evaluate("liveness.server.expire", 0, false)
              .action != FaultAction::kNone) {
    // Armed suppression models a distracted watchdog: the declaration is
    // skipped this round; the lease stays expired, so a later check retries.
    return Status::OK();
  }
  // The membership change is durable before any lock state is given away: a
  // server crash after this point re-quarantines the client's dirty pages
  // from the log alone.
  FINELOG_RETURN_IF_ERROR(AppendMembershipRecord(id, /*presumed_dead=*/true));
  liveness_.MarkPresumedDead(id);
  metrics_->Add(Counter::kLivenessPresumedDead);
  // Fence the zombie: bump the session epoch so ghosts and retries from the
  // pre-expiry incarnation are dropped at the RPC layer.
  rpc_->BumpEpoch(id);

  // Same treatment as an announced crash (Section 3.3): shared locks are
  // released and update tokens revoked...
  glm_.ReleaseSharedLocksOf(id);
  for (auto it = token_holder_.begin(); it != token_holder_.end();) {
    if (it->second == id) {
      it = token_holder_.erase(it);
    } else {
      ++it;
    }
  }
  // ...and exclusive locks on pages with no unflushed updates by `id` (no
  // DCT entry) are reclaimed outright: nothing unrecovered depends on them,
  // so survivors may use those pages immediately. Exclusive locks covering
  // DCT-dirty pages are retained: those pages stay quarantined until the
  // zombie's crash recovery replays or discards its updates
  // (CheckPageReachable).
  for (const ObjectId& oid : glm_.ExclusiveObjectLocksOf(id)) {
    if (!dct_.Get(oid.page, id).has_value()) glm_.ReleaseObject(id, oid);
  }
  for (PageId pid : glm_.ExclusivePageLocksOf(id)) {
    if (!dct_.Get(pid, id).has_value()) glm_.ReleasePage(id, pid);
  }
  return Status::OK();
}

Status Server::AppendMembershipRecord(ClientId member, bool presumed_dead) {
  LogRecord rec = LogRecord::Membership(member, presumed_dead);
  auto lsn = log_->Append(rec);
  if (!lsn.ok()) return lsn.status();
  FINELOG_RETURN_IF_ERROR(log_->Force());
  channel_->clock()->Advance(channel_->costs().log_force_us);
  // Membership is the standby's hottest input: mirror the record right
  // after the force, so a takeover can fence the declared-dead sessions
  // before its own membership replay confirms them.
  ReplicateMembership(member, presumed_dead);
  return Status::OK();
}

// Hot standby / mastership (DESIGN.md section 19) -----------------------------

void Server::ConfigureMastership(int node, MastershipTable* table,
                                 Server* peer) {
  node_id_ = node;
  mastership_ = table;
  peer_ = peer;
}

Status Server::AcquireMastership() {
  SimMutexLock lock(mu_);
  if (mastership_ == nullptr) {
    return Status::FailedPrecondition("mastership not configured");
  }
  auto grant = mastership_->Acquire(node_id_, channel_->clock()->now_us());
  if (!grant.ok()) return grant.status();
  mastership_epoch_ = grant.value().epoch;
  mastership_valid_until_ = grant.value().valid_until_us;
  return Status::OK();
}

Status Server::MastershipAdmission() {
  if (mastership_ == nullptr) return Status::OK();
  const uint64_t now = channel_->clock()->now_us();
  auto grant = mastership_->Renew(node_id_, now);
  if (grant.ok()) {
    mastership_epoch_ = grant.value().epoch;
    mastership_valid_until_ = grant.value().valid_until_us;
    return Status::OK();
  }
  if (grant.status().IsWouldBlock() &&
      grant.status().would_block_reason() == WouldBlockReason::kRpcTimeout &&
      mastership_epoch_ != 0 && now < mastership_valid_until_) {
    // Partitioned from the arbiter: lease non-overlap lets the incumbent
    // keep serving up to its locally known horizon -- the arbiter cannot
    // grant a successor an overlapping lease, so no second master exists
    // before that horizon passes.
    return Status::OK();
  }
  // Deposed (another node holds the lease), or the local horizon passed
  // while partitioned: self-fence. Every grant this node could issue from
  // here on would belong to a dead epoch.
  mastership_epoch_ = 0;
  mastership_valid_until_ = 0;
  metrics_->Add(Counter::kFailoverDeposedFenced);
  return Status::WouldBlock(WouldBlockReason::kFailoverInProgress,
                            "node is not the serving master");
}

Result<uint64_t> Server::FailoverProbe(ClientId client) {
  // An ordinary endpoint, although it can escalate into a takeover whose
  // restart drain re-enters every client inline on this thread: the
  // replays' calls back into this node recurse on mu_ (DESIGN.md
  // section 19).
  EndpointLock lock(mu_, rpc_->transport(), client);
  FINELOG_RETURN_IF_ERROR(lock.status());
  if (halted_) return Status::Crashed("standby node down");
  if (mastership_ == nullptr) {
    return Status::FailedPrecondition("mastership not configured");
  }
  return rpc_->Exchange(
      client, wire::FailoverProbe{},
      [&]() -> Answer<wire::FailoverProbe> {
        metrics_->Add(Counter::kFailoverProbes);
        const uint64_t now = channel_->clock()->now_us();
        if (!crashed_) {
          // Already serving (the probe raced a recovery, or the client's
          // timeout was spurious): renewing confirms the epoch.
          auto renewed = mastership_->Renew(node_id_, now);
          if (renewed.ok()) {
            mastership_epoch_ = renewed.value().epoch;
            mastership_valid_until_ = renewed.value().valid_until_us;
            return mastership_epoch_;
          }
        }
        auto grant = mastership_->Acquire(node_id_, now);
        if (!grant.ok()) {
          // The incumbent's lease is still valid: this IS the mastership
          // gap the client sits out (kFailoverInProgress).
          if (grant.status().IsFailoverInProgress()) {
            metrics_->Add(Counter::kFailoverBlocked);
          }
          return grant.status();
        }
        FINELOG_RETURN_IF_ERROR(TakeOver(grant.value()));
        return grant.value().epoch;
      });
}

Status Server::TakeOver(const MastershipTable::Grant& grant) {
  // Reopen the store fresh: the deposed peer wrote through its own handles,
  // so inherited (or never-opened) handles could serve stale bytes.
  // DiskManager::Open also resolves any torn write the dead primary left in
  // the doublewrite journal.
  FINELOG_ASSIGN_OR_RETURN(
      disk_, DiskManager::Open(config_.dir + "/db.pages", config_.page_size,
                               DiskIo()));
  FINELOG_ASSIGN_OR_RETURN(
      space_map_,
      SpaceMap::Open(config_.dir + "/db.spacemap", config_.num_pages));
  FINELOG_ASSIGN_OR_RETURN(
      log_, LogManager::Open(config_.dir + "/server.log", 0, LogIo()));
  store_open_ = true;
  ClearVolatileState();
  halted_ = false;
  mastership_epoch_ = grant.epoch;
  mastership_valid_until_ = grant.valid_until_us;
  metrics_->Add(Counter::kFailoverTakeovers);
  // Fence the deposed epoch before admission opens: sessions of clients the
  // old primary declared dead (known from the replication mirror) must not
  // slip a ghost in before the authoritative membership replay (Restart
  // step 0) re-derives and re-fences the same set from the shared log.
  for (ClientId id : repl_dead_) rpc_->BumpEpoch(id);
  // Restart recovery (Sections 3.4-3.5): reconstructs the DCT from the
  // durable store plus the clients' logs, honoring instant_restart so
  // admission can open before every page is repaired. RestartLocked, not
  // Restart: the probing endpoint already holds mu_.
  return RestartLocked();
}

Status Server::StepDown() {
  SimMutexLock lock(mu_);
  if (crashed_) return Status::Crashed("server down");
  if (mastership_ == nullptr || mastership_epoch_ == 0) {
    return Status::FailedPrecondition("not the serving master");
  }
  // Hand the lease back first: the successor's Acquire then needs no wait
  // (the epoch still advances, so the handover is fenced like any other).
  mastership_->Release(node_id_);
  FINELOG_RETURN_IF_ERROR(DropVolatileState());
  // Unlike a crash, a stepped-down node remains a probeable cold standby.
  // (kFailoverSwitchovers is counted by the router when its table flips.)
  halted_ = false;
  return Status::OK();
}

void Server::ReplicateMembership(ClientId member, bool presumed_dead) {
  if (peer_ == nullptr || mastership_ == nullptr) return;
  Server* peer = peer_;
  const uint64_t epoch = mastership_epoch_;
  rpc_->Notify(kServerId, wire::StandbyMembership{}, [&] {
    peer->ApplyReplicatedMembership(member, presumed_dead, epoch);
  });
  metrics_->Add(Counter::kFailoverReplRecordsShipped);
}

void Server::ReplicateCheckpoint() {
  if (peer_ == nullptr || mastership_ == nullptr) return;
  Server* peer = peer_;
  const uint64_t epoch = mastership_epoch_;
  rpc_->Notify(kServerId, wire::StandbyCheckpoint{},
               [&] { peer->ApplyReplicatedCheckpoint(epoch); });
  metrics_->Add(Counter::kFailoverReplRecordsShipped);
}

void Server::ApplyReplicatedMembership(ClientId member, bool presumed_dead,
                                       uint64_t epoch) {
  SimMutexLock lock(mu_);
  // Split-brain fencing: a record stamped with an epoch older than the
  // arbiter's current one comes from a deposed primary and is dropped.
  if (mastership_ == nullptr || epoch < mastership_->epoch()) {
    metrics_->Add(Counter::kFailoverReplEpochRejected);
    return;
  }
  if (presumed_dead) {
    repl_dead_.insert(member);
  } else {
    repl_dead_.erase(member);
  }
}

void Server::ApplyReplicatedCheckpoint(uint64_t epoch) {
  SimMutexLock lock(mu_);
  if (mastership_ == nullptr || epoch < mastership_->epoch()) {
    metrics_->Add(Counter::kFailoverReplEpochRejected);
    return;
  }
  ++repl_checkpoints_;
}

void Server::ReplicateClientOperational(ClientId client) {
  if (peer_ == nullptr || mastership_ == nullptr) return;
  Server* peer = peer_;
  const uint64_t epoch = mastership_epoch_;
  rpc_->Notify(kServerId, wire::StandbyMembership{},
               [&] { peer->ApplyReplicatedOperational(client, epoch); });
  metrics_->Add(Counter::kFailoverReplRecordsShipped);
}

void Server::ApplyReplicatedOperational(ClientId client, uint64_t epoch) {
  SimMutexLock lock(mu_);
  if (mastership_ == nullptr || epoch < mastership_->epoch()) {
    metrics_->Add(Counter::kFailoverReplEpochRejected);
    return;
  }
  crashed_clients_.erase(client);
  repl_dead_.erase(client);
}

}  // namespace finelog
