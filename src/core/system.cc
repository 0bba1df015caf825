#include "core/system.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

#include "common/errno_util.h"
#include "util/fault.h"

namespace finelog {

System::~System() {
  if (transport_ != nullptr) transport_->Shutdown();
}

Result<std::unique_ptr<System>> System::Create(const SystemConfig& config) {
  if (config.preloaded_pages > config.num_pages) {
    return Status::InvalidArgument("preloaded_pages exceeds num_pages");
  }
  if (config.exec_mode == ExecMode::kRealClock && config.net_faults.enabled()) {
    // The delivery fault model draws from a seeded RNG keyed to the message
    // sequence; under concurrent clients that sequence is racy, so verdicts
    // would be neither deterministic nor meaningful. Fault exploration stays
    // in the simulated oracle.
    return Status::InvalidArgument(
        "net faults require ExecMode::kSimulated (the deterministic oracle)");
  }
  if (mkdir(config.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir " + config.dir + ": " + ErrnoString(errno));
  }
  auto system = std::unique_ptr<System>(new System(config));
  // Mutable view: real-clock mode may install its default durable sink
  // before the server and clients snapshot the config.
  SystemConfig& cfg = system->config_;
  if (cfg.exec_mode == ExecMode::kRealClock && cfg.log_sink == nullptr) {
    system->owned_sink_ = std::make_unique<DurableSink>();
    cfg.log_sink = system->owned_sink_.get();
  }
  system->channel_ = std::make_unique<Channel>(system->clock_.get(), cfg.costs);
  if (cfg.fault_injector != nullptr) {
    cfg.fault_injector->AttachMetrics(&system->metrics_);
  }
  system->rpc_ = std::make_unique<Rpc>(system->channel_.get(),
                                       &system->metrics_, cfg.net_faults,
                                       cfg.fault_injector);

  FINELOG_ASSIGN_OR_RETURN(
      auto primary, Server::Create(cfg, system->channel_.get(),
                                   system->rpc_.get(), &system->metrics_));
  system->servers_.push_back(std::move(primary));
  if (cfg.hot_standby) {
    // Hot standby (DESIGN.md section 19): a second server instance over the
    // same durable store, a shared mastership arbiter on the same clock
    // seam, and a failover router fronting the pair. The initial lease goes
    // to node 0 before any client traffic exists.
    system->mastership_ =
        std::make_unique<MastershipTable>(cfg.mastership_lease_us);
    FINELOG_ASSIGN_OR_RETURN(
        auto standby,
        Server::CreateStandby(cfg, system->channel_.get(), system->rpc_.get(),
                              &system->metrics_));
    system->servers_.push_back(std::move(standby));
    system->servers_[0]->ConfigureMastership(0, system->mastership_.get(),
                                             system->servers_[1].get());
    system->servers_[1]->ConfigureMastership(1, system->mastership_.get(),
                                             system->servers_[0].get());
    FINELOG_RETURN_IF_ERROR(system->servers_[0]->AcquireMastership());
    system->router_ = std::make_unique<ServerRouter>(
        system->servers_[0].get(), system->servers_[1].get(),
        system->channel_.get(), &system->metrics_, cfg.failover_timeout_us);
  }
  bool fresh = system->servers_[0]->space_map().allocated_count() == 0;
  if (fresh) {
    FINELOG_RETURN_IF_ERROR(system->servers_[0]->Bootstrap(
        cfg.preloaded_pages, cfg.objects_per_page, cfg.object_size));
  }

  // Clients talk to the router when a standby exists, so a primary death
  // becomes a probe-and-retry instead of an outage.
  ServerEndpoint* endpoint = system->router_ != nullptr
                                 ? static_cast<ServerEndpoint*>(
                                       system->router_.get())
                                 : system->servers_[0].get();
  for (uint32_t i = 0; i < cfg.num_clients; ++i) {
    ClientId cid(i);
    FINELOG_ASSIGN_OR_RETURN(
        auto client,
        Client::Create(cid, cfg, endpoint, system->channel_.get(),
                       system->rpc_.get(), &system->metrics_));
    for (auto& node : system->servers_) {
      node->RegisterClient(cid, client.get());
    }
    system->clients_.push_back(std::move(client));
  }

  if (cfg.exec_mode == ExecMode::kRealClock) {
    system->transport_ =
        std::make_unique<TokenTransport>(cfg.realclock_rpc_timeout_us);
    for (auto& client : system->clients_) {
      system->transport_->RegisterGate(client->id(), &client->gate());
    }
    system->rpc_->SetTransport(system->transport_.get());
  }
  return system;
}

Status System::RunSerialized(const std::function<Status()>& fn) {
  if (transport_ != nullptr) return transport_->RunOnReactor(fn);
  return fn();
}

Status System::CrashClient(size_t i) {
  return RunSerialized([&] {
    FINELOG_RETURN_IF_ERROR(clients_.at(i)->Crash());
    // Every node learns of the crash, not just the active one: a standby
    // that later takes over must treat the client as crashed or its restart
    // recovery would consult a dead cache (oracle divergence).
    for (auto& node : servers_) {
      node->SetClientCrashed(static_cast<ClientId>(i), true);
    }
    return Status::OK();
  });
}

Status System::CrashServer() {
  return RunSerialized([&] { return ActiveServer().Crash(); });
}

Status System::RecoverClient(size_t i) {
  return RunSerialized([&] {
    if (ActiveServer().crashed()) {
      return Status::FailedPrecondition("recover the server first");
    }
    return clients_.at(i)->Restart();
  });
}

Status System::RecoverServer() {
  return RunSerialized([&]() -> Status {
    if (router_ == nullptr) return servers_[0]->Restart();
    // Hot standby: a dead node comes back as a probeable cold standby; it
    // rejoins service only by winning the lease through a client probe, so
    // the harness never silently re-crowns an old primary.
    for (auto& node : servers_) {
      if (node->halted()) node->ProvisionStandby();
    }
    return Status::OK();
  });
}

Status System::RecoverZombie(size_t i) {
  return RunSerialized([&]() -> Status {
    if (ActiveServer().crashed()) {
      return Status::FailedPrecondition("recover the server first");
    }
    ClientId cid(static_cast<uint32_t>(i));
    if (!ActiveServer().IsPresumedDead(cid)) {
      return Status::FailedPrecondition("client is not presumed dead");
    }
    // Deliberately NOT SetClientCrashed: the server already ran the
    // declaration path; this exercises pure liveness machinery (the zombie
    // discards its fenced state and rejoins via crash recovery).
    FINELOG_RETURN_IF_ERROR(clients_.at(i)->Crash());
    return clients_.at(i)->Restart();
  });
}

Status System::RecoverAll() {
  return RunSerialized([&]() -> Status {
    if (router_ == nullptr && servers_[0]->crashed()) {
      FINELOG_RETURN_IF_ERROR(servers_[0]->Restart());
    } else if (router_ != nullptr) {
      for (auto& node : servers_) {
        if (node->halted()) node->ProvisionStandby();
      }
    }
    // A restarting client may depend on another crashed client's recovered
    // state (a hand-off recorded in its log, Section 3.5): its restart
    // defers with kWouldBlock. Multiple passes resolve the
    // (acyclic-per-page) dependency chains; a final pass surfaces any
    // genuine error.
    for (size_t pass = 0; pass <= clients_.size(); ++pass) {
      bool any_deferred = false;
      for (size_t i = 0; i < clients_.size(); ++i) {
        if (!clients_[i]->crashed()) continue;
        Status st = clients_[i]->Restart();
        if (st.IsWouldBlock()) {
          any_deferred = true;
          continue;
        }
        FINELOG_RETURN_IF_ERROR(st);
      }
      if (!any_deferred) return Status::OK();
    }
    return Status::Internal("client restart dependency did not resolve");
  });
}

Status System::DrainRecovery(uint32_t max_pages) {
  return RunSerialized([&]() -> Status {
    const uint32_t budget =
        max_pages == 0 ? static_cast<uint32_t>(-1) : max_pages;
    return ActiveServer().SweepRecovery(budget);
  });
}

Status System::FlushEverything() {
  return RunSerialized([&]() -> Status {
    for (auto& client : clients_) {
      if (client->crashed()) continue;
      FINELOG_RETURN_IF_ERROR(client->ShipAllDirtyPages());
    }
    return ActiveServer().FlushAllPages();
  });
}

Status System::PartitionServerNode(size_t i, bool partitioned) {
  return RunSerialized([&]() -> Status {
    if (router_ == nullptr) {
      return Status::FailedPrecondition("hot_standby is not enabled");
    }
    if (i >= servers_.size()) {
      return Status::InvalidArgument("no such server node");
    }
    // Both faces of the partition at once: clients cannot reach the node
    // (requests burn their timeout budget at the router) and the node cannot
    // reach the arbiter (renewals report kRpcTimeout, so it serves only down
    // its locally known lease horizon -- the split-brain bound).
    router_->SetNodeUnreachable(static_cast<int>(i), partitioned);
    mastership_->SetUnreachable(static_cast<int>(i), partitioned);
    return Status::OK();
  });
}

Status System::Switchover() {
  return RunSerialized([&]() -> Status {
    if (router_ == nullptr) {
      return Status::FailedPrecondition("hot_standby is not enabled");
    }
    return ActiveServer().StepDown();
  });
}

}  // namespace finelog
