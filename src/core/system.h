// finelog::System -- the public entry point.
//
// A System is a complete deployment: one page server plus N clients, all in
// one process, exchanging messages through an accounted channel and sharing
// a clock. Files (database, space map, server log, private client logs)
// live under `config.dir` and survive simulated crashes; everything else is
// volatile.
//
//   SystemConfig config;
//   config.dir = "/tmp/mydb";
//   auto system = System::Create(config).value();
//   Client& c = system->client(0);
//   TxnId txn = c.Begin().value();
//   c.Write(txn, ObjectId{0, 3}, "new-value-of-object-3");
//   c.Commit(txn);              // forces only the client's private log
//   system->CrashClient(0);     // lock tables, cache, log tail: gone
//   system->RecoverClient(0);   // Section 3.3 restart recovery
//
// Crash injection drops exactly the state the paper treats as volatile, so
// the recovery algorithms of Sections 3.3-3.5 run against honest wreckage.
//
// Execution modes (DESIGN.md section 17): the default ExecMode::kSimulated
// runs everything on the caller's thread against a SimClock -- the
// deterministic oracle. ExecMode::kRealClock swaps in a RealClock, a
// TokenTransport (one server execution token) behind the Rpc chokepoint,
// and a DurableSink (fdatasync) behind log forces; the caller then drives
// each client from its own std::thread and harness operations below
// serialize on the same token.

#ifndef FINELOG_CORE_SYSTEM_H_
#define FINELOG_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <vector>

#include "client/client.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/result.h"
#include "log/log_sink.h"
#include "net/channel.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "server/server.h"
#include "util/metrics.h"

namespace finelog {

class System {
 public:
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  // Shuts down the transport (real-clock mode) before any member it may
  // still be delivering into is destroyed.
  ~System();

  // Creates (or reopens) a deployment under `config.dir`. A fresh directory
  // is bootstrapped with `config.preloaded_pages` pages of
  // `config.objects_per_page` objects each.
  static Result<std::unique_ptr<System>> Create(const SystemConfig& config);

  Client& client(size_t i) { return *clients_.at(i); }
  // The node currently fronting traffic: the single server by default; with
  // hot_standby, whichever node the failover router points at.
  Server& server() { return ActiveServer(); }
  size_t num_clients() const { return clients_.size(); }

  // Hot standby (DESIGN.md section 19) ---------------------------------------

  size_t num_server_nodes() const { return servers_.size(); }
  Server& server_node(size_t i) { return *servers_.at(i); }
  int active_server_node() const {
    return router_ != nullptr ? router_->active_node() : 0;
  }
  // Null without hot_standby.
  MastershipTable* mastership() { return mastership_.get(); }
  ServerRouter* router() { return router_.get(); }

  // Partitions server node `i` away from both the clients (requests burn
  // their timeout budget) and the mastership arbiter (the node can only
  // serve down its locally known lease horizon) -- the split-brain drill.
  Status PartitionServerNode(size_t i, bool partitioned);

  // Clean switchover: the active node releases the lease and drops to cold
  // standby; the next client request probes and promotes the peer.
  Status Switchover();

  Clock& clock() { return *clock_; }
  Channel& channel() { return *channel_; }
  Rpc& rpc() { return *rpc_; }
  Metrics& metrics() { return metrics_; }
  const SystemConfig& config() const { return config_; }
  // Null in simulated mode. Real-clock benches read frame counters here.
  TokenTransport* transport() { return transport_.get(); }
  // The sink behind log/page forces (null in simulated mode unless the
  // config injected one). Benches read DurableSink::sync_count() here.
  LogSink* log_sink() { return config_.log_sink; }

  // Crash injection ----------------------------------------------------------
  //
  // In real-clock mode every operation below runs holding the server token,
  // so it cannot interleave with endpoint bodies; callers must have quiesced
  // the client threads they are crashing or recovering.

  Status CrashClient(size_t i);
  Status CrashServer();

  // Recovery. RecoverAll handles any combination of crashes in the order
  // Section 3.5 requires: server restart first (deferring work that depends
  // on crashed clients), then each crashed client.
  Status RecoverClient(size_t i);
  Status RecoverServer();
  Status RecoverAll();

  // Recovers a client the *server* declared presumed dead (lease expiry)
  // but that never crashed in the harness sense: its process state is
  // discarded (Crash) and client crash recovery re-registers it with a
  // fresh session epoch, which is the only path off the presumed-dead set.
  // Heal any partition affecting the client first, or recovery-plane calls
  // cannot reach the server.
  Status RecoverZombie(size_t i);

  // Pushes every dirty page (client caches, then server pool) to disk --
  // a quiescent point for tests and benchmarks.
  Status FlushEverything();

  // Instant restart (DESIGN.md section 18): repairs up to `max_pages` pages
  // still marked needs-recovery after a lazy server restart, in sweep
  // priority order. Harnesses call this between workload steps to model the
  // background sweeper; a no-op when nothing is pending. Pass 0 to drain
  // everything.
  Status DrainRecovery(uint32_t max_pages = 0);
  size_t RecoveryPagesPending() const {
    return ActiveServer().RecoveryPagesPending();
  }

 private:
  static std::unique_ptr<Clock> MakeClock(ExecMode mode) {
    if (mode == ExecMode::kRealClock) return std::make_unique<RealClock>();
    return std::make_unique<SimClock>();
  }

  explicit System(const SystemConfig& config)
      : config_(config), clock_(MakeClock(config.exec_mode)), metrics_() {}

  // Harness operations run on the caller's stack in both modes; in
  // real-clock mode they hold the server token (one serialization point, no
  // endpoint body in flight while volatile state is being dropped or
  // rebuilt).
  Status RunSerialized(const std::function<Status()>& fn);

  Server& ActiveServer() const {
    return *servers_.at(router_ != nullptr
                            ? static_cast<size_t>(router_->active_node())
                            : 0);
  }

  SystemConfig config_;
  std::unique_ptr<Clock> clock_;
  Metrics metrics_;
  std::unique_ptr<DurableSink> owned_sink_;  // Real-clock default sink.
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<Rpc> rpc_;
  // servers_[0] is the initial primary; with hot_standby, servers_[1] is the
  // standby and the roles float with the mastership lease.
  std::vector<std::unique_ptr<Server>> servers_;
  std::unique_ptr<MastershipTable> mastership_;  // hot_standby only.
  std::unique_ptr<ServerRouter> router_;         // hot_standby only.
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<TokenTransport> transport_;  // Real-clock mode only.
};

}  // namespace finelog

#endif  // FINELOG_CORE_SYSTEM_H_
