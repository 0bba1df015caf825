// ServerRouter: the client side of hot-standby failover (DESIGN.md
// section 19).
//
// Clients hold one ServerEndpoint*; with a hot standby configured that
// pointer is a ServerRouter owning a two-entry endpoint table. Requests go
// to the active entry; three outcomes make the router suspect the primary
// and probe the other node:
//
//   - Status::Crashed          the primary process is gone,
//   - WouldBlock(kRpcTimeout)  the wire is silent (the router charges the
//                              client's timeout budget on the clock first),
//   - WouldBlock(kFailoverInProgress)
//                              the node answered but is deposed.
//
// The probe (FailoverNode::FailoverProbe) asks the other node to confirm or
// assume mastership. On success the table flips and the request is retried
// once against the new primary; a probe refused with kFailoverInProgress is
// the mastership gap -- the incumbent's lease has not expired yet -- and is
// surfaced to the caller as a retryable WouldBlock. Any other probe failure
// surfaces the original error (e.g. both nodes down, or the *client* is the
// partitioned party and its probe timed out too).
//
// The router is deliberately dumb: it holds no mastership state of its own
// beyond the table index, so a stale index is always safe -- the epoch fence
// on the server side rejects requests a deposed node can no longer serve,
// and the next response flips the table.

#ifndef FINELOG_NET_SERVER_ROUTER_H_
#define FINELOG_NET_SERVER_ROUTER_H_

#include <utility>
#include <variant>

#include "common/annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "net/channel.h"
#include "net/endpoints.h"
#include "util/metrics.h"

namespace finelog {

// A server node the router can fail over to: the endpoint plus the
// mastership probe. Abstract so net/ does not depend on server/.
class FailoverNode : public ServerEndpoint {
 public:
  // Client-driven failover: confirm (serving node) or assume (standby that
  // wins the lease) mastership. Returns the serving epoch; Crashed while
  // the node's process is down; WouldBlock(kFailoverInProgress) while the
  // incumbent's unexpired lease blocks the takeover.
  virtual Result<uint64_t> FailoverProbe(ClientId client) = 0;
};

class FINELOG_SHARED_STATE_CLASS ServerRouter : public ServerEndpoint {
 public:
  // `timeout_us` is the per-attempt budget a client burns against a silent
  // or crashed primary before probing the standby (charged on the clock so
  // the unavailability window is honestly accounted).
  ServerRouter(FailoverNode* node0, FailoverNode* node1, Channel* channel,
               Metrics* metrics, uint64_t timeout_us)
      : channel_(channel), metrics_(metrics), timeout_us_(timeout_us) {
    nodes_[0] = node0;
    nodes_[1] = node1;
  }

  ServerRouter(const ServerRouter&) = delete;
  ServerRouter& operator=(const ServerRouter&) = delete;

  int active_node() const {
    SimMutexLock lock(mu_);
    return active_;
  }

  // Harness: partitions node `i` away from every client. Requests to it
  // burn the timeout budget and fail with kRpcTimeout; probes skip it.
  void SetNodeUnreachable(int i, bool unreachable) {
    SimMutexLock lock(mu_);
    unreachable_[i] = unreachable;
  }

  // The routing (see the file comment): serve `call` on the active node;
  // on a failure that suggests the primary is gone, probe the other node
  // and, once it confirms mastership, retry the call there exactly once.
  void Serve(ClientId client, AnyServerCall call) override {
    int active;
    bool active_unreachable;
    bool other_unreachable;
    {
      SimMutexLock lock(mu_);
      active = active_;
      active_unreachable = unreachable_[active_];
      other_unreachable = unreachable_[1 - active_];
    }
    if (active_unreachable) {
      // Silent wire: the client burns its timeout budget first.
      channel_->clock()->Advance(timeout_us_);
      Fail(call, Status::WouldBlock(WouldBlockReason::kRpcTimeout,
                                    "primary unreachable"));
    } else {
      nodes_[active]->Serve(client, call);
    }
    const Status st = CallStatus(call);
    if (!NeedsFailover(st)) return;
    const int other = 1 - active;
    if (other_unreachable) return;
    if (st.IsCrashed()) {
      // A crashed primary answers nothing; in the real deployment the
      // client only learns this by waiting out its timeout.
      channel_->clock()->Advance(timeout_us_);
    }
    auto probe = nodes_[other]->FailoverProbe(client);
    if (!probe.ok()) {
      if (probe.status().IsFailoverInProgress()) {
        // The mastership gap: the incumbent's lease must expire before the
        // standby may serve. Retryable (kFailoverBlocked is counted by the
        // probed node); the epoch fence guarantees no node serves the old
        // epoch meanwhile.
        Fail(call, probe.status());
      }
      // Otherwise the standby is dead or unreachable too: the original
      // failure stands.
      return;
    }
    {
      SimMutexLock lock(mu_);
      if (active_ == active) {
        active_ = other;
        metrics_->Add(Counter::kFailoverSwitchovers);
      }
    }
    // Retry exactly once against the confirmed master; further failures are
    // the caller's to retry (and will re-enter this routing logic).
    nodes_[other]->Serve(client, call);
  }

 private:
  static Status CallStatus(const AnyServerCall& call) {
    return std::visit([](auto* c) { return finelog::StatusOf(*c->result); },
                      call);
  }

  static void Fail(const AnyServerCall& call, Status st) {
    std::visit([&](auto* c) { c->result.emplace(std::move(st)); }, call);
  }

  // A failure that makes the router suspect the active node is no longer
  // the serving master (see the file comment).
  static bool NeedsFailover(const Status& s) {
    if (s.IsCrashed()) return true;
    if (!s.IsWouldBlock()) return false;
    return s.would_block_reason() == WouldBlockReason::kRpcTimeout ||
           s.would_block_reason() == WouldBlockReason::kFailoverInProgress;
  }

  FailoverNode* nodes_[2] FINELOG_UNGUARDED(
      "externally owned wiring, set once");
  Channel* channel_ FINELOG_UNGUARDED("externally owned wiring, set once");
  Metrics* metrics_ FINELOG_UNGUARDED(
      "monotonic counters, not protocol state");
  uint64_t timeout_us_ FINELOG_UNGUARDED("immutable after construction");

  mutable SimMutex mu_;
  int active_ FINELOG_GUARDED_BY(mu_) = 0;
  bool unreachable_[2] FINELOG_GUARDED_BY(mu_) = {false, false};
};

}  // namespace finelog

#endif  // FINELOG_NET_SERVER_ROUTER_H_
