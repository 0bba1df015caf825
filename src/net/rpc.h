// Rpc: the single chokepoint every client<->server interaction crosses
// (DESIGN.md section 13). Each logical exchange is one Exchange() of a
// request struct from net/endpoints.h: the request leg is counted on the
// channel, the handler runs exactly once, and the reply leg (if the
// exchange answers) is counted back. With every network-fault knob off
// this is byte-for-byte the infallible-channel behavior: the same Count
// sequence, no RNG draws, no extra clock motion.
//
// With faults enabled, each leg is classified by the Delivery layer and the
// call becomes a retry loop with timeout, exponential backoff and seeded
// jitter:
//  - A dropped request or reply costs rpc_timeout_us of simulated time and
//    retries, up to max_attempts.
//  - Per-session monotone sequence numbers make re-delivery of an executed
//    request a dedup hit: the body never runs twice; the cached reply
//    metadata is re-sent instead (bounded per-session cache).
//  - A duplicated message is delivered twice back to back; a reordered
//    message additionally surfaces later as a stale ghost, fenced by the
//    sequence number (same epoch) or the session epoch (after a restart).
//  - Exactly-once or clean failure: if retries exhaust after the body
//    executed, the executed result is returned (the dedup cache would
//    eventually deliver it; counted as net.reply_recovered) -- the two sides
//    never diverge. If the body never executed, the call fails with
//    kWouldBlock, which the transaction layer degrades to a clean abort.
//
// One-way notifications use Notify(): no retries, a drop simply loses the
// notification, and a duplicate runs the handler twice -- exercising the
// handler's own idempotency rather than the sequence-number shield.

#ifndef FINELOG_NET_RPC_H_
#define FINELOG_NET_RPC_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/config.h"
#include "common/status.h"
#include "common/types.h"
#include "net/channel.h"
#include "net/delivery.h"
#include "net/endpoints.h"
#include "net/transport.h"
#include "util/metrics.h"

namespace finelog {

class FaultInjector;

// `peer` is always the client side of the exchange (RpcDir in
// net/endpoints.h); the other side is always the server.
struct CallOptions {
  RpcDir dir = RpcDir::kClientToServer;
  const char* endpoint = "";   // Fail-point stem: net.<side>.<endpoint>.<op>.
  ClientId peer;               // The client side of the exchange.
  MessageType req_type = MessageType::kLockRequest;
  uint64_t req_items = 1;
  uint64_t req_bytes = 0;
  bool recovery_plane = false;  // Exempt from faults unless opted in.
};

// Records the reply message an endpoint body produced, so the chokepoint can
// count (and under faults, classify/dedup) the reply leg. A body that sets
// no reply models a request-only exchange.
class RpcReply {
 public:
  void SetBatch(MessageType type, uint64_t items, uint64_t bytes) {
    present_ = true;
    type_ = type;
    items_ = items;
    bytes_ = bytes;
  }

  bool present() const { return present_; }
  MessageType type() const { return type_; }
  uint64_t items() const { return items_; }
  uint64_t bytes() const { return bytes_; }

 private:
  bool present_ = false;
  MessageType type_ = MessageType::kLockRequest;
  uint64_t items_ = 0;
  uint64_t bytes_ = 0;
};

class Rpc {
 public:
  Rpc(Channel* channel, Metrics* metrics, const NetFaultConfig& config,
      FaultInjector* injector)
      : channel_(channel),
        metrics_(metrics),
        delivery_(config, injector, metrics) {}

  Rpc(const Rpc&) = delete;
  Rpc& operator=(const Rpc&) = delete;

  // Plugs the real-clock transport in (DESIGN.md section 17). Calls then
  // run on the calling thread once it holds the server token instead of
  // running inline unconditionally. The simulated fault model and the
  // transport are mutually exclusive (System::Create rejects the
  // combination), so Call() dispatches on exactly one of them.
  void SetTransport(TokenTransport* transport) { transport_ = transport; }
  TokenTransport* transport() { return transport_; }

  // One typed exchange (net/endpoints.h): options and wire sizes come from
  // the request struct's definition. `handler` runs on the receiving side
  // and returns the exchange's Answer (or its plain result).
  template <typename Req, typename Handler>
  ReplyOf<Req> Exchange(ClientId peer, const Req& request, Handler&& handler) {
    return Call(OptionsFor(peer, request), [&](RpcReply* reply) {
      Answer<Req> answer = handler();
      if (answer.answered()) {
        const WireSize size =
            answer.ok() ? ReplySize(request, answer.value()) : WireSize{};
        reply->SetBatch(Req::kSpec.reply, size.items, size.bytes);
      }
      return std::move(answer.value());
    });
  }

  // A typed one-way notification (see Send).
  template <typename Req, typename Handler>
  void Notify(ClientId peer, const Req& request, Handler&& handler) {
    Send(OptionsFor(peer, request), handler);
  }

  // Invalidate a client's sessions after it crashes: old in-flight ghosts
  // carry the previous epoch and are fenced instead of mistaken for live
  // traffic. Called at the top of client restart.
  void BumpEpoch(ClientId client);

  // Chaos harnesses mutate this to heal (or worsen) the network mid-run.
  NetFaultConfig& faults() { return delivery_.config(); }
  const NetFaultConfig& faults() const { return delivery_.config(); }

  // Test introspection.
  uint64_t session_epoch(RpcDir dir, ClientId peer) const;
  uint64_t session_last_executed(RpcDir dir, ClientId peer) const;
  size_t ghost_count() const { return ghosts_.size(); }

 private:
  // One request/reply exchange. `body` is invoked with an RpcReply* and
  // returns Status or Result<T>; the return type must be constructible from
  // a Status so a timed-out call can surface kWouldBlock.
  template <typename Body>
  auto Call(const CallOptions& opts, Body&& body)
      -> std::invoke_result_t<Body&, RpcReply*> {
    using R = std::invoke_result_t<Body&, RpcReply*>;
    if (transport_ != nullptr) {
      return TransportCall<R>(opts, body);
    }
    if (!delivery_.config().enabled()) {
      RpcReply reply;
      channel_->CountBatch(opts.req_type, opts.req_items, opts.req_bytes);
      R result = body(&reply);
      if (reply.present()) {
        channel_->CountBatch(reply.type(), reply.items(), reply.bytes());
      }
      return result;
    }
    return FaultyCall<R>(opts, body);
  }

  // One-way notification: counted, never retried. A drop loses it; a
  // duplicate runs the handler twice (its own idempotency absorbs it).
  template <typename Body>
  void Send(const CallOptions& opts, Body&& body) {
    if (transport_ != nullptr) {
      channel_->CountBatch(opts.req_type, opts.req_items, opts.req_bytes);
      // Server->client notifications are issued by the token holder and
      // run inline (the handler's own gate serializes them); a client-
      // originated one-way takes the token like any call.
      if (transport_->OnServerThread()) {
        body();
      } else {
        (void)transport_->Submit(opts.peer, [&body] { body(); });
      }
      return;
    }
    if (!delivery_.config().enabled()) {
      channel_->CountBatch(opts.req_type, opts.req_items, opts.req_bytes);
      body();
      return;
    }
    PumpGhosts();
    Session& session = SessionFor(opts.dir, opts.peer);
    const uint64_t epoch = session.epoch;
    const uint64_t seq = session.next_seq++;
    NetVerdict v = delivery_.Classify(LegPrefix(opts, true), opts.req_bytes,
                                      opts.peer, opts.recovery_plane);
    channel_->CountBatch(opts.req_type, opts.req_items, opts.req_bytes);
    if (v.delay_us > 0) channel_->clock()->Advance(v.delay_us);
    if (v.drop) return;
    body();
    if (v.dup) {
      channel_->CountBatch(opts.req_type, opts.req_items, opts.req_bytes);
      body();
    }
    if (v.reorder) {
      EnqueueGhost(opts.dir, opts.peer, epoch, seq, opts.req_type,
                   opts.req_items, opts.req_bytes);
    }
  }

  struct CachedReply {
    uint64_t epoch = 0;
    uint64_t seq = 0;
    MessageType type = MessageType::kLockRequest;
    uint64_t items = 0;
    uint64_t bytes = 0;
  };

  struct Session {
    uint64_t epoch = 0;
    uint64_t next_seq = 1;
    uint64_t last_executed = 0;   // Highest seq whose body has run.
    std::deque<CachedReply> dedup;
  };

  // A message copy still floating in the network after a reorder fault: it
  // surfaces (is counted and fenced) once the channel has moved `due`
  // messages past it. Ghosts never execute endpoint bodies -- by the time
  // one lands its sequence number (or epoch) is already stale.
  struct Ghost {
    RpcDir dir = RpcDir::kClientToServer;
    ClientId peer;
    uint64_t epoch = 0;
    uint64_t seq = 0;
    MessageType type = MessageType::kLockRequest;
    uint64_t items = 0;
    uint64_t bytes = 0;
    uint64_t due = 0;  // Channel total_messages() threshold.
  };

  template <typename Req>
  static CallOptions OptionsFor(ClientId peer, const Req& request) {
    const WireSize size = RequestSize(request);
    return CallOptions{Req::kSpec.dir,     Req::kSpec.endpoint, peer,
                       Req::kSpec.request, size.items,          size.bytes,
                       Req::kSpec.recovery_plane};
  }

  Session& SessionFor(RpcDir dir, ClientId peer) {
    return sessions_[static_cast<size_t>(dir)][peer];
  }

  // "net.client.<endpoint>" when the client sends this leg,
  // "net.server.<endpoint>" when the server does.
  std::string LegPrefix(const CallOptions& opts, bool request) const {
    const bool client_sends = (opts.dir == RpcDir::kClientToServer) == request;
    return std::string(client_sends ? "net.client." : "net.server.") +
           opts.endpoint;
  }

  // Real-clock path: one body run under the server token. Keeps the session
  // machinery live -- the call is stamped with the session's (epoch, seq)
  // before the token wait and fenced against the *current* epoch once the
  // token is held, so a call that waited across its client's crash and
  // restart is dropped by the same epoch fence the simulated fault model
  // uses for ghosts.
  template <typename R, typename Body>
  R TransportCall(const CallOptions& opts, Body& body) {
    channel_->CountBatch(opts.req_type, opts.req_items, opts.req_bytes);
    uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      Session& session = SessionFor(opts.dir, opts.peer);
      epoch = session.epoch;
      session.next_seq++;
    }
    std::optional<R> executed;
    RpcReply reply;
    bool fenced = false;
    Status submitted = transport_->Submit(
        opts.dir == RpcDir::kClientToServer ? opts.peer : kInvalidClientId,
        [&] {
          {
            std::lock_guard<std::mutex> lock(sessions_mu_);
            const Session& session = SessionFor(opts.dir, opts.peer);
            if (session.epoch != epoch) {
              fenced = true;
            }
          }
          if (fenced) {
            metrics_->Add(Counter::kNetStaleEpochFenced);
            return;
          }
          executed.emplace(body(&reply));
        });
    if (!submitted.ok()) {
      metrics_->Add(Counter::kNetRpcTimeouts);
      metrics_->Add(Counter::kNetRpcExhausted);
      return R(Status::WouldBlock(
          WouldBlockReason::kRpcTimeout,
          std::string("transport timeout: ") + opts.endpoint));
    }
    if (fenced || !executed.has_value()) {
      return R(Status::WouldBlock(
          WouldBlockReason::kRpcTimeout,
          std::string("stale epoch fenced: ") + opts.endpoint));
    }
    if (reply.present()) {
      channel_->CountBatch(reply.type(), reply.items(), reply.bytes());
    }
    return std::move(*executed);
  }

  // Non-template faulty-path helpers (rpc.cc).
  void PumpGhosts();
  void Backoff(uint32_t attempt);
  void CacheReply(Session* session, uint64_t epoch, uint64_t seq,
                  const RpcReply& reply);
  bool ResendCachedReply(const Session& session, const CallOptions& opts,
                         uint64_t epoch, uint64_t seq);
  bool SendReplyMeta(const CallOptions& opts, uint64_t epoch, uint64_t seq,
                     MessageType type, uint64_t items, uint64_t bytes);
  void EnqueueGhost(RpcDir dir, ClientId peer, uint64_t epoch, uint64_t seq,
                    MessageType type, uint64_t items, uint64_t bytes);

  template <typename R, typename Body>
  R FaultyCall(const CallOptions& opts, Body& body) {
    PumpGhosts();
    Session& session = SessionFor(opts.dir, opts.peer);
    const uint64_t epoch = session.epoch;
    const uint64_t seq = session.next_seq++;
    const std::string req_prefix = LegPrefix(opts, true);

    std::optional<R> executed;
    RpcReply reply;
    bool complete = false;
    const NetFaultConfig& cfg = delivery_.config();
    for (uint32_t attempt = 0; attempt < cfg.max_attempts; ++attempt) {
      if (attempt > 0) {
        metrics_->Add(Counter::kNetRpcRetries);
        Backoff(attempt);
      }
      NetVerdict rv = delivery_.Classify(req_prefix, opts.req_bytes, opts.peer,
                                         opts.recovery_plane);
      channel_->CountBatch(opts.req_type, opts.req_items, opts.req_bytes);
      if (rv.delay_us > 0) channel_->clock()->Advance(rv.delay_us);
      if (!rv.drop) {
        const int deliveries = rv.dup ? 2 : 1;
        for (int d = 0; d < deliveries; ++d) {
          if (d == 1) {
            // The duplicate copy on the wire.
            channel_->CountBatch(opts.req_type, opts.req_items,
                                 opts.req_bytes);
          }
          if (seq <= session.last_executed) {
            // Already executed (an earlier leg of this call, or the first
            // delivery of this dup pair): answer from the dedup cache.
            metrics_->Add(Counter::kNetDedupHits);
            complete |= ResendCachedReply(session, opts, epoch, seq);
          } else {
            executed.emplace(body(&reply));
            session.last_executed = std::max(session.last_executed, seq);
            if (reply.present()) {
              CacheReply(&session, epoch, seq, reply);
              complete |= SendReplyMeta(opts, epoch, seq, reply.type(),
                                        reply.items(), reply.bytes());
            } else {
              complete = true;  // Request-only: nothing left to lose.
            }
          }
        }
        if (rv.reorder) {
          EnqueueGhost(opts.dir, opts.peer, epoch, seq, opts.req_type,
                       opts.req_items, opts.req_bytes);
        }
      }
      if (executed.has_value() && complete) return std::move(*executed);
      // The caller waits out the timeout before retrying.
      metrics_->Add(Counter::kNetRpcTimeouts);
      channel_->clock()->Advance(cfg.rpc_timeout_us);
    }
    if (executed.has_value()) {
      // Every reply leg was lost but the body ran: return the executed
      // result so the two sides never diverge (the dedup cache would
      // deliver this same answer on the next contact).
      metrics_->Add(Counter::kNetReplyRecovered);
      return std::move(*executed);
    }
    metrics_->Add(Counter::kNetRpcExhausted);
    return R(Status::WouldBlock(WouldBlockReason::kRpcTimeout,
                                std::string("rpc timeout: ") + opts.endpoint));
  }

  Channel* channel_;
  Metrics* metrics_;
  Delivery delivery_;
  TokenTransport* transport_ = nullptr;
  // Serializes session stamping in transport mode, where client threads
  // stamp sessions_ while the token holder reads them. The simulated paths
  // (FaultyCall/Send/PumpGhosts) run single-threaded and take it only at
  // the non-hot entry points they share with the harness (BumpEpoch,
  // introspection).
  mutable std::mutex sessions_mu_;
  std::map<ClientId, Session> sessions_[2];
  std::deque<Ghost> ghosts_;
};

}  // namespace finelog

#endif  // FINELOG_NET_RPC_H_
