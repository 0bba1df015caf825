// Transport: the pluggable delivery seam behind the Rpc chokepoint
// (DESIGN.md section 17).
//
// The simulated mode needs no transport at all: Rpc::Call runs the endpoint
// body synchronously on the caller's stack (optionally through the Delivery
// fault model), which is the deterministic correctness oracle. The
// real-clock mode (ExecMode::kRealClock) plugs a QueueTransport into the
// Rpc: client threads submit request frames to an MPSC queue, a dedicated
// server-side reactor thread drains the queue and executes the endpoint
// bodies one at a time, and condition variables carry completion back.
//
// The reactor IS the server's execution context: every server-side
// capability (Server::mu_, GLM, DCT, liveness, server log) is only ever
// contended between the reactor and nothing, which keeps the server as
// single-threaded as the paper assumes while clients do their transactional
// work concurrently.
//
// Re-entrancy contract (mirrors the simulation's synchronous nesting):
//  - A frame submitted *from* the reactor thread (a server endpoint body
//    shipping a page back through another endpoint) executes inline --
//    exactly the nested call the simulation performs, and the only way to
//    avoid the reactor waiting on itself.
//  - A client thread parking on a frame first gives up its client gate
//    (SimMutex::FullRelease) so the reactor can deliver callbacks into that
//    client while it waits -- the real-clock equivalent of the simulation
//    re-entering a client's handler in the middle of its own RPC. Server
//    endpoints widen that release to the whole call (EndpointLock), so a
//    client never waits for a node capability while holding its gate.
//
// Timeout contract: a waiter that gives up marks its frame *abandoned*
// under the frame lock; the reactor skips abandoned frames entirely (the
// closure's captured stack may be gone). If the reactor already started
// executing, the waiter instead blocks until completion -- a frame body
// never observes a half-dead caller.

#ifndef FINELOG_NET_TRANSPORT_H_
#define FINELOG_NET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/annotations.h"
#include "common/status.h"
#include "common/types.h"

namespace finelog {

class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  // True when the calling thread is the server's execution context (the
  // reactor). Server->client calls are only legal from there.
  virtual bool OnServerThread() const = 0;

  // Runs `fn` in the server execution context and waits for completion.
  // `from` names the submitting client so its gate can be released across
  // the wait (kInvalidClientId for harness threads that hold no gate).
  // `timeout_us` bounds the wait (0 = wait forever); on timeout the frame
  // is abandoned and kWouldBlock/kRpcTimeout returned -- the body is
  // guaranteed not to have run and not to run later.
  virtual Status Submit(ClientId from, const std::function<void()>& fn,
                        uint64_t timeout_us) = 0;

  // The gate registered for `client`, or null if none (base transports keep
  // no gate table). Lets EndpointLock release a client capability over a
  // scope wider than one parked frame.
  virtual SimMutex* GateFor(ClientId /*client*/) const { return nullptr; }
};

// The lock every server endpoint takes on its caller's thread: the caller's
// client gate is released first (however deeply it was re-entered), then the
// node capability is taken and held across the park; the gate comes back
// after the node capability is dropped. A client thread therefore never
// waits for a node while holding its own gate: the reactor may be inside
// that node's frame, delivering callback or recovery traffic into this very
// client (DESIGN.md section 17). The gate release is a no-op without a
// transport, on the reactor itself, or when the calling thread does not
// hold the gate.
class FINELOG_SCOPED_CAPABILITY EndpointLock {
 public:
  EndpointLock(SimMutex& mu, Transport* transport, ClientId client)
      FINELOG_ACQUIRE(mu)
      : mu_(mu) {
    if (transport != nullptr && !transport->OnServerThread()) {
      gate_ = transport->GateFor(client);
      if (gate_ != nullptr && gate_->HeldByMe()) {
        gate_depth_ = gate_->FullRelease();
      } else {
        gate_ = nullptr;
      }
    }
    mu_.lock();
  }
  ~EndpointLock() FINELOG_RELEASE() {
    mu_.unlock();
    if (gate_ != nullptr) gate_->Reacquire(gate_depth_);
  }
  EndpointLock(const EndpointLock&) = delete;
  EndpointLock& operator=(const EndpointLock&) = delete;

 private:
  SimMutex& mu_;
  SimMutex* gate_ = nullptr;
  int gate_depth_ = 0;
};

class QueueTransport final : public Transport {
 public:
  QueueTransport() = default;
  ~QueueTransport() override;

  // Wiring phase (single-threaded, before Start): the gate is the client's
  // own capability (Client::gate()), released while that client parks.
  void RegisterGate(ClientId client, SimMutex* gate);

  void Start();
  // Stops the reactor and joins it. Frames still queued are completed as
  // aborted (their waiters get kWouldBlock); idempotent.
  void Shutdown();

  bool OnServerThread() const override {
    return std::this_thread::get_id() ==
           reactor_tid_.load(std::memory_order_acquire);
  }

  Status Submit(ClientId from, const std::function<void()>& fn,
                uint64_t timeout_us) override;

  SimMutex* GateFor(ClientId client) const override {
    auto it = gates_.find(client);
    return it == gates_.end() ? nullptr : it->second;
  }

  // Serialized harness operation (crash/recover/flush from a test thread):
  // runs `fn` on the reactor, waiting without limit.
  Status RunOnReactor(const std::function<Status()>& fn);

  // Introspection (quiesced reads).
  uint64_t frames_executed() const {
    return frames_executed_.load(std::memory_order_relaxed);
  }
  uint64_t frames_abandoned() const {
    return frames_abandoned_.load(std::memory_order_relaxed);
  }

 private:
  struct Frame {
    std::function<void()> fn;
    std::mutex m;
    std::condition_variable cv;
    bool done = false;       // Reactor finished with this frame.
    bool ran = false;        // fn actually executed (vs abandoned/aborted).
    bool executing = false;  // Reactor is inside fn right now.
    bool abandoned = false;  // Waiter timed out; fn must never run.
  };

  void ReactorLoop();

  std::map<ClientId, SimMutex*> gates_;  // Immutable after Start().

  std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<std::shared_ptr<Frame>> queue_;
  // Written under qmu_ (so the cv wakeup is not missed); atomic because the
  // reactor also consults it outside qmu_ when deciding to run a frame.
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::thread reactor_;
  std::atomic<std::thread::id> reactor_tid_{std::thread::id()};
  std::atomic<uint64_t> frames_executed_{0};
  std::atomic<uint64_t> frames_abandoned_{0};
};

}  // namespace finelog

#endif  // FINELOG_NET_TRANSPORT_H_
