// TokenTransport: the real-clock delivery seam behind the Rpc chokepoint
// (DESIGN.md section 17).
//
// The simulated mode needs no transport at all: Rpc::Call runs the endpoint
// body synchronously on the caller's stack (optionally through the Delivery
// fault model), which is the deterministic correctness oracle. The
// real-clock mode (ExecMode::kRealClock) plugs a TokenTransport into the
// Rpc. The server's execution context is one token, a mutex plus its
// holder's thread id: a calling thread takes the token and runs the endpoint
// body itself, so an uncontended call costs no thread hand-off. One holder at
// a time keeps the server as single-threaded as the paper assumes while
// clients do their transactional work concurrently.
//
// Re-entrancy contract (mirrors the simulation's synchronous nesting):
//  - A call made by the token holder (a server endpoint body calling back
//    into a client, which ships a page back through another endpoint) runs
//    inline, exactly the nested call the simulation performs.
//  - A thread about to wait for the token first gives up its client gate
//    (SimMutex::FullRelease), so the holder can deliver callbacks into that
//    client meanwhile -- the real-clock equivalent of the simulation
//    re-entering a client's handler in the middle of its own RPC. Server
//    endpoints take the token through EndpointLock, which holds it and the
//    node capability for the whole call.
//
// Lock order: the token, then a node capability (Server::mu_), then client
// gates. No thread waits for the token while holding a gate or mu_.
//
// Timeout contract: a thread that waits longer than its limit for the token
// gives up. Its body never runs, the call returns kWouldBlock/kRpcTimeout,
// and frames_abandoned counts it.

#ifndef FINELOG_NET_TRANSPORT_H_
#define FINELOG_NET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "common/annotations.h"
#include "common/status.h"
#include "common/types.h"

namespace finelog {

class TokenTransport {
 public:
  // `timeout_us` bounds every Submit's and EndpointLock's wait for the token
  // (0 = wait forever).
  explicit TokenTransport(uint64_t timeout_us) : timeout_us_(timeout_us) {}
  TokenTransport(const TokenTransport&) = delete;
  TokenTransport& operator=(const TokenTransport&) = delete;
  ~TokenTransport() { Shutdown(); }

  // Wiring phase (single-threaded, before any call): the gate is the
  // client's own capability (Client::gate()), released while that client
  // waits for the token.
  void RegisterGate(ClientId client, SimMutex* gate) { gates_[client] = gate; }

  // Waits for the body in flight (if any) to finish; every later wait for
  // the token fails with kWouldBlock. Idempotent.
  void Shutdown();

  // True when the calling thread holds the token: it is the server's
  // execution context, and server->client calls are legal from it.
  bool OnServerThread() const {
    return holder_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  // Runs `fn` in the server execution context on the calling thread: inline
  // for the holder, otherwise after taking the token within the limit.
  // `from` names the calling client so its gate is released across the wait
  // (kInvalidClientId for harness threads that hold no gate). On timeout or
  // after Shutdown, `fn` never runs and kWouldBlock/kRpcTimeout returns.
  Status Submit(ClientId from, const std::function<void()>& fn);

  // Serialized harness operation (crash/recover/flush from a test thread):
  // runs `fn` holding the token, waiting for it without limit.
  Status RunOnReactor(const std::function<Status()>& fn);

  // Introspection (quiesced reads).
  uint64_t frames_executed() const {
    return frames_executed_.load(std::memory_order_relaxed);
  }
  uint64_t frames_abandoned() const {
    return frames_abandoned_.load(std::memory_order_relaxed);
  }

 private:
  friend class TokenScope;

  // Takes the token for the calling thread, within the limit when
  // `bounded`; counts an expired wait in frames_abandoned.
  Status Acquire(bool bounded);
  void Release();

  SimMutex* GateFor(ClientId client) const {
    auto it = gates_.find(client);
    return it == gates_.end() ? nullptr : it->second;
  }

  const uint64_t timeout_us_;
  std::map<ClientId, SimMutex*> gates_;  // Immutable after wiring.

  std::mutex mu_;  // Guards held_ and shut_down_; never held across a body.
  std::condition_variable cv_;
  bool held_ = false;
  bool shut_down_ = false;
  // Written by the holder under mu_; read by any thread to answer "is the
  // holder me?", for which a relaxed stale read is safe (a thread can never
  // observe its own id there unless it wrote it).
  std::atomic<std::thread::id> holder_{std::thread::id()};
  std::atomic<uint64_t> frames_executed_{0};
  std::atomic<uint64_t> frames_abandoned_{0};
};

// Holds the token for one scope on behalf of the calling thread. The
// caller's gate for `from` is released (however deeply it was re-entered)
// before the wait and taken back after the token is dropped, which keeps
// the token ahead of every gate in the lock order. `bounded` applies the
// transport's limit to the wait. A no-op for the holder itself and without a
// transport.
class TokenScope {
 public:
  TokenScope(TokenTransport* transport, ClientId from, bool bounded = true);
  ~TokenScope();
  TokenScope(const TokenScope&) = delete;
  TokenScope& operator=(const TokenScope&) = delete;

  // Not OK when the wait expired or the transport is shut down: the scope
  // then holds nothing.
  const Status& status() const { return status_; }

 private:
  TokenTransport* acquired_ = nullptr;  // Set while this scope holds it.
  SimMutex* gate_ = nullptr;
  int gate_depth_ = 0;
  Status status_ = Status::OK();
};

// The lock every server endpoint takes on its caller's thread: the token
// (TokenScope, within the transport's limit), then the node capability.
// A client thread therefore never waits for the node while holding its own
// gate, and the thread holding mu_ always holds the token -- so the body it
// runs, and every re-entry into the node from that body, stays on one
// thread (DESIGN.md section 17). When status() is not OK nothing is held
// and the endpoint must return it at once.
//
// mu_ is taken only once the token is held, which the analysis cannot
// follow: the bodies are exempt, the acquire/release interface is checked.
class FINELOG_SCOPED_CAPABILITY EndpointLock {
 public:
  EndpointLock(SimMutex& mu, TokenTransport* transport, ClientId client)
      FINELOG_ACQUIRE(mu) FINELOG_NO_THREAD_SAFETY_ANALYSIS
      : token_(transport, client),
        mu_(mu) {
    if (token_.status().ok()) mu_.lock();
  }
  ~EndpointLock() FINELOG_RELEASE() FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    if (token_.status().ok()) mu_.unlock();
  }
  EndpointLock(const EndpointLock&) = delete;
  EndpointLock& operator=(const EndpointLock&) = delete;

  const Status& status() const { return token_.status(); }

 private:
  TokenScope token_;
  SimMutex& mu_;
};

}  // namespace finelog

#endif  // FINELOG_NET_TRANSPORT_H_
