#include "net/transport.h"

#include <chrono>

namespace finelog {

void TokenTransport::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !held_; });
  shut_down_ = true;
  cv_.notify_all();  // Waiters fail at once instead of at their limit.
}

Status TokenTransport::Acquire(bool bounded) {
  std::unique_lock<std::mutex> lock(mu_);
  auto free = [this] { return shut_down_ || !held_; };
  if (!bounded || timeout_us_ == 0) {
    cv_.wait(lock, free);
  } else if (!cv_.wait_for(lock, std::chrono::microseconds(timeout_us_),
                           free)) {
    frames_abandoned_.fetch_add(1, std::memory_order_relaxed);
    return Status::WouldBlock(WouldBlockReason::kRpcTimeout,
                              "server token wait timed out");
  }
  if (shut_down_) {
    return Status::WouldBlock(WouldBlockReason::kRpcTimeout,
                              "transport is shut down");
  }
  held_ = true;
  holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  return Status::OK();
}

void TokenTransport::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    holder_.store(std::thread::id(), std::memory_order_relaxed);
  }
  cv_.notify_one();
}

TokenScope::TokenScope(TokenTransport* transport, ClientId from,
                       bool bounded) {
  if (transport == nullptr || transport->OnServerThread()) return;
  gate_ = transport->GateFor(from);
  if (gate_ != nullptr && gate_->HeldByMe()) {
    gate_depth_ = gate_->FullRelease();
  } else {
    gate_ = nullptr;
  }
  status_ = transport->Acquire(bounded);
  if (status_.ok()) acquired_ = transport;
}

TokenScope::~TokenScope() {
  if (acquired_ != nullptr) acquired_->Release();
  if (gate_ != nullptr) gate_->Reacquire(gate_depth_);
}

Status TokenTransport::Submit(ClientId from,
                              const std::function<void()>& fn) {
  TokenScope scope(this, from);
  FINELOG_RETURN_IF_ERROR(scope.status());
  fn();
  frames_executed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status TokenTransport::RunOnReactor(const std::function<Status()>& fn) {
  TokenScope scope(this, kInvalidClientId, /*bounded=*/false);
  FINELOG_RETURN_IF_ERROR(scope.status());
  Status out = fn();
  frames_executed_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

}  // namespace finelog
