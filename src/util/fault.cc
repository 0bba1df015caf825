#include "util/fault.h"

#include <algorithm>

namespace finelog {

std::string_view FaultActionName(FaultAction action) {
  switch (action) {
    case FaultAction::kNone:
      return "none";
    case FaultAction::kError:
      return "error";
    case FaultAction::kTornWrite:
      return "torn-write";
    case FaultAction::kShortWrite:
      return "short-write";
  }
  return "unknown";
}

void FaultInjector::ArmPoint(const std::string& point, uint64_t nth,
                             FaultAction action, double cut_fraction) {
  std::lock_guard<std::mutex> lock(mu_);
  Armed a;
  a.point = point;
  a.at_hit = hits_[point] + nth;
  a.action = action;
  a.cut_fraction = cut_fraction;
  armed_ = a;
}

void FaultInjector::ArmGlobalHit(uint64_t nth, FaultAction action,
                                 double cut_fraction) {
  std::lock_guard<std::mutex> lock(mu_);
  Armed a;
  a.at_hit = total_hits_.load(std::memory_order_relaxed) + nth;
  a.action = action;
  a.cut_fraction = cut_fraction;
  armed_ = a;
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.reset();
}

void FaultInjector::ResetCounts() {
  std::lock_guard<std::mutex> lock(mu_);
  total_hits_.store(0, std::memory_order_relaxed);
  hits_.clear();
  trace_.clear();
  fired_.reset();
}

FaultInjector::Outcome FaultInjector::Evaluate(const std::string& point,
                                               size_t size, bool allow_torn) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t total_hit =
      total_hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t point_hit = ++hits_[point];
  if (trace_enabled_) trace_.push_back(point);
  if (metrics_ != nullptr) metrics_->Add("fault." + point);

  if (!armed_.has_value()) return Outcome{};
  const Armed& a = *armed_;
  bool match = a.point.empty() ? total_hit == a.at_hit
                               : (point == a.point && point_hit == a.at_hit);
  if (!match) return Outcome{};

  Outcome out;
  out.action = a.action;
  if ((out.action == FaultAction::kTornWrite ||
       out.action == FaultAction::kShortWrite)) {
    if (!allow_torn || size == 0) {
      out.action = FaultAction::kError;
    } else {
      // Deterministic tear position, strictly inside the payload.
      double f = std::clamp(a.cut_fraction, 0.0, 1.0);
      out.cut = std::min(size - 1, static_cast<size_t>(size * f));
    }
  }
  fired_ = Fired{point, total_hit, point_hit, out.action, out.cut};
  armed_.reset();  // One-shot.
  if (metrics_ != nullptr) metrics_->Add(Counter::kFaultInjected);
  return out;
}

}  // namespace finelog
