#include "lock/glm.h"

#include <algorithm>

namespace finelog {

std::vector<CallbackAction> GlobalLockManager::RequiredForObject(
    ClientId client, ObjectId oid, LockMode mode) const {
  SimMutexLock lock(mu_);
  std::vector<CallbackAction> actions;

  // Page-level conflicts: another client holds a page lock on oid.page that
  // is incompatible with this object request.
  auto pit = page_locks_.find(oid.page);
  if (pit != page_locks_.end()) {
    for (const auto& [holder, held] : pit->second) {
      if (holder == client) continue;
      if (!Compatible(held, mode)) {
        actions.push_back(CallbackAction{CallbackAction::What::kDeescalatePage,
                                         holder, ObjectId{}, oid.page, held,
                                         mode});
      }
    }
  }

  // Object-level conflicts.
  auto oit = object_locks_.find(oid);
  if (oit != object_locks_.end()) {
    for (const auto& [holder, held] : oit->second) {
      if (holder == client) continue;
      if (Compatible(held, mode)) continue;
      if (mode == LockMode::kShared) {
        // Holder has X; ask it to downgrade (shipping its page copy).
        actions.push_back(CallbackAction{CallbackAction::What::kDowngradeObject,
                                         holder, oid, kInvalidPageId, held,
                                         mode});
      } else {
        actions.push_back(CallbackAction{CallbackAction::What::kReleaseObject,
                                         holder, oid, kInvalidPageId, held,
                                         mode});
      }
    }
  }
  return actions;
}

std::vector<CallbackAction> GlobalLockManager::RequiredForPage(
    ClientId client, PageId pid, LockMode mode) const {
  SimMutexLock lock(mu_);
  std::vector<CallbackAction> actions;

  auto pit = page_locks_.find(pid);
  if (pit != page_locks_.end()) {
    for (const auto& [holder, held] : pit->second) {
      if (holder == client) continue;
      if (!Compatible(held, mode)) {
        actions.push_back(CallbackAction{CallbackAction::What::kDeescalatePage,
                                         holder, ObjectId{}, pid, held, mode});
      }
    }
  }

  for (const auto& [oid, holders] : ObjectsOnPage(object_locks_, pid)) {
    for (const auto& [holder, held] : holders) {
      if (holder == client) continue;
      if (Compatible(held, mode)) continue;
      if (mode == LockMode::kShared) {
        actions.push_back(CallbackAction{CallbackAction::What::kDowngradeObject,
                                         holder, oid, kInvalidPageId, held,
                                         mode});
      } else {
        actions.push_back(CallbackAction{CallbackAction::What::kReleaseObject,
                                         holder, oid, kInvalidPageId, held,
                                         mode});
      }
    }
  }
  return actions;
}

void GlobalLockManager::GrantObject(ClientId client, ObjectId oid,
                                    LockMode mode) {
  SimMutexLock lock(mu_);
  LockMode& held = object_locks_[oid]
                       .try_emplace(client, mode)
                       .first->second;
  if (mode == LockMode::kExclusive) held = LockMode::kExclusive;
}

void GlobalLockManager::GrantPage(ClientId client, PageId pid, LockMode mode) {
  SimMutexLock lock(mu_);
  LockMode& held = page_locks_[pid].try_emplace(client, mode).first->second;
  if (mode == LockMode::kExclusive) held = LockMode::kExclusive;
}

void GlobalLockManager::ReleaseObject(ClientId client, ObjectId oid) {
  SimMutexLock lock(mu_);
  auto oit = object_locks_.find(oid);
  if (oit == object_locks_.end()) return;
  oit->second.erase(client);
  if (oit->second.empty()) object_locks_.erase(oit);
}

void GlobalLockManager::DowngradeObject(ClientId client, ObjectId oid) {
  SimMutexLock lock(mu_);
  auto oit = object_locks_.find(oid);
  if (oit == object_locks_.end()) return;
  auto hit = oit->second.find(client);
  if (hit != oit->second.end()) hit->second = LockMode::kShared;
}

void GlobalLockManager::DowngradePage(ClientId client, PageId pid) {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  if (pit == page_locks_.end()) return;
  auto hit = pit->second.find(client);
  if (hit != pit->second.end()) hit->second = LockMode::kShared;
}

void GlobalLockManager::ReleasePage(ClientId client, PageId pid) {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  if (pit == page_locks_.end()) return;
  pit->second.erase(client);
  if (pit->second.empty()) page_locks_.erase(pit);
}

void GlobalLockManager::ApplyDeescalation(
    ClientId client, PageId pid, const std::vector<ObjectId>& object_locks,
    LockMode mode) {
  SimMutexLock lock(mu_);
  ReleasePage(client, pid);
  for (const ObjectId& oid : object_locks) {
    GrantObject(client, oid, mode);
  }
}

void GlobalLockManager::ReleaseSharedLocksOf(ClientId client) {
  SimMutexLock lock(mu_);
  for (auto it = object_locks_.begin(); it != object_locks_.end();) {
    auto hit = it->second.find(client);
    if (hit != it->second.end() && hit->second == LockMode::kShared) {
      it->second.erase(hit);
      if (it->second.empty()) {
        it = object_locks_.erase(it);
        continue;
      }
    }
    ++it;
  }
  for (auto it = page_locks_.begin(); it != page_locks_.end();) {
    auto hit = it->second.find(client);
    if (hit != it->second.end() && hit->second == LockMode::kShared) {
      it->second.erase(hit);
      if (it->second.empty()) {
        it = page_locks_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

std::vector<ObjectId> GlobalLockManager::ExclusiveObjectLocksOf(
    ClientId client) const {
  SimMutexLock lock(mu_);
  std::vector<ObjectId> out;
  for (const auto& [oid, holders] : object_locks_) {
    auto hit = holders.find(client);
    if (hit != holders.end() && hit->second == LockMode::kExclusive) {
      out.push_back(oid);
    }
  }
  return out;
}

std::vector<PageId> GlobalLockManager::ExclusivePageLocksOf(
    ClientId client) const {
  SimMutexLock lock(mu_);
  std::vector<PageId> out;
  for (const auto& [pid, holders] : page_locks_) {
    auto hit = holders.find(client);
    if (hit != holders.end() && hit->second == LockMode::kExclusive) {
      out.push_back(pid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void GlobalLockManager::Clear() {
  SimMutexLock lock(mu_);
  object_locks_.clear();
  page_locks_.clear();
}

bool GlobalLockManager::HoldsObject(ClientId client, ObjectId oid,
                                    LockMode mode) const {
  SimMutexLock lock(mu_);
  auto oit = object_locks_.find(oid);
  if (oit == object_locks_.end()) return false;
  auto hit = oit->second.find(client);
  return hit != oit->second.end() && Covers(hit->second, mode);
}

bool GlobalLockManager::HoldsPage(ClientId client, PageId pid,
                                  LockMode mode) const {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  if (pit == page_locks_.end()) return false;
  auto hit = pit->second.find(client);
  return hit != pit->second.end() && Covers(hit->second, mode);
}

bool GlobalLockManager::HoldsExclusiveObjectOnPage(ClientId client,
                                                   PageId pid) const {
  SimMutexLock lock(mu_);
  for (const auto& [oid, holders] : ObjectsOnPage(object_locks_, pid)) {
    auto hit = holders.find(client);
    if (hit != holders.end() && hit->second == LockMode::kExclusive) {
      return true;
    }
  }
  return false;
}

}  // namespace finelog
