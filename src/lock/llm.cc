#include "lock/llm.h"

#include <algorithm>
#include <optional>

namespace finelog {

namespace {

using Uses = LocalLockManager::Uses;
using UseMap = std::map<TxnId, Uses>;

// The table of a transaction's uses that holds keys of type `Key`.
template <typename Key>
using UseTable = std::map<Key, LockMode> Uses::*;

// True if an open transaction other than `except` uses `key` in a mode that
// conflicts with `mode`. Without `except`, every open transaction counts.
template <typename Key>
bool Conflict(const UseMap& uses, UseTable<Key> table, Key key, LockMode mode,
              std::optional<TxnId> except = std::nullopt) {
  for (const auto& [txn, u] : uses) {
    if (txn == except) continue;
    auto it = (u.*table).find(key);
    if (it != (u.*table).end() && !Compatible(it->second, mode)) return true;
  }
  return false;
}

template <typename Key>
void RegisterUse(UseMap* uses, UseTable<Key> table, Key key, TxnId txn,
                 LockMode mode) {
  LockMode& used = ((*uses)[txn].*table)[key];
  used = std::max(used, mode);
}

// A use never outlives its entry: erasing an entry drops every use of it.
template <typename Key>
void DropUses(UseMap* uses, UseTable<Key> table, Key key) {
  for (auto& entry : *uses) (entry.second.*table).erase(key);
}

}  // namespace

LocalLockManager::Acquire LocalLockManager::TryAcquireObject(TxnId txn,
                                                             ObjectId oid,
                                                             LockMode mode) {
  SimMutexLock lock(mu_);
  auto it = object_locks_.find(oid);
  if (it != object_locks_.end() && Covers(it->second, mode)) {
    if (Conflict(uses_, &Uses::objects, oid, mode, txn)) {
      return Acquire::kLocalConflict;
    }
    RegisterUse(&uses_, &Uses::objects, oid, txn, mode);
    return Acquire::kHit;
  }
  // Check page-level coverage.
  auto pit = page_locks_.find(oid.page);
  if (pit != page_locks_.end() && Covers(pit->second, mode)) {
    if (Conflict(uses_, &Uses::pages, oid.page, mode, txn) ||
        Conflict(uses_, &Uses::objects, oid, mode, txn)) {
      return Acquire::kLocalConflict;
    }
    // Record an implicit object entry under the page lock. An entry already
    // here was S (it did not cover), so the request is X and raises it.
    object_locks_[oid] = mode;
    RegisterUse(&uses_, &Uses::objects, oid, txn, mode);
    return Acquire::kHit;
  }
  // Local upgrade path or plain miss: if another local transaction is using
  // the current entry incompatibly with the upgrade, report the conflict
  // now rather than involving the server.
  if (Conflict(uses_, &Uses::objects, oid, mode, txn)) {
    return Acquire::kLocalConflict;
  }
  return Acquire::kMiss;
}

LocalLockManager::Acquire LocalLockManager::TryAcquirePage(TxnId txn,
                                                           PageId pid,
                                                           LockMode mode) {
  SimMutexLock lock(mu_);
  if (Conflict(uses_, &Uses::pages, pid, mode, txn)) {
    return Acquire::kLocalConflict;
  }
  auto pit = page_locks_.find(pid);
  if (pit != page_locks_.end() && Covers(pit->second, mode)) {
    RegisterUse(&uses_, &Uses::pages, pid, txn, mode);
    return Acquire::kHit;
  }
  // A page request also conflicts with other local transactions' uses of
  // objects on the page.
  for (const auto& [other, u] : uses_) {
    if (other == txn) continue;
    for (const auto& [oid, used] : ObjectsOnPage(u.objects, pid)) {
      if (!Compatible(used, mode)) return Acquire::kLocalConflict;
    }
  }
  return Acquire::kMiss;
}

void LocalLockManager::AddObjectLock(TxnId txn, ObjectId oid, LockMode mode) {
  SimMutexLock lock(mu_);
  LockMode& held = object_locks_[oid];
  held = std::max(held, mode);
  RegisterUse(&uses_, &Uses::objects, oid, txn, mode);
}

void LocalLockManager::AddPageLock(TxnId txn, PageId pid, LockMode mode) {
  SimMutexLock lock(mu_);
  LockMode& held = page_locks_[pid];
  held = std::max(held, mode);
  RegisterUse(&uses_, &Uses::pages, pid, txn, mode);
}

void LocalLockManager::OnTxnEnd(TxnId txn) {
  SimMutexLock lock(mu_);
  uses_.erase(txn);
}

bool LocalLockManager::CanReleaseObject(ObjectId oid) const {
  SimMutexLock lock(mu_);
  return !Conflict(uses_, &Uses::objects, oid, LockMode::kExclusive);
}

bool LocalLockManager::CanDowngradeObject(ObjectId oid) const {
  SimMutexLock lock(mu_);
  return !Conflict(uses_, &Uses::objects, oid, LockMode::kShared);
}

bool LocalLockManager::CanDeescalatePage(PageId pid) const {
  SimMutexLock lock(mu_);
  // Structural updates register the transaction as an X user of the page
  // lock; de-escalation must wait for them.
  return !Conflict(uses_, &Uses::pages, pid, LockMode::kShared);
}

void LocalLockManager::ReleaseObject(ObjectId oid) {
  SimMutexLock lock(mu_);
  object_locks_.erase(oid);
  DropUses(&uses_, &Uses::objects, oid);
}

void LocalLockManager::DowngradeObject(ObjectId oid) {
  SimMutexLock lock(mu_);
  auto it = object_locks_.find(oid);
  if (it != object_locks_.end()) it->second = LockMode::kShared;
}

void LocalLockManager::ReleasePage(PageId pid) {
  SimMutexLock lock(mu_);
  page_locks_.erase(pid);
  DropUses(&uses_, &Uses::pages, pid);
}

void LocalLockManager::DowngradePage(PageId pid) {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  if (pit != page_locks_.end()) pit->second = LockMode::kShared;
}

std::vector<std::pair<ObjectId, LockMode>> LocalLockManager::Deescalate(
    PageId pid) {
  SimMutexLock lock(mu_);
  std::vector<std::pair<ObjectId, LockMode>> promoted;
  if (page_locks_.erase(pid) == 0) return promoted;
  // Uses of the page lock end with it: a page read under a page-S lock did
  // not touch identified objects. Object accesses made implicit entries
  // below, which keep their uses.
  DropUses(&uses_, &Uses::pages, pid);
  for (const auto& [oid, held] : ObjectsOnPage(object_locks_, pid)) {
    promoted.emplace_back(oid, held);
  }
  return promoted;
}

size_t LocalLockManager::ExclusiveObjectCountOnPage(PageId pid) const {
  SimMutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [oid, held] : ObjectsOnPage(object_locks_, pid)) {
    if (held == LockMode::kExclusive) ++n;
  }
  return n;
}

bool LocalLockManager::ExclusiveObjectInUseOnPage(PageId pid) const {
  SimMutexLock lock(mu_);
  for (const auto& [txn, u] : uses_) {
    for (const auto& [oid, used] : ObjectsOnPage(u.objects, pid)) {
      if (object_locks_.at(oid) == LockMode::kExclusive) return true;
    }
  }
  return false;
}

bool LocalLockManager::CoversObject(ObjectId oid, LockMode mode) const {
  SimMutexLock lock(mu_);
  auto it = object_locks_.find(oid);
  if (it != object_locks_.end() && Covers(it->second, mode)) return true;
  auto pit = page_locks_.find(oid.page);
  return pit != page_locks_.end() && Covers(pit->second, mode);
}

bool LocalLockManager::CoversPage(PageId pid, LockMode mode) const {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  return pit != page_locks_.end() && Covers(pit->second, mode);
}

bool LocalLockManager::HasAnyLockOnPage(PageId pid) const {
  SimMutexLock lock(mu_);
  return page_locks_.count(pid) > 0 ||
         !ObjectsOnPage(object_locks_, pid).empty();
}

LocalLockManager::Snapshot LocalLockManager::GetSnapshot() const {
  SimMutexLock lock(mu_);
  Snapshot snap;
  snap.objects.assign(object_locks_.begin(), object_locks_.end());
  snap.pages.assign(page_locks_.begin(), page_locks_.end());
  return snap;
}

void LocalLockManager::Clear() {
  SimMutexLock lock(mu_);
  object_locks_.clear();
  page_locks_.clear();
  uses_.clear();
}

}  // namespace finelog
