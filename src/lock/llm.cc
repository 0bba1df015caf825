#include "lock/llm.h"

namespace finelog {

namespace {

// True if `txn` could not use the entry in `mode` because another local
// transaction is using it incompatibly.
bool LocalConflict(const LocalLockManager::Entry& e, TxnId txn, LockMode mode) {
  if (mode == LockMode::kExclusive) {
    for (TxnId t : e.readers) {
      if (t != txn) return true;
    }
  }
  for (TxnId t : e.writers) {
    if (t != txn) return true;
  }
  return false;
}

void RegisterUse(LocalLockManager::Entry* e, TxnId txn, LockMode mode) {
  if (mode == LockMode::kExclusive) {
    e->writers.insert(txn);
  } else {
    e->readers.insert(txn);
  }
}

}  // namespace

LocalLockManager::Entry* LocalLockManager::FindObject(ObjectId oid) {
  auto it = object_locks_.find(oid);
  return it == object_locks_.end() ? nullptr : &it->second;
}
const LocalLockManager::Entry* LocalLockManager::FindObject(ObjectId oid) const {
  auto it = object_locks_.find(oid);
  return it == object_locks_.end() ? nullptr : &it->second;
}

LocalLockManager::Acquire LocalLockManager::TryAcquireObject(TxnId txn,
                                                             ObjectId oid,
                                                             LockMode mode) {
  SimMutexLock lock(mu_);
  Entry* e = FindObject(oid);
  if (e != nullptr && Covers(e->mode, mode)) {
    if (LocalConflict(*e, txn, mode)) return Acquire::kLocalConflict;
    RegisterUse(e, txn, mode);
    return Acquire::kHit;
  }
  // Check page-level coverage.
  auto pit = page_locks_.find(oid.page);
  if (pit != page_locks_.end() && Covers(pit->second.mode, mode)) {
    if (LocalConflict(pit->second, txn, mode)) return Acquire::kLocalConflict;
    if (e != nullptr && LocalConflict(*e, txn, mode)) {
      return Acquire::kLocalConflict;
    }
    // Record an implicit object entry under the page lock.
    Entry& imp = object_locks_[oid];
    if (e == nullptr || mode == LockMode::kExclusive) imp.mode = mode;
    RegisterUse(&imp, txn, mode);
    return Acquire::kHit;
  }
  // Local upgrade path or plain miss: if another local transaction is using
  // the current entry incompatibly with the upgrade, report the conflict
  // now rather than involving the server.
  if (e != nullptr && LocalConflict(*e, txn, mode)) {
    return Acquire::kLocalConflict;
  }
  return Acquire::kMiss;
}

LocalLockManager::Acquire LocalLockManager::TryAcquirePage(TxnId txn,
                                                           PageId pid,
                                                           LockMode mode) {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  if (pit != page_locks_.end() && Covers(pit->second.mode, mode)) {
    if (LocalConflict(pit->second, txn, mode)) return Acquire::kLocalConflict;
    RegisterUse(&pit->second, txn, mode);
    return Acquire::kHit;
  }
  if (pit != page_locks_.end() && LocalConflict(pit->second, txn, mode)) {
    return Acquire::kLocalConflict;
  }
  // A page request also conflicts with other local transactions' object
  // locks on the page.
  for (const auto& [oid, entry] : ObjectsOnPage(object_locks_, pid)) {
    if (LocalConflict(entry, txn, mode)) return Acquire::kLocalConflict;
  }
  return Acquire::kMiss;
}

void LocalLockManager::AddObjectLock(TxnId txn, ObjectId oid, LockMode mode) {
  SimMutexLock lock(mu_);
  Entry& e = object_locks_[oid];
  if (e.mode != LockMode::kExclusive) e.mode = mode;
  RegisterUse(&e, txn, mode);
}

void LocalLockManager::AddPageLock(TxnId txn, PageId pid, LockMode mode) {
  SimMutexLock lock(mu_);
  Entry& e = page_locks_[pid];
  if (e.mode != LockMode::kExclusive) e.mode = mode;
  RegisterUse(&e, txn, mode);
}

void LocalLockManager::OnTxnEnd(TxnId txn) {
  SimMutexLock lock(mu_);
  for (auto& [oid, e] : object_locks_) {
    (void)oid;
    e.readers.erase(txn);
    e.writers.erase(txn);
  }
  for (auto& [pid, e] : page_locks_) {
    (void)pid;
    e.readers.erase(txn);
    e.writers.erase(txn);
  }
}

bool LocalLockManager::CanReleaseObject(ObjectId oid) const {
  SimMutexLock lock(mu_);
  const Entry* e = FindObject(oid);
  return e == nullptr || !e->InUse();
}

bool LocalLockManager::CanDowngradeObject(ObjectId oid) const {
  SimMutexLock lock(mu_);
  const Entry* e = FindObject(oid);
  return e == nullptr || e->writers.empty();
}

bool LocalLockManager::CanDeescalatePage(PageId pid) const {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  // Structural updates register the transaction as a writer of the page
  // lock; de-escalation must wait for them.
  return pit == page_locks_.end() || pit->second.writers.empty();
}

void LocalLockManager::ReleaseObject(ObjectId oid) {
  SimMutexLock lock(mu_);
  object_locks_.erase(oid);
}

void LocalLockManager::DowngradeObject(ObjectId oid) {
  SimMutexLock lock(mu_);
  Entry* e = FindObject(oid);
  if (e != nullptr) e->mode = LockMode::kShared;
}

void LocalLockManager::ReleasePage(PageId pid) {
  SimMutexLock lock(mu_);
  page_locks_.erase(pid);
}

void LocalLockManager::DowngradePage(PageId pid) {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  if (pit != page_locks_.end()) pit->second.mode = LockMode::kShared;
}

std::vector<std::pair<ObjectId, LockMode>> LocalLockManager::Deescalate(
    PageId pid) {
  SimMutexLock lock(mu_);
  std::vector<std::pair<ObjectId, LockMode>> promoted;
  auto pit = page_locks_.find(pid);
  if (pit == page_locks_.end()) return promoted;
  // Readers of the page lock become readers of... nothing specific: a page
  // read under a page-S lock did not touch identified objects. Object
  // accesses made implicit entries below, which carry the users.
  page_locks_.erase(pit);
  for (const auto& [oid, e] : ObjectsOnPage(object_locks_, pid)) {
    promoted.emplace_back(oid, e.mode);
  }
  return promoted;
}

size_t LocalLockManager::ExclusiveObjectCountOnPage(PageId pid) const {
  SimMutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [oid, e] : ObjectsOnPage(object_locks_, pid)) {
    if (e.mode == LockMode::kExclusive) ++n;
  }
  return n;
}

bool LocalLockManager::ExclusiveObjectInUseOnPage(PageId pid) const {
  SimMutexLock lock(mu_);
  for (const auto& [oid, e] : ObjectsOnPage(object_locks_, pid)) {
    if (e.mode == LockMode::kExclusive && e.InUse()) return true;
  }
  return false;
}

bool LocalLockManager::CoversObject(ObjectId oid, LockMode mode) const {
  SimMutexLock lock(mu_);
  const Entry* e = FindObject(oid);
  if (e != nullptr && Covers(e->mode, mode)) return true;
  auto pit = page_locks_.find(oid.page);
  return pit != page_locks_.end() && Covers(pit->second.mode, mode);
}

bool LocalLockManager::CoversPage(PageId pid, LockMode mode) const {
  SimMutexLock lock(mu_);
  auto pit = page_locks_.find(pid);
  return pit != page_locks_.end() && Covers(pit->second.mode, mode);
}

bool LocalLockManager::HasAnyLockOnPage(PageId pid) const {
  SimMutexLock lock(mu_);
  return page_locks_.count(pid) > 0 ||
         !ObjectsOnPage(object_locks_, pid).empty();
}

LocalLockManager::Snapshot LocalLockManager::GetSnapshot() const {
  SimMutexLock lock(mu_);
  Snapshot snap;
  for (const auto& [oid, e] : object_locks_) {
    snap.objects.emplace_back(oid, e.mode);
  }
  for (const auto& [pid, e] : page_locks_) {
    snap.pages.emplace_back(pid, e.mode);
  }
  return snap;
}

void LocalLockManager::Clear() {
  SimMutexLock lock(mu_);
  object_locks_.clear();
  page_locks_.clear();
}

}  // namespace finelog
