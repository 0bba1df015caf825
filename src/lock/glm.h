// GlobalLockManager (GLM): the server's lock table (Section 2).
//
// The GLM tracks, per object and per page, which *clients* hold which lock
// modes (transaction-level bookkeeping stays in each client's LLM, because
// locks are cached by clients across transaction boundaries). Lock requests
// are evaluated against both levels of the hierarchy, per Section 3.2:
//
//  - Object-level conflict: conflicting holders must release (X request) or
//    downgrade (S request against an X holder), shipping their page copy.
//  - Page-level conflict: holders of a conflicting page lock de-escalate to
//    object locks first; the request is then re-evaluated at object level.
//
// The GLM is pure bookkeeping: it *describes* the callbacks required as data
// (CallbackAction) and the server executes them, reporting results back via
// Grant/Release/Downgrade/ApplyDeescalation. This keeps the protocol logic
// testable without a network or clients.

#ifndef FINELOG_LOCK_GLM_H_
#define FINELOG_LOCK_GLM_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "lock/lock_mode.h"

namespace finelog {

// One callback the server must deliver before a lock can be granted.
struct CallbackAction {
  enum class What {
    kReleaseObject,    // X-mode callback: holder releases its object lock.
    kDowngradeObject,  // S-mode callback: X holder demotes to S.
    kDeescalatePage,   // Page-lock holder trades its page lock for object locks.
  };
  What what;
  ClientId target = kInvalidClientId;
  ObjectId object;            // For object callbacks.
  PageId page = kInvalidPageId;  // For de-escalation.
  LockMode holder_mode = LockMode::kShared;  // Mode currently held by target.
  LockMode requested = LockMode::kShared;    // Mode the requester wants.
};

class FINELOG_SHARED_STATE_CLASS GlobalLockManager {
 public:
  GlobalLockManager() = default;

  GlobalLockManager(const GlobalLockManager&) = delete;
  GlobalLockManager& operator=(const GlobalLockManager&) = delete;

  // Computes the callbacks needed before `client` can hold `mode` on the
  // object. An empty result means the lock is immediately grantable.
  std::vector<CallbackAction> RequiredForObject(ClientId client, ObjectId oid,
                                                LockMode mode) const;

  // Same for a page-level request: conflicts come from other clients' page
  // locks and their object locks on the page.
  std::vector<CallbackAction> RequiredForPage(ClientId client, PageId pid,
                                              LockMode mode) const;

  // State mutations, applied by the server once callbacks succeed.
  void GrantObject(ClientId client, ObjectId oid, LockMode mode);
  void GrantPage(ClientId client, PageId pid, LockMode mode);
  void ReleaseObject(ClientId client, ObjectId oid);
  void DowngradeObject(ClientId client, ObjectId oid);
  void ReleasePage(ClientId client, PageId pid);
  void DowngradePage(ClientId client, PageId pid);
  // Removes the page lock and installs the object locks the client reported
  // for its active transactions (Section 3.2, page-level conflict case).
  void ApplyDeescalation(ClientId client, PageId pid,
                         const std::vector<ObjectId>& object_locks,
                         LockMode mode);

  // Client crash (Section 3.3): shared locks are released; exclusive locks
  // are retained so the recovering client can re-install them.
  void ReleaseSharedLocksOf(ClientId client);
  // Exclusive object locks held by `client`, in (page, slot) order (used for
  // lock re-installation and zombie fencing).
  std::vector<ObjectId> ExclusiveObjectLocksOf(ClientId client) const;
  std::vector<PageId> ExclusivePageLocksOf(ClientId client) const;

  // Full reset (server crash loses the GLM; Section 3.4 rebuilds it from
  // client LLM snapshots via GrantObject/GrantPage).
  void Clear();

  // Queries.
  bool HoldsObject(ClientId client, ObjectId oid, LockMode mode) const;
  bool HoldsPage(ClientId client, PageId pid, LockMode mode) const;
  // True if `client` holds an exclusive lock on some object of page `pid`.
  bool HoldsExclusiveObjectOnPage(ClientId client, PageId pid) const;

 private:
  // client -> mode, per lockable. The object table is ordered by (page,
  // slot), so one page's object locks are the contiguous range starting at
  // lower_bound(ObjectId{pid, 0}); per-page queries read that range and
  // nothing else. The page table is a hash map: it is only ever probed by
  // key. The inner holder maps are ordered: callback actions are generated
  // by iterating them, and their order is part of the protocol's
  // deterministic behavior.
  // Guarded by the owning Server's mu_ in spirit; the GLM carries its own
  // capability so it stays checkable when sharding gives each shard a GLM.
  mutable SimMutex mu_;
  std::map<ObjectId, std::map<ClientId, LockMode>> object_locks_
      FINELOG_GUARDED_BY(mu_);
  std::unordered_map<PageId, std::map<ClientId, LockMode>> page_locks_
      FINELOG_GUARDED_BY(mu_);
};

}  // namespace finelog

#endif  // FINELOG_LOCK_GLM_H_
