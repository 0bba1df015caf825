// LocalLockManager (LLM): a client's lock table (Section 2).
//
// The LLM caches locks across transaction boundaries (inter-transaction
// caching): when a transaction ends, its locks stay in the table with no
// active users and can be re-used by later local transactions without any
// server interaction. A lock request that cannot be satisfied locally is a
// *miss* and must be forwarded to the server's GLM.
//
// A cached lock is only its mode. What local transactions use is kept per
// open transaction: the objects and pages it registered on, each in the
// strongest mode it asked for. A transaction's end drops its uses at once,
// at the cost of what it touched rather than of the table; releasing or
// de-escalating an entry drops every use of it. Incoming callbacks are
// evaluated against the uses:
//   - a release callback (remote X request) is denied while any local
//     transaction actively uses the object;
//   - a downgrade callback (remote S request) is denied only while a local
//     transaction holds the object for writing;
//   - a page de-escalation callback is denied while a local transaction has
//     performed (uncommitted) structural updates under the page lock.
//
// Objects accessed under the cover of a page lock get *implicit* object
// entries; on de-escalation the implicit entries are promoted and reported
// to the server ("each LLM maintains a list of the objects accessed by local
// transactions, and this list is used in order to obtain object-level
// locks", Section 3.2).

#ifndef FINELOG_LOCK_LLM_H_
#define FINELOG_LOCK_LLM_H_

#include <map>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "lock/lock_mode.h"

namespace finelog {

class FINELOG_SHARED_STATE_CLASS LocalLockManager {
 public:
  enum class Acquire {
    kHit,           // Granted from the local table.
    kMiss,          // Must be forwarded to the server.
    kLocalConflict, // Conflicts with another local transaction.
  };

  // What one open transaction uses, each key in the strongest mode asked.
  struct Uses {
    std::map<ObjectId, LockMode> objects;
    std::map<PageId, LockMode> pages;
  };

  LocalLockManager() = default;
  LocalLockManager(const LocalLockManager&) = delete;
  LocalLockManager& operator=(const LocalLockManager&) = delete;

  // Lock acquisition --------------------------------------------------------

  Acquire TryAcquireObject(TxnId txn, ObjectId oid, LockMode mode);
  Acquire TryAcquirePage(TxnId txn, PageId pid, LockMode mode);

  // Installs a lock granted by the server and registers `txn` as a user.
  void AddObjectLock(TxnId txn, ObjectId oid, LockMode mode);
  void AddPageLock(TxnId txn, PageId pid, LockMode mode);

  // Transaction end (commit or abort): locks remain cached with no users.
  void OnTxnEnd(TxnId txn);

  // Callback evaluation -----------------------------------------------------

  // Remote X request on `oid`: can we give the lock up entirely?
  bool CanReleaseObject(ObjectId oid) const;
  // Remote S request on `oid` held here in X: can we demote to S?
  bool CanDowngradeObject(ObjectId oid) const;
  // Remote conflicting request on page `pid`: can we trade the page lock for
  // object locks?
  bool CanDeescalatePage(PageId pid) const;

  void ReleaseObject(ObjectId oid);
  void DowngradeObject(ObjectId oid);
  void ReleasePage(PageId pid);
  void DowngradePage(PageId pid);

  // De-escalation: drops the page lock and promotes all accessed objects on
  // the page to explicit object locks; returns them (with their modes) so
  // the client can report them to the server.
  std::vector<std::pair<ObjectId, LockMode>> Deescalate(PageId pid);

  // Escalation support: number of objects on `pid` this client holds in X.
  size_t ExclusiveObjectCountOnPage(PageId pid) const;
  // Page X callback support: true while a local transaction uses an object
  // of `pid` that this client holds in X.
  bool ExclusiveObjectInUseOnPage(PageId pid) const;

  // Queries ------------------------------------------------------------------

  bool CoversObject(ObjectId oid, LockMode mode) const;
  bool CoversPage(PageId pid, LockMode mode) const;
  bool HasAnyLockOnPage(PageId pid) const;

  // Snapshot of all entries (for GLM reconstruction after a server crash,
  // Section 3.4). Implicit entries are included.
  struct Snapshot {
    std::vector<std::pair<ObjectId, LockMode>> objects;
    std::vector<std::pair<PageId, LockMode>> pages;
  };
  Snapshot GetSnapshot() const;

  // Client crash: the table is volatile.
  void Clear();

  size_t size() const {
    SimMutexLock lock(mu_);
    return object_locks_.size() + page_locks_.size();
  }

 private:
  mutable SimMutex mu_;
  std::map<ObjectId, LockMode> object_locks_ FINELOG_GUARDED_BY(mu_);
  std::map<PageId, LockMode> page_locks_ FINELOG_GUARDED_BY(mu_);
  // Open transactions only: OnTxnEnd erases the transaction's entry.
  std::map<TxnId, Uses> uses_ FINELOG_GUARDED_BY(mu_);
};

}  // namespace finelog

#endif  // FINELOG_LOCK_LLM_H_
