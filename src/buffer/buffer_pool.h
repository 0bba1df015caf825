// BufferPool: a steal/no-force page cache with LRU replacement, used both by
// clients (local page cache) and by the server (Section 2).
//
// "Steal": a dirty page may be evicted at any time -- the eviction handler
// supplied by the owner performs the WAL-protected ship/write. "No-force":
// commits never force pages out; only replacement does.
//
// Frames carry the bookkeeping the client-side protocol needs:
//  - `modified_slots`: objects changed since the page was last shipped to
//    the server (the "little more book-keeping" of Section 3.1 that makes
//    merging page copies possible);
//  - `structurally_modified`: a non-mergeable update happened since the last
//    ship (the whole page image matters, not just listed slots);
//  - `ship_log_lsn`: the client's end-of-log when the page was last shipped
//    (Section 3.6 uses it to advance the DPT RedoLSN on flush notification).
// The server ignores these fields.

#ifndef FINELOG_BUFFER_BUFFER_POOL_H_
#define FINELOG_BUFFER_BUFFER_POOL_H_

#include <functional>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace finelog {

class FINELOG_SHARED_STATE_CLASS BufferPool {
 public:
  struct Frame {
    explicit Frame(Page p) : page(std::move(p)) {}
    Page page;
    bool dirty = false;
    int pin_count = 0;  // Pinned frames are never evicted.
    std::set<SlotId> modified_slots;
    bool structurally_modified = false;
    Lsn ship_log_lsn = kNullLsn;
  };

  // Called with the victim frame before it is dropped; must persist it as
  // appropriate (ship to server / write to disk). A failure aborts the
  // insertion that triggered the eviction.
  using EvictHandler = std::function<Status(PageId, Frame&)>;

  explicit BufferPool(uint32_t capacity) : capacity_(capacity) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Looks up a page, refreshing its LRU position. Returns nullptr if absent.
  Frame* Get(PageId pid);

  // Looks up without touching LRU state.
  Frame* Peek(PageId pid);
  const Frame* Peek(PageId pid) const;

  // Inserts (or replaces) a page, evicting the LRU unpinned frame if the
  // pool is full. Returns the inserted frame.
  Result<Frame*> Put(PageId pid, Page page, const EvictHandler& evict);

  // Evicts one specific page through the handler (used by the log space
  // manager, Section 3.6, which replaces the min-RedoLSN page on purpose).
  Status Evict(PageId pid, const EvictHandler& evict);

  // Drops a page without calling the eviction handler.
  void Drop(PageId pid);

  void Pin(PageId pid);
  void Unpin(PageId pid);
  bool IsPinned(PageId pid) const;

  std::vector<PageId> PageIds() const;
  bool Contains(PageId pid) const { return frames_.count(pid) > 0; }
  size_t size() const { return frames_.size(); }
  uint32_t capacity() const { return capacity_; }

  // Crash: the pool is volatile.
  void Clear();

 private:
  void Touch(PageId pid);
  Status EvictOne(const EvictHandler& evict);

  // The pool deliberately carries NO capability of its own: eviction calls
  // back into the owner (WAL force + page ship, which in the real-clock mode
  // waits for the server token), so a pool-level lock would be held across
  // that wait and deadlock against the token holder delivering callbacks
  // into the owner. Serialization comes from the owning Client's /
  // Server's capability, which every path into the pool already holds.
  uint32_t capacity_ FINELOG_UNGUARDED("immutable after construction");
  std::unordered_map<PageId, Frame> frames_
      FINELOG_UNGUARDED("serialized by the owning Client/Server capability; "
                        "eviction re-enters the RPC plane");
  // Front = most recently used.
  std::list<PageId> lru_
      FINELOG_UNGUARDED("serialized by the owning Client/Server capability; "
                        "eviction re-enters the RPC plane");
  std::unordered_map<PageId, std::list<PageId>::iterator> lru_pos_
      FINELOG_UNGUARDED("serialized by the owning Client/Server capability; "
                        "eviction re-enters the RPC plane");
};

}  // namespace finelog

#endif  // FINELOG_BUFFER_BUFFER_POOL_H_
