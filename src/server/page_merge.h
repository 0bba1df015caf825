// Page copy merging (Sections 2 and 3.1).
//
// finelog resolves concurrent updates to different objects of the same page
// by merging *page copies* (not log records). The sender ships the set of
// slots it modified since its last ship; the receiver overlays exactly those
// objects onto its own copy and sets PSN = max(PSN_local, PSN_incoming) + 1.
// The +1 guarantees strictly increasing PSNs even when two copies carry the
// same PSN value (Section 2).
//
// Structural (non-mergeable) modifications were made under a page-level
// exclusive lock, so the incoming image is strictly newer than the local
// copy and replaces it wholesale (still bumping the PSN as a merge).

#ifndef FINELOG_SERVER_PAGE_MERGE_H_
#define FINELOG_SERVER_PAGE_MERGE_H_

#include <optional>
#include <string>

#include "common/annotations.h"
#include "common/status.h"
#include "net/endpoints.h"
#include "storage/page.h"

namespace finelog {

// Writes `data` into `slot` of `page` regardless of current size/liveness,
// preserving at least `capacity` bytes of reservation. The one slot-write
// primitive behind merge, install and every logged client change.
FINELOG_MUTATES_PAGE Status ForceSlotValue(Page* page, SlotId slot,
                                           const std::string& data,
                                           uint16_t capacity = 0);

// Copies each of `slots` from `source` onto `local`: the source's value
// (with its reservation), or its absence. The PSN is left to the caller.
template <typename Slots>
FINELOG_MUTATES_PAGE Status OverlaySlots(Page* local, const Page& source,
                                         const Slots& slots) {
  for (SlotId slot : slots) {
    if (source.SlotExists(slot)) {
      auto data = source.ReadObject(slot);
      if (!data.ok()) return data.status();
      FINELOG_RETURN_IF_ERROR(ForceSlotValue(local, slot, data.value(),
                                             source.ObjectCapacity(slot)));
    } else if (local->SlotExists(slot)) {
      FINELOG_RETURN_IF_ERROR(local->DeleteObject(slot));
    }
  }
  return Status::OK();
}

// Merges `incoming` into `local`. `local` must be a copy of the same page.
Status MergeShippedPage(Page* local, const ShippedPage& incoming);

// Installs one object's fresh value into a cached copy of its page (the
// client-side catch-up performed when a lock grant or callback delivers an
// object image, Section 2). `image == nullopt` means the object was deleted.
// `server_psn` is the PSN of the server copy the image came from; the local
// PSN advances to at least that value (but is never inflated past it).
Status InstallObject(Page* local, SlotId slot,
                     const std::optional<std::string>& image, Psn server_psn);

}  // namespace finelog

#endif  // FINELOG_SERVER_PAGE_MERGE_H_
