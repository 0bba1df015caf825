#include "server/page_merge.h"

#include <algorithm>

namespace finelog {

Status ForceSlotValue(Page* page, SlotId slot, const std::string& data,
                      uint16_t capacity) {
  if (page->SlotExists(slot)) {
    if (page->ObjectSize(slot) == data.size()) {
      return page->WriteObject(slot, data);
    }
    return page->ResizeObject(slot, data);
  }
  return page->CreateObjectAt(slot, data, capacity);
}

FINELOG_REPLAY_PATH("merges a shipped copy whose updates the shipping "
                    "client already logged (WAL held at its ship/force)")
Status MergeShippedPage(Page* local, const ShippedPage& incoming) {
  Page in(static_cast<uint32_t>(incoming.image.size()));
  in.raw() = incoming.image;
  if (in.id() != local->id()) {
    return Status::InvalidArgument("merging copies of different pages");
  }
  Psn merged_psn = Psn::Merge(local->psn(), in.psn());
  if (incoming.structural) {
    // The sender held a page-level X lock: its image is authoritative.
    local->raw() = incoming.image;
  } else {
    FINELOG_RETURN_IF_ERROR(OverlaySlots(local, in, incoming.modified_slots));
  }
  local->set_psn(merged_psn);
  return Status::OK();
}

FINELOG_REPLAY_PATH("installs the server-granted object image carried "
                    "by a lock reply; logged by its original writer")
Status InstallObject(Page* local, SlotId slot,
                     const std::optional<std::string>& image, Psn server_psn) {
  if (image.has_value()) {
    FINELOG_RETURN_IF_ERROR(ForceSlotValue(local, slot, *image));
  } else if (local->SlotExists(slot)) {
    FINELOG_RETURN_IF_ERROR(local->DeleteObject(slot));
  }
  // No "+1" here, unlike a copy merge: an install merely catches the local
  // copy up to the server's version. Inflating past the server's PSN would
  // poison the DCT at the next first-X grant (the entry would record a PSN
  // the server never reaches, silently suppressing redo after a crash).
  local->set_psn(std::max(local->psn(), server_psn));
  return Status::OK();
}

}  // namespace finelog
