// Seeded-bad fixture for the finelog-check `wal-before-mutate` rule: a
// function that calls a FINELOG_MUTATES_PAGE primitive must append a log
// record covering the mutation in its own body, push the obligation to its
// callers by being FINELOG_MUTATES_PAGE itself, or carry an explicit
// FINELOG_REPLAY_PATH("reason").
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program:
// it declares its own mutator root, mirroring storage/page.h.
#include "common/annotations.h"

namespace finelog {

class Page {
 public:
  FINELOG_MUTATES_PAGE Status WriteObject(SlotId slot, Slice data);
};

// BAD: mutates page contents with no covering log append and no
// justification annotation. If this committed and the client crashed before
// some later force, the update would be unrecoverable.
Status UnloggedPoke(Page& page, SlotId slot, Slice data) {
  return page.WriteObject(slot, data);
}

}  // namespace finelog
