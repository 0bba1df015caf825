// Seeded-bad fixture for the finelog-check `wal-before-mutate` rule, one
// level up from the Page primitives: a helper that is not a Page method but
// is itself FINELOG_MUTATES_PAGE (as Client::ApplyRedo and ForceSlotValue
// are) hands the WAL obligation to every caller. A caller that applies a
// record without appending it must be flagged.
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program.
#include "common/annotations.h"

namespace finelog {

class Page {
 public:
  FINELOG_MUTATES_PAGE Status WriteObject(SlotId slot, Slice data);
};

class Applier {
 public:
  // Pushes the obligation up: applies a change that the caller must log.
  static FINELOG_MUTATES_PAGE Status Apply(Page* page, const LogRecord& rec);

  Status ChangeWithoutLogging(Page* page, const LogRecord& rec);
};

Status Applier::Apply(Page* page, const LogRecord& rec) {
  return page->WriteObject(rec.slot, rec.redo);
}

// BAD: applies the change but never appends `rec`, so a crash would lose an
// update that other clients may already have seen through a ship.
Status Applier::ChangeWithoutLogging(Page* page, const LogRecord& rec) {
  return Apply(page, rec);
}

}  // namespace finelog
