// Seeded-bad fixture for the finelog-check `rec-plane-flag` rule: a wire
// struct's recovery_plane flag must match its name. The prologue skips the
// mastership and liveness fences for recovery-plane requests and the fault
// model exempts them, so a Rec-named exchange outside the plane (or a data
// plane exchange inside it) is fenced differently from what its name says.
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program.
#include "common/annotations.h"

namespace finelog {

namespace wire {

// BAD: a data-plane lock request marked recovery plane -- a zombie could
// take locks through it without passing the liveness fence.
struct LockObject {
  static constexpr ExchangeSpec kSpec{.endpoint = "lock_object",
                                      .recovery_plane = true};
  ObjectId oid;
};

// BAD: a recovery exchange left on the data plane.
struct RecGetMyDct {
  static constexpr ExchangeSpec kSpec{.endpoint = "rec_get_dct"};
};

}  // namespace wire

}  // namespace finelog
