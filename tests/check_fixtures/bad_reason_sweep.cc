// Seeded-bad fixture for the `would-block-sweep` rule: the enum declares
// kRecoveringPage (the instant-restart degraded-path reason) but the
// WouldBlockReasonName table forgot its case, so Status::ToString() would
// print "Unknown" exactly where an operator most needs to see why a
// request was refused. The stale kRetiredReason case is the drift in the
// other direction. Parsed (not compiled) by the checker self-test.

namespace finelog {

enum class WouldBlockReason : uint8_t {
  kNone = 0,
  kLockConflict,
  kRecoveringPage,  // BAD: no case below.
};

std::string_view WouldBlockReasonName(WouldBlockReason reason) {
  switch (reason) {
    case WouldBlockReason::kNone: return "None";
    case WouldBlockReason::kLockConflict: return "LockConflict";
    case WouldBlockReason::kRetiredReason: return "Retired";  // BAD: stale.
  }
  return "Unknown";
}

}  // namespace finelog
