// Seeded-bad fixture for the finelog-check `shared-state-annotations` rule:
// every non-static data member of a FINELOG_SHARED_STATE_CLASS must carry
// FINELOG_GUARDED_BY / FINELOG_PT_GUARDED_BY or an explicit
// FINELOG_UNGUARDED("reason"); only the SimMutex capability member (mu_) is
// exempt.
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program.
#include "common/annotations.h"

namespace finelog {

class FINELOG_SHARED_STATE_CLASS LeaseCache {
 public:
  LeaseCache() = default;

 private:
  SimMutex mu_;
  std::map<ClientId, uint64_t> deadlines_ FINELOG_GUARDED_BY(mu_);
  // BAD: shared field with neither a guard nor an UNGUARDED justification;
  // the real-clock mode would race on it invisibly.
  std::set<ClientId> presumed_dead_;
};

}  // namespace finelog
