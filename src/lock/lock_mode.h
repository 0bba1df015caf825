// Lock modes for fine-granularity (object) and page locking, and the
// per-page view of an object-lock table.

#ifndef FINELOG_LOCK_LOCK_MODE_H_
#define FINELOG_LOCK_LOCK_MODE_H_

#include <cstdint>
#include <ranges>

#include "common/types.h"

namespace finelog {

enum class LockMode : uint8_t {
  kShared = 0,
  kExclusive = 1,
};

inline bool Compatible(LockMode a, LockMode b) {
  return a == LockMode::kShared && b == LockMode::kShared;
}

// True if a holder of `held` already covers a request for `wanted`.
inline bool Covers(LockMode held, LockMode wanted) {
  return held == LockMode::kExclusive || wanted == LockMode::kShared;
}

inline const char* LockModeName(LockMode m) {
  return m == LockMode::kShared ? "S" : "X";
}

// The entries of `table`, an ordered map keyed by ObjectId, that lie on page
// `pid`. ObjectIds order by (page, slot), so they are one contiguous range
// starting at slot 0; walking it costs what the page holds, not the table.
template <typename ObjectTable>
auto ObjectsOnPage(ObjectTable& table, PageId pid) {
  return std::ranges::subrange(table.lower_bound(ObjectId{pid, 0}),
                               table.end()) |
         std::views::take_while(
             [pid](const auto& entry) { return entry.first.page == pid; });
}

}  // namespace finelog

#endif  // FINELOG_LOCK_LOCK_MODE_H_
