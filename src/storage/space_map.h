// SpaceMap: the server's space allocation map.
//
// Following Mohan & Narang [18] (as adopted in Section 2 of the paper), the
// map remembers, for every page, the PSN the page had when it was last
// deallocated. A newly (re)allocated page is initialized with a PSN strictly
// greater than any PSN the page ever carried, preserving PSN monotonicity
// across deallocate/reallocate cycles.
//
// The map is tiny (a few bytes per page), so this implementation persists it
// synchronously on every mutation instead of logging map updates; the
// durability behaviour visible to the recovery algorithms is identical.

#ifndef FINELOG_STORAGE_SPACE_MAP_H_
#define FINELOG_STORAGE_SPACE_MAP_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace finelog {

class SpaceMap {
 public:
  SpaceMap(const SpaceMap&) = delete;
  SpaceMap& operator=(const SpaceMap&) = delete;

  // Opens (or creates) the map at `path` covering `num_pages` pages.
  static Result<std::unique_ptr<SpaceMap>> Open(const std::string& path,
                                                uint32_t num_pages);

  // Allocates a free page. The returned PSN must be installed on the fresh
  // page (it is one greater than the PSN recorded at last deallocation).
  struct Allocation {
    PageId page;
    Psn initial_psn;
  };
  Result<Allocation> AllocatePage();

  // Allocates `n` free pages (all or none) in memory only; Persist() makes
  // them durable. The bootstrap preload persists once, after the last page
  // write, so a preload that fails part-way leaves the on-disk map empty.
  Result<std::vector<Allocation>> AllocatePagesInMemory(uint32_t n);
  Status Persist() const;

  // Deallocates `page`, recording `final_psn` for future reallocations.
  Status DeallocatePage(PageId page, Psn final_psn);

  bool IsAllocated(PageId page) const;

  // The PSN a recovered-from-nothing incarnation of `page` must start at:
  // the PSN recorded at allocation time (Section 2 / [18]). Only valid for
  // allocated pages.
  Result<Psn> BasePsn(PageId page) const;
  uint32_t num_pages() const { return static_cast<uint32_t>(entries_.size()); }
  uint32_t allocated_count() const;

 private:
  struct Entry {
    bool allocated = false;
    Psn last_psn;
  };

  explicit SpaceMap(std::string path) : path_(std::move(path)) {}

  Status Load(uint32_t num_pages);

  std::string path_;
  std::vector<Entry> entries_;
};

}  // namespace finelog

#endif  // FINELOG_STORAGE_SPACE_MAP_H_
