// DiskManager: the server's database disk. Pages are written in place
// (Section 2: "modified pages that are replaced from the server cache are
// written in-place to disk").
//
// In-place writes are torn-write-atomic via a single-slot doublewrite
// journal (a ".journal" sidecar file): every WritePage first writes the full
// page image to the journal slot and flushes it, then writes in place, then
// invalidates the slot. Open() replays a valid journal slot before anything
// else, so a write interrupted mid-page (fault injection or a real crash)
// resolves to either the complete old or the complete new page image --
// never a CRC-invalid hybrid. The page's own checksum decides journal-slot
// validity.

#ifndef FINELOG_STORAGE_DISK_MANAGER_H_
#define FINELOG_STORAGE_DISK_MANAGER_H_

#include <cstdio>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"
#include "util/fault.h"

namespace finelog {

class LogSink;

// Fault-injection and durability wiring for one database disk. `name` prefixes the
// fail-points: "<name>.journal" (doublewrite slot write), "<name>.page"
// (in-place write) and "<name>.sync" (final flush). `debug_skip_journal_replay`
// is a deliberately broken recovery mode for harness self-tests: Open()
// ignores a valid journal slot, leaving an injected torn in-place write as a
// corrupt page on disk.
struct DiskIoOptions {
  FaultInjector* injector = nullptr;
  // Durability seam (DESIGN.md section 17): null keeps the simulation's
  // fflush-only boundary; the real-clock mode passes a DurableSink so the
  // journal slot and the in-place write are fdatasync'd in order.
  LogSink* sink = nullptr;
  std::string name = "disk";
  bool debug_skip_journal_replay = false;
};

class DiskManager {
 public:
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;
  ~DiskManager();

  // Opens (or creates) the database file at `path`, replaying the
  // doublewrite journal if a previous write was interrupted.
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path,
                                                   uint32_t page_size,
                                                   const DiskIoOptions& io = {});

  // Reads page `pid` into `out` and verifies its checksum. A page that was
  // never written -- past EOF, or a zero-filled gap below it -- is NotFound;
  // any other checksum failure (a torn or bit-flipped page) is Corruption.
  Status ReadPage(PageId pid, Page* out);

  // Writes `page` in place through the doublewrite journal. Computes the
  // checksum before writing and flushes to the file so the bytes survive a
  // simulated server crash.
  Status WritePage(PageId pid, Page* page);

  // True if `pid` lies below the file's end. It may be a never-written
  // zero gap; ReadPage tells the two apart.
  bool PageOnDisk(PageId pid) const;

  uint32_t page_size() const { return page_size_; }

 private:
  static constexpr uint32_t kJournalMagic = 0xD0B1E;

  DiskManager(std::FILE* f, std::FILE* journal, uint32_t page_size,
              const DiskIoOptions& io)
      : file_(f), journal_(journal), page_size_(page_size), io_(io) {}

  // Writes `page` at its in-place offset and flushes. Shared by WritePage
  // and journal replay.
  Status WriteInPlace(PageId pid, const std::string& raw);

  // If the journal slot holds a complete, checksummed page image, re-issues
  // its in-place write (idempotent) and invalidates the slot.
  Status ReplayJournal();
  Status InvalidateJournal();

  std::FILE* file_;
  std::FILE* journal_;
  uint32_t page_size_;
  DiskIoOptions io_;
  uint64_t file_pages_ = 0;  // Number of page-sized extents in the file.
};

}  // namespace finelog

#endif  // FINELOG_STORAGE_DISK_MANAGER_H_
