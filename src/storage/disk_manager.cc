#include "storage/disk_manager.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "common/errno_util.h"
#include "log/log_sink.h"
#include "util/coding.h"

namespace finelog {

namespace {

// Durability tail of every page/journal write: through the configured sink,
// or the historical fflush-only behavior when no sink is wired.
Status SyncThrough(LogSink* sink, std::FILE* file, const std::string& site) {
  if (sink != nullptr) return sink->Sync(file, site);
  std::fflush(file);
  return Status::OK();
}

// Journal slot layout: u32 magic, u32 pid, then the raw page image (whose
// embedded checksum authenticates the slot).
constexpr size_t kJournalHeaderSize = 8;

std::FILE* OpenOrCreate(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) f = std::fopen(path.c_str(), "w+b");
  return f;
}

}  // namespace

DiskManager::~DiskManager() {
  if (file_ != nullptr) std::fclose(file_);
  if (journal_ != nullptr) std::fclose(journal_);
}

Result<std::unique_ptr<DiskManager>> DiskManager::Open(const std::string& path,
                                                       uint32_t page_size,
                                                       const DiskIoOptions& io) {
  std::FILE* f = OpenOrCreate(path);
  if (f == nullptr) {
    return Status::IoError("open " + path + ": " + ErrnoString(errno));
  }
  std::FILE* j = OpenOrCreate(path + ".journal");
  if (j == nullptr) {
    std::fclose(f);
    return Status::IoError("open " + path + ".journal: " +
                           ErrnoString(errno));
  }
  auto dm = std::unique_ptr<DiskManager>(new DiskManager(f, j, page_size, io));
  struct stat st;
  if (fstat(fileno(f), &st) == 0) {
    dm->file_pages_ = static_cast<uint64_t>(st.st_size) / page_size;
  }
  if (!io.debug_skip_journal_replay) {
    FINELOG_RETURN_IF_ERROR(dm->ReplayJournal());
  }
  return dm;
}

bool DiskManager::PageOnDisk(PageId pid) const {
  return pid.value() < file_pages_;
}

Status DiskManager::ReadPage(PageId pid, Page* out) {
  if (!PageOnDisk(pid)) {
    return Status::NotFound("page " + ToString(pid) + " not on disk");
  }
  if (std::fseek(file_, static_cast<long>(pid.value()) * page_size_, SEEK_SET) != 0) {
    return Status::IoError("seek failed");
  }
  out->raw().resize(page_size_);
  if (std::fread(out->raw().data(), 1, page_size_, file_) != page_size_) {
    return Status::IoError("short read for page " + ToString(pid));
  }
  if (!out->VerifyChecksum()) {
    // A never-written page below EOF (a later page was written first) is a
    // zero-filled gap, not damage; a torn or bit-flipped page is not all zero.
    const std::string& raw = out->raw();
    if (std::all_of(raw.begin(), raw.end(), [](char c) { return c == 0; })) {
      return Status::NotFound("page " + ToString(pid) + " never written");
    }
    return Status::Corruption("checksum mismatch on page " + ToString(pid));
  }
  return Status::OK();
}

Status DiskManager::WriteInPlace(PageId pid, const std::string& raw) {
  if (std::fseek(file_, static_cast<long>(pid.value()) * page_size_, SEEK_SET) != 0) {
    return Status::IoError("seek failed");
  }
  if (std::fwrite(raw.data(), 1, page_size_, file_) != page_size_) {
    return Status::IoError("short write for page " + ToString(pid));
  }
  FINELOG_RETURN_IF_ERROR(SyncThrough(io_.sink, file_, io_.name + ".page"));
  if (pid.value() >= file_pages_) file_pages_ = pid.value() + 1;
  return Status::OK();
}

Status DiskManager::InvalidateJournal() {
  // A 4-byte magic overwrite is single-sector and modeled as atomic.
  char zero[4] = {0, 0, 0, 0};
  if (std::fseek(journal_, 0, SEEK_SET) != 0 ||
      std::fwrite(zero, 1, sizeof(zero), journal_) != sizeof(zero)) {
    return Status::IoError("journal invalidate failed");
  }
  return SyncThrough(io_.sink, journal_, io_.name + ".journal");
}

Status DiskManager::ReplayJournal() {
  char hdr[kJournalHeaderSize];
  if (std::fseek(journal_, 0, SEEK_SET) != 0 ||
      std::fread(hdr, 1, kJournalHeaderSize, journal_) != kJournalHeaderSize) {
    return Status::OK();  // Empty or truncated slot: nothing in flight.
  }
  Decoder dec(Slice(hdr, kJournalHeaderSize));
  uint32_t magic = 0;
  PageId pid;
  if (!dec.GetU32(&magic) || magic != kJournalMagic || !dec.GetId(&pid)) {
    return Status::OK();  // Invalidated or torn slot header.
  }
  Page page(page_size_);
  page.raw().resize(page_size_);
  if (std::fread(page.raw().data(), 1, page_size_, journal_) != page_size_ ||
      !page.VerifyChecksum()) {
    return Status::OK();  // Torn journal write: the in-place copy is intact.
  }
  // Complete journal slot: the in-place write may have been torn -- finish
  // it (idempotent if it completed).
  FINELOG_RETURN_IF_ERROR(WriteInPlace(pid, page.raw()));
  return InvalidateJournal();
}

Status DiskManager::WritePage(PageId pid, Page* page) {
  page->UpdateChecksum();

  // Step 1: doublewrite journal. A tear here leaves the slot checksum
  // invalid and the in-place copy untouched.
  std::string slot;
  {
    Encoder enc(&slot);
    enc.PutU32(kJournalMagic);
    enc.PutId(pid);
    enc.PutRaw(page->raw());
  }
  if (io_.injector != nullptr) {
    auto out = io_.injector->Evaluate(io_.name + ".journal", slot.size());
    if (out.action == FaultAction::kError) {
      return Status::IoError("injected fault: " + io_.name + ".journal");
    }
    if (out.action != FaultAction::kNone) {
      if (std::fseek(journal_, 0, SEEK_SET) == 0) {
        std::fwrite(slot.data(), 1, out.cut, journal_);
        std::fflush(journal_);
      }
      return Status::IoError("injected " +
                             std::string(FaultActionName(out.action)) + ": " +
                             io_.name + ".journal");
    }
  }
  if (std::fseek(journal_, 0, SEEK_SET) != 0 ||
      std::fwrite(slot.data(), 1, slot.size(), journal_) != slot.size()) {
    return Status::IoError("journal write failed for page " +
                           ToString(pid));
  }
  FINELOG_RETURN_IF_ERROR(
      SyncThrough(io_.sink, journal_, io_.name + ".journal"));

  // Step 2: in-place write. A tear here is repaired from the journal at the
  // next Open().
  if (io_.injector != nullptr) {
    auto out = io_.injector->Evaluate(io_.name + ".page", page_size_);
    if (out.action == FaultAction::kError) {
      return Status::IoError("injected fault: " + io_.name + ".page");
    }
    if (out.action != FaultAction::kNone) {
      if (std::fseek(file_, static_cast<long>(pid.value()) * page_size_, SEEK_SET) ==
          0) {
        std::fwrite(page->raw().data(), 1, out.cut, file_);
        std::fflush(file_);
        if (pid.value() >= file_pages_) file_pages_ = pid.value() + 1;
      }
      return Status::IoError("injected " +
                             std::string(FaultActionName(out.action)) + ": " +
                             io_.name + ".page");
    }
  }
  FINELOG_RETURN_IF_ERROR(WriteInPlace(pid, page->raw()));

  // Step 3: final sync. An EIO here still leaves the bytes durable in this
  // model; the caller sees the failure and must treat the write as
  // indeterminate.
  if (io_.injector != nullptr) {
    auto out = io_.injector->Evaluate(io_.name + ".sync", 0,
                                      /*allow_torn=*/false);
    if (out.action != FaultAction::kNone) {
      return Status::IoError("injected fault: " + io_.name + ".sync");
    }
  }

  return InvalidateJournal();
}

}  // namespace finelog
