#include "storage/space_map.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/errno_util.h"
#include "util/coding.h"

namespace finelog {

Result<std::unique_ptr<SpaceMap>> SpaceMap::Open(const std::string& path,
                                                 uint32_t num_pages) {
  auto map = std::unique_ptr<SpaceMap>(new SpaceMap(path));
  FINELOG_RETURN_IF_ERROR(map->Load(num_pages));
  return map;
}

Status SpaceMap::Load(uint32_t num_pages) {
  entries_.assign(num_pages, Entry{});
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) {
    return Persist();  // Fresh map.
  }
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);

  Decoder dec((Slice(data)));
  uint32_t count = 0;
  if (!dec.GetU32(&count)) {
    return Status::Corruption("space map truncated");
  }
  if (count > num_pages) entries_.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t alloc;
    Psn psn;
    if (!dec.GetU8(&alloc) || !dec.GetId(&psn)) {
      return Status::Corruption("space map truncated");
    }
    entries_[i] = Entry{alloc != 0, psn};
  }
  return Status::OK();
}

Status SpaceMap::Persist() const {
  std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("open " + tmp + ": " + ErrnoString(errno));
  }
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    enc.PutU8(e.allocated ? 1 : 0);
    enc.PutId(e.last_psn);
  }
  bool ok = std::fwrite(enc.buffer().data(), 1, enc.size(), f) == enc.size();
  std::fclose(f);
  if (!ok) return Status::IoError("short write to " + tmp);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::IoError("rename " + tmp + ": " + ErrnoString(errno));
  }
  return Status::OK();
}

Result<SpaceMap::Allocation> SpaceMap::AllocatePage() {
  FINELOG_ASSIGN_OR_RETURN(auto pages, AllocatePagesInMemory(1));
  FINELOG_RETURN_IF_ERROR(Persist());
  return pages[0];
}

Result<std::vector<SpaceMap::Allocation>> SpaceMap::AllocatePagesInMemory(
    uint32_t n) {
  if (num_pages() - allocated_count() < n) {
    return Status::FailedPrecondition("database full: no free pages");
  }
  std::vector<Allocation> out;
  out.reserve(n);
  for (size_t i = 0; i < entries_.size() && out.size() < n; ++i) {
    if (entries_[i].allocated) continue;
    entries_[i].allocated = true;
    // New incarnation starts past old PSNs.
    entries_[i].last_psn = entries_[i].last_psn.Next();
    out.push_back(
        Allocation{PageId(static_cast<uint32_t>(i)), entries_[i].last_psn});
  }
  return out;
}

Status SpaceMap::DeallocatePage(PageId page, Psn final_psn) {
  if (page.value() >= entries_.size() || !entries_[page.value()].allocated) {
    return Status::NotFound("page not allocated");
  }
  entries_[page.value()].allocated = false;
  entries_[page.value()].last_psn =
      std::max(entries_[page.value()].last_psn, final_psn);
  return Persist();
}

Result<Psn> SpaceMap::BasePsn(PageId page) const {
  if (page.value() >= entries_.size() || !entries_[page.value()].allocated) {
    return Status::NotFound("page not allocated");
  }
  return entries_[page.value()].last_psn;
}

bool SpaceMap::IsAllocated(PageId page) const {
  return page.value() < entries_.size() && entries_[page.value()].allocated;
}

uint32_t SpaceMap::allocated_count() const {
  uint32_t n = 0;
  for (const Entry& e : entries_) n += e.allocated ? 1 : 0;
  return n;
}

std::vector<PageId> SpaceMap::AllocatedPages() const {
  std::vector<PageId> out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].allocated) out.push_back(PageId(static_cast<uint32_t>(i)));
  }
  return out;
}

}  // namespace finelog
