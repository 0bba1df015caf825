#include "storage/page.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

#include "util/crc32.h"

namespace finelog {

Page::Page(uint32_t page_size) : buf_(page_size, '\0') {}

void Page::Format(PageId id, Psn psn) {
  std::fill(buf_.begin(), buf_.end(), '\0');
  PutU32(0, kMagic);
  PutU32(4, id.value());
  PutU64(8, psn.value());
  set_slot_count(0);
  set_data_start(static_cast<uint16_t>(buf_.size()));
}

uint16_t Page::GetU16(size_t off) const {
  uint16_t v;
  std::memcpy(&v, buf_.data() + off, sizeof(v));
  return v;
}
uint32_t Page::GetU32(size_t off) const {
  uint32_t v;
  std::memcpy(&v, buf_.data() + off, sizeof(v));
  return v;
}
uint64_t Page::GetU64(size_t off) const {
  uint64_t v;
  std::memcpy(&v, buf_.data() + off, sizeof(v));
  return v;
}
void Page::PutU16(size_t off, uint16_t v) {
  FINELOG_CHECK(off + sizeof(v) <= buf_.size(), "page header write out of bounds");
  std::memcpy(buf_.data() + off, &v, sizeof(v));
}
void Page::PutU32(size_t off, uint32_t v) {
  FINELOG_CHECK(off + sizeof(v) <= buf_.size(), "page header write out of bounds");
  std::memcpy(buf_.data() + off, &v, sizeof(v));
}
void Page::PutU64(size_t off, uint64_t v) {
  FINELOG_CHECK(off + sizeof(v) <= buf_.size(), "page header write out of bounds");
  std::memcpy(buf_.data() + off, &v, sizeof(v));
}

uint16_t Page::SlotOffset(SlotId slot) const {
  return GetU16(kHeaderSize + slot * kSlotEntrySize);
}
uint16_t Page::SlotLength(SlotId slot) const {
  return GetU16(kHeaderSize + slot * kSlotEntrySize + 2);
}
uint16_t Page::SlotCapacity(SlotId slot) const {
  return GetU16(kHeaderSize + slot * kSlotEntrySize + 4);
}
void Page::SetSlot(SlotId slot, uint16_t offset, uint16_t length,
                   uint16_t capacity) {
  PutU16(kHeaderSize + slot * kSlotEntrySize, offset);
  PutU16(kHeaderSize + slot * kSlotEntrySize + 2, length);
  PutU16(kHeaderSize + slot * kSlotEntrySize + 4, capacity);
}

bool Page::SlotExists(SlotId slot) const {
  return slot < slot_count() && SlotOffset(slot) != 0;
}

uint16_t Page::ObjectSize(SlotId slot) const {
  return SlotExists(slot) ? SlotLength(slot) : 0;
}

uint16_t Page::ObjectCapacity(SlotId slot) const {
  return SlotExists(slot) ? SlotCapacity(slot) : 0;
}

bool Page::ResizeFitsInPlace(SlotId slot, size_t new_size) const {
  return SlotExists(slot) && new_size <= SlotCapacity(slot);
}

SlotId Page::FreeSlot() const {
  for (SlotId s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == 0) return s;
  }
  return slot_count();
}

bool Page::Fits(SlotId slot, size_t capacity) const {
  size_t used = 0;
  for (SlotId s = 0; s < slot_count(); ++s) {
    if (s != slot && SlotOffset(s) != 0) used += SlotCapacity(s);
  }
  size_t dir_end = kHeaderSize + std::max<size_t>(slot_count(), slot + 1) *
                                     kSlotEntrySize;
  return dir_end + used + capacity <= buf_.size();
}

std::vector<SlotId> Page::LiveSlots() const {
  std::vector<SlotId> out;
  for (SlotId s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) != 0) out.push_back(s);
  }
  return out;
}

size_t Page::FreeSpace() const {
  size_t dir_end = kHeaderSize + slot_count() * kSlotEntrySize;
  size_t start = data_start();
  return start > dir_end ? start - dir_end : 0;
}

void Page::Compact() {
  // Collect live objects (with their full reserved capacity), then rewrite
  // the data region from the end.
  struct Obj {
    SlotId slot;
    uint16_t length;
    std::string data;  // Capacity-sized region.
  };
  std::vector<Obj> live;
  for (SlotId s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) != 0) {
      live.push_back({s, SlotLength(s),
                      std::string(buf_.data() + SlotOffset(s), SlotCapacity(s))});
    }
  }
  uint16_t pos = static_cast<uint16_t>(buf_.size());
  size_t dir_end = kHeaderSize + slot_count() * kSlotEntrySize;
  for (const Obj& o : live) {
    pos = static_cast<uint16_t>(pos - o.data.size());
    FINELOG_CHECK(pos >= dir_end, "page compaction ran into slot directory");
    std::memcpy(buf_.data() + pos, o.data.data(), o.data.size());
    SetSlot(o.slot, pos, o.length, static_cast<uint16_t>(o.data.size()));
  }
  set_data_start(pos);
}

uint16_t Page::AllocateData(uint16_t len, SlotId for_slot) {
  size_t dir_end = kHeaderSize + std::max<size_t>(slot_count(), for_slot + 1) *
                                     kSlotEntrySize;
  if (data_start() < dir_end + len) {
    Compact();
    FINELOG_CHECK(data_start() >= dir_end + len,
                  "page allocation without a passing Fits check");
  }
  uint16_t pos = static_cast<uint16_t>(data_start() - len);
  set_data_start(pos);
  return pos;
}

Result<SlotId> Page::CreateObject(Slice data, uint16_t capacity) {
  if (data.size() > 0xFFFF) {
    return Status::InvalidArgument("object larger than 64KB");
  }
  SlotId slot = FreeSlot();
  Status st = CreateObjectAt(slot, data, capacity);
  if (!st.ok()) return st;
  return slot;
}

Status Page::CreateObjectAt(SlotId slot, Slice data, uint16_t capacity) {
  if (slot < slot_count() && SlotOffset(slot) != 0) {
    return Status::FailedPrecondition("slot already occupied");
  }
  if (capacity < data.size()) capacity = static_cast<uint16_t>(data.size());
  if (!Fits(slot, capacity)) return Status::FailedPrecondition("page full");
  uint16_t pos = AllocateData(capacity, slot);
  if (capacity == 0) {
    // Zero-length objects get a sentinel non-zero offset at data_start.
    pos = data_start();
  } else {
    FINELOG_CHECK(pos + capacity <= buf_.size(), "object allocation out of bounds");
    std::memset(buf_.data() + pos, 0, capacity);
    std::memcpy(buf_.data() + pos, data.data(), data.size());
  }
  if (slot >= slot_count()) set_slot_count(static_cast<uint16_t>(slot + 1));
  SetSlot(slot, pos, static_cast<uint16_t>(data.size()), capacity);
  return Status::OK();
}

Result<std::string> Page::ReadObject(SlotId slot) const {
  if (!SlotExists(slot)) {
    return Status::NotFound("no object at slot " + std::to_string(slot));
  }
  return std::string(buf_.data() + SlotOffset(slot), SlotLength(slot));
}

Status Page::WriteObject(SlotId slot, Slice data) {
  if (!SlotExists(slot)) {
    return Status::NotFound("no object at slot " + std::to_string(slot));
  }
  if (data.size() != SlotLength(slot)) {
    return Status::InvalidArgument("WriteObject requires same size; use ResizeObject");
  }
  FINELOG_CHECK(SlotOffset(slot) + data.size() <= buf_.size(),
                "object write out of bounds");
  std::memcpy(buf_.data() + SlotOffset(slot), data.data(), data.size());
  return Status::OK();
}

Status Page::ResizeObject(SlotId slot, Slice data) {
  if (!SlotExists(slot)) {
    return Status::NotFound("no object at slot " + std::to_string(slot));
  }
  if (data.size() > 0xFFFF) {
    return Status::InvalidArgument("object larger than 64KB");
  }
  uint16_t old_len = SlotLength(slot);
  uint16_t capacity = SlotCapacity(slot);
  if (data.size() == old_len) {
    return WriteObject(slot, data);
  }
  if (data.size() <= capacity) {
    // Within reserved capacity: in place, slot does not move (mergeable).
    uint16_t off = SlotOffset(slot);
    FINELOG_CHECK(off + data.size() <= buf_.size(), "object resize out of bounds");
    std::memcpy(buf_.data() + off, data.data(), data.size());
    SetSlot(slot, off, static_cast<uint16_t>(data.size()), capacity);
    return Status::OK();
  }
  // Grow past capacity: free the slot, then reallocate (structural). A
  // grow that cannot fit leaves the object as it was.
  if (!Fits(slot, data.size())) return Status::FailedPrecondition("page full");
  SetSlot(slot, 0, 0, 0);
  uint16_t pos = AllocateData(static_cast<uint16_t>(data.size()), slot);
  FINELOG_CHECK(pos + data.size() <= buf_.size(), "object resize out of bounds");
  std::memcpy(buf_.data() + pos, data.data(), data.size());
  SetSlot(slot, pos, static_cast<uint16_t>(data.size()),
          static_cast<uint16_t>(data.size()));
  return Status::OK();
}

Status Page::DeleteObject(SlotId slot) {
  if (!SlotExists(slot)) {
    return Status::NotFound("no object at slot " + std::to_string(slot));
  }
  SetSlot(slot, 0, 0, 0);
  return Status::OK();
}

void Page::UpdateChecksum() {
  PutU32(20, 0);
  PutU32(20, Crc32c(buf_.data(), buf_.size()));
}

bool Page::VerifyChecksum() const {
  // The CRC of the page with the checksum field zeroed, chained over the
  // bytes around the field instead of over a zeroed copy.
  static constexpr char kZeroField[4] = {};
  uint32_t crc = Crc32c(buf_.data(), 20);
  crc = Crc32c(kZeroField, sizeof(kZeroField), crc);
  crc = Crc32c(buf_.data() + 24, buf_.size() - 24, crc);
  return GetU32(20) == crc;
}

}  // namespace finelog
