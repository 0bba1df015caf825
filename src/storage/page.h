// Page: the unit of data transfer and disk I/O (page-server architecture,
// Section 2 of the paper).
//
// Layout (little endian):
//   [0]   u32 magic
//   [4]   u32 page_id
//   [8]   u64 psn           -- page sequence number (Section 2)
//   [16]  u16 slot_count
//   [18]  u16 data_start    -- lowest byte offset used by object data
//   [20]  u32 checksum      -- CRC32C over the page with this field zeroed
//   [24]  u64 reserved
//   [32]  slot directory: slot_count x {u16 offset, u16 length, u16 capacity}
//   ...   free space ...
//   [data_start .. page_size) object data, allocated from the end downward
//
// A slot with offset == 0 is free (deleted or never used). Objects are
// addressed by (page_id, slot) = ObjectId and slots are stable across
// compaction, so ObjectIds never move.
//
// `capacity >= length` reserves expansion room: a resize within capacity is
// performed in place and therefore *mergeable* -- the footnote-3 extension
// of the paper ("reserving in advance enough space to accommodate any
// future expansions of the object").
//
// The PSN is incremented by one on every transaction update, and set to
// max(PSN_i, PSN_j) + 1 whenever two copies of the page are merged.

#ifndef FINELOG_STORAGE_PAGE_H_
#define FINELOG_STORAGE_PAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace finelog {

class Page {
 public:
  static constexpr uint32_t kMagic = 0xF17E106Au;
  static constexpr size_t kHeaderSize = 32;
  static constexpr size_t kSlotEntrySize = 6;

  // Constructs an uninitialized page buffer of `page_size` bytes; call
  // Format() or load raw bytes before use.
  explicit Page(uint32_t page_size);

  Page(const Page&) = default;
  Page& operator=(const Page&) = default;
  Page(Page&&) = default;
  Page& operator=(Page&&) = default;

  // Initializes an empty page with the given id and starting PSN.
  FINELOG_MUTATES_PAGE void Format(PageId id, Psn psn);

  // Header accessors.
  PageId id() const { return PageId(GetU32(4)); }
  Psn psn() const { return Psn(GetU64(8)); }
  void set_psn(Psn psn) { PutU64(8, psn.value()); }
  // Bumps the PSN by one (every transaction update does this, Section 2).
  void BumpPsn() { set_psn(psn().Next()); }
  uint16_t slot_count() const { return GetU16(16); }

  // Object operations ------------------------------------------------------

  // Allocates a new object with the given payload and reserved capacity
  // (0 means capacity = payload size). Reuses a free slot if one exists,
  // otherwise extends the slot directory. This is a non-mergeable
  // (structure-modifying) update: callers must hold a page-level X lock.
  FINELOG_MUTATES_PAGE Result<SlotId> CreateObject(Slice data,
                                                   uint16_t capacity = 0);

  // Creates an object at a specific slot (used by redo, which must recreate
  // objects at their original slots).
  FINELOG_MUTATES_PAGE Status CreateObjectAt(SlotId slot, Slice data,
                                             uint16_t capacity = 0);

  // Reads an object's payload.
  Result<std::string> ReadObject(SlotId slot) const;

  // Overwrites an object's payload in place with a same-sized value. This is
  // the "mergeable" update of Section 3.1.
  FINELOG_MUTATES_PAGE Status WriteObject(SlotId slot, Slice data);

  // Replaces an object's payload with one of a different size. If the new
  // size fits the slot's reserved capacity, the resize happens in place and
  // is mergeable (object-level lock suffices; see ResizeFitsInPlace).
  // Otherwise the object is reallocated -- a structural change.
  FINELOG_MUTATES_PAGE Status ResizeObject(SlotId slot, Slice data);

  // True if resizing `slot` to `new_size` would stay within its reserved
  // capacity (in-place, mergeable).
  bool ResizeFitsInPlace(SlotId slot, size_t new_size) const;

  // The slot CreateObject would use: the first free one, else a new one.
  SlotId FreeSlot() const;

  // True if `slot` can hold `capacity` bytes once its current object (if
  // any) is freed: the space rule of CreateObjectAt and ResizeObject,
  // counting what compaction would reclaim and any directory growth.
  bool Fits(SlotId slot, size_t capacity) const;

  // Deletes an object, freeing its slot (non-mergeable).
  FINELOG_MUTATES_PAGE Status DeleteObject(SlotId slot);

  bool SlotExists(SlotId slot) const;
  uint16_t ObjectSize(SlotId slot) const;
  uint16_t ObjectCapacity(SlotId slot) const;

  // Ids of all live objects on the page.
  std::vector<SlotId> LiveSlots() const;

  // Contiguous free bytes available for a new object of size n (including
  // directory growth if needed).
  size_t FreeSpace() const;

  // Checksum maintenance for disk round-trips.
  void UpdateChecksum();
  bool VerifyChecksum() const;

  // Raw access for disk I/O and page shipping.
  const std::string& raw() const { return buf_; }
  std::string& raw() { return buf_; }
  uint32_t page_size() const { return static_cast<uint32_t>(buf_.size()); }

 private:
  uint16_t SlotOffset(SlotId slot) const;
  uint16_t SlotLength(SlotId slot) const;
  uint16_t SlotCapacity(SlotId slot) const;
  void SetSlot(SlotId slot, uint16_t offset, uint16_t length,
               uint16_t capacity);
  uint16_t data_start() const { return GetU16(18); }
  void set_data_start(uint16_t v) { PutU16(18, v); }
  void set_slot_count(uint16_t v) { PutU16(16, v); }

  // Rewrites the data region to squeeze out holes left by deletes/resizes.
  void Compact();

  // Allocates `len` bytes in the data region, compacting if needed. The
  // caller has checked Fits(for_slot, len).
  uint16_t AllocateData(uint16_t len, SlotId for_slot);

  uint16_t GetU16(size_t off) const;
  uint32_t GetU32(size_t off) const;
  uint64_t GetU64(size_t off) const;
  void PutU16(size_t off, uint16_t v);
  void PutU32(size_t off, uint32_t v);
  void PutU64(size_t off, uint64_t v);

  std::string buf_;
};

}  // namespace finelog

#endif  // FINELOG_STORAGE_PAGE_H_
