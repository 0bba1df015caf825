// Core identifier types used across all finelog modules.
//
// Terminology follows Section 2 of the paper:
//  - PageId:   identifies a database page; the unit of transfer between
//              clients and the server (page-server architecture).
//  - ObjectId: a (page, slot) pair; the unit of fine-granularity locking.
//  - Psn:      page sequence number, incremented on every modification and
//              set to max+1 when two page copies are merged.
//  - Lsn:      log sequence number; the byte address of a record in a
//              private (or server) log file. kNullLsn (0) is reserved --
//              every log file starts with a header, so no record lives at
//              offset 0.
//
// Every identifier is a distinct strong type: construction from a raw
// integer is explicit, cross-type assignment or comparison does not
// compile, and the raw representation is only reachable through .value().
// This makes the paper's central discipline -- never confuse a PSN with an
// LSN, a RedoLSN with a page address, or one client's counters with
// another's -- a compile-time property instead of a reviewer's burden.
// The wrappers are zero-cost: each is a single integer with no virtuals
// and trivial copying.

#ifndef FINELOG_COMMON_TYPES_H_
#define FINELOG_COMMON_TYPES_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace finelog {

// Slot numbers stay a plain integer: they are only meaningful inside an
// ObjectId or a Page, where the containing type already disambiguates.
using SlotId = uint16_t;

inline constexpr SlotId kInvalidSlotId = 0xFFFFu;

// Identifies a database page. Pages are allocated sequentially, so the only
// arithmetic that makes sense is Next() during allocation scans.
class PageId {
 public:
  using Rep = uint32_t;

  constexpr PageId() = default;
  explicit constexpr PageId(Rep raw) : v_(raw) {}

  constexpr Rep value() const { return v_; }
  constexpr PageId Next() const { return PageId(v_ + 1); }

  friend constexpr bool operator==(PageId, PageId) = default;
  friend constexpr auto operator<=>(PageId, PageId) = default;
  friend std::ostream& operator<<(std::ostream& os, PageId id) {
    return os << id.v_;
  }

 private:
  Rep v_ = 0;
};

// Identifies a client node (the server reuses the ClientId space via
// kServerId so log records are uniformly attributable).
class ClientId {
 public:
  using Rep = uint32_t;

  constexpr ClientId() = default;
  explicit constexpr ClientId(Rep raw) : v_(raw) {}

  constexpr Rep value() const { return v_; }

  friend constexpr bool operator==(ClientId, ClientId) = default;
  friend constexpr auto operator<=>(ClientId, ClientId) = default;
  friend std::ostream& operator<<(std::ostream& os, ClientId id) {
    return os << id.v_;
  }

 private:
  Rep v_ = 0;
};

// Transaction identifier. Valid TxnIds encode their owning client (see
// MakeTxnId below); the raw representation is opaque to everything except
// the Make/ClientOf/SeqOf helpers and the wire codecs.
class TxnId {
 public:
  using Rep = uint64_t;

  constexpr TxnId() = default;
  explicit constexpr TxnId(Rep raw) : v_(raw) {}

  constexpr Rep value() const { return v_; }

  friend constexpr bool operator==(TxnId, TxnId) = default;
  friend constexpr auto operator<=>(TxnId, TxnId) = default;
  friend std::ostream& operator<<(std::ostream& os, TxnId id) {
    return os << id.v_;
  }

 private:
  Rep v_ = 0;
};

// Log sequence number: the byte address of a record in one log file. LSNs
// support exactly the arithmetic of byte addresses -- advancing past a
// record (`lsn + frame_size`) and measuring a span (`end - begin`); two
// LSNs never add, and an LSN never mixes with a PSN or TxnId.
class Lsn {
 public:
  using Rep = uint64_t;

  constexpr Lsn() = default;
  explicit constexpr Lsn(Rep raw) : v_(raw) {}

  constexpr Rep value() const { return v_; }

  // Byte-address arithmetic.
  constexpr Lsn operator+(uint64_t bytes) const { return Lsn(v_ + bytes); }
  constexpr Lsn& operator+=(uint64_t bytes) {
    v_ += bytes;
    return *this;
  }
  constexpr uint64_t operator-(Lsn other) const { return v_ - other.v_; }

  friend constexpr bool operator==(Lsn, Lsn) = default;
  friend constexpr auto operator<=>(Lsn, Lsn) = default;
  friend std::ostream& operator<<(std::ostream& os, Lsn lsn) {
    return os << lsn.v_;
  }

 private:
  Rep v_ = 0;
};

// Page sequence number. PSNs only ever move forward, either by one local
// update (Next) or by merging two divergent copies (Merge = max + 1,
// Section 3.1) -- general arithmetic is deliberately not provided.
class Psn {
 public:
  using Rep = uint64_t;

  constexpr Psn() = default;
  explicit constexpr Psn(Rep raw) : v_(raw) {}

  constexpr Rep value() const { return v_; }

  // The PSN after one more modification of the page.
  constexpr Psn Next() const { return Psn(v_ + 1); }

  // The PSN of a page assembled from two copies: strictly above both inputs
  // so the merged state is distinguishable from either parent.
  static constexpr Psn Merge(Psn a, Psn b) {
    return Psn(std::max(a.v_, b.v_) + 1);
  }

  friend constexpr bool operator==(Psn, Psn) = default;
  friend constexpr auto operator<=>(Psn, Psn) = default;
  friend std::ostream& operator<<(std::ostream& os, Psn psn) {
    return os << psn.v_;
  }

 private:
  Rep v_ = 0;
};

inline constexpr PageId kInvalidPageId{0xFFFFFFFFu};
inline constexpr ClientId kInvalidClientId{0xFFFFFFFFu};
inline constexpr ClientId kServerId{0xFFFFFFFEu};
inline constexpr TxnId kInvalidTxnId{0};
inline constexpr Lsn kNullLsn{0};
inline constexpr Lsn kMaxLsn{~0ull};

// TxnIds encode their owning client so private-log records are globally
// attributable: (client + 1) in the high 32 bits -- the +1 keeps every valid
// TxnId distinct from kInvalidTxnId -- and a per-client sequence number
// below. Encode and decode through these helpers only.
inline constexpr TxnId MakeTxnId(ClientId client, uint64_t seq) {
  return TxnId((static_cast<uint64_t>(client.value() + 1) << 32) | seq);
}
inline constexpr ClientId ClientOfTxn(TxnId txn) {
  return ClientId(static_cast<uint32_t>((txn.value() >> 32) - 1));
}
inline constexpr uint64_t TxnSeqOf(TxnId txn) {
  return txn.value() & 0xFFFFFFFFull;
}

// Identifies an object: the page it lives on plus its slot within the page.
struct ObjectId {
  PageId page = kInvalidPageId;
  SlotId slot = kInvalidSlotId;

  bool valid() const { return page != kInvalidPageId && slot != kInvalidSlotId; }

  friend bool operator==(const ObjectId&, const ObjectId&) = default;
  friend auto operator<=>(const ObjectId&, const ObjectId&) = default;
};

inline std::string ToString(PageId id) { return std::to_string(id.value()); }
inline std::string ToString(ClientId id) { return std::to_string(id.value()); }
inline std::string ToString(TxnId id) { return std::to_string(id.value()); }
inline std::string ToString(Lsn lsn) { return std::to_string(lsn.value()); }
inline std::string ToString(Psn psn) { return std::to_string(psn.value()); }

inline std::string ToString(const ObjectId& oid) {
  return ToString(oid.page) + ":" + std::to_string(oid.slot);
}

}  // namespace finelog

// Hash support so strong IDs drop into unordered containers unchanged.
template <>
struct std::hash<finelog::PageId> {
  size_t operator()(finelog::PageId id) const noexcept {
    return std::hash<finelog::PageId::Rep>()(id.value());
  }
};
template <>
struct std::hash<finelog::ClientId> {
  size_t operator()(finelog::ClientId id) const noexcept {
    return std::hash<finelog::ClientId::Rep>()(id.value());
  }
};
template <>
struct std::hash<finelog::TxnId> {
  size_t operator()(finelog::TxnId id) const noexcept {
    return std::hash<finelog::TxnId::Rep>()(id.value());
  }
};
template <>
struct std::hash<finelog::Lsn> {
  size_t operator()(finelog::Lsn lsn) const noexcept {
    return std::hash<finelog::Lsn::Rep>()(lsn.value());
  }
};
template <>
struct std::hash<finelog::Psn> {
  size_t operator()(finelog::Psn psn) const noexcept {
    return std::hash<finelog::Psn::Rep>()(psn.value());
  }
};

#endif  // FINELOG_COMMON_TYPES_H_
