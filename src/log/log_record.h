// Log record taxonomy (Sections 2, 3.1 and 3.2 of the paper).
//
// Client private logs contain: update records, compensation records (CLRs),
// transaction control records, savepoint markers, fuzzy checkpoint records,
// and -- unique to this architecture -- *callback log records*, written by a
// client whose lock request triggered an exclusive callback. Callback records
// capture the inter-client update order on an object so server restart
// recovery can reconstruct it (Section 3.4).
//
// The server log contains only *replacement log records* (one forced before
// every page write to disk, carrying the page PSN plus the DCT entries for
// the page) and server checkpoint records carrying the whole DCT. The server
// performs no data logging: all data updates live in client logs.

#ifndef FINELOG_LOG_LOG_RECORD_H_
#define FINELOG_LOG_LOG_RECORD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/types.h"

namespace finelog {

// PSN sentinel for "unknown" DCT fields during server restart (Section 3.4
// step 1 inserts <PID, CID, NULL, NULL> entries).
inline constexpr Psn kNullPsn{~0ull};

enum class LogRecordType : uint8_t {
  kUpdate = 1,
  kClr = 2,
  kCommit = 3,
  kAbort = 4,
  kTxnEnd = 5,
  kSavepoint = 6,
  kCallback = 7,
  kClientCheckpoint = 8,
  kReplacement = 9,       // Server log only.
  kServerCheckpoint = 10, // Server log only.
  kMembership = 11,       // Server log only: presumed-dead declare/clear.
};

const char* LogRecordTypeName(LogRecordType t);

// The kind of physical operation an update/CLR record describes. kOverwrite
// is the "mergeable" update of Section 3.1; the others modify page structure
// and require a page-level exclusive lock.
enum class UpdateOp : uint8_t {
  kOverwrite = 1,
  kCreate = 2,
  kResize = 3,
  kDelete = 4,
  // Resize within the slot's reserved capacity: in place, no structural
  // change -- mergeable under an object-level lock (the paper's footnote-3
  // reservation extension).
  kResizeInPlace = 5,
};

// True for the ops that change page structure (everything but the two
// mergeable ones); they need a page-level exclusive lock.
inline bool IsStructural(UpdateOp op) {
  return op != UpdateOp::kOverwrite && op != UpdateOp::kResizeInPlace;
}

// An entry of a client's dirty page table (DPT), Section 3.2.
struct DptEntry {
  PageId page = kInvalidPageId;
  Lsn redo_lsn = kNullLsn;  // Earliest record that may need redo for the page.

  friend bool operator==(const DptEntry&, const DptEntry&) = default;
};

// An entry of the server's dirty client table (DCT), Section 3.2.
struct DctEntry {
  PageId page = kInvalidPageId;
  ClientId client = kInvalidClientId;
  Psn psn = kNullPsn;      // PSN of the page when last received from client.
  Lsn redo_lsn = kNullLsn; // LSN of first replacement record for the page.

  friend bool operator==(const DctEntry&, const DctEntry&) = default;
};

// Summary of an in-flight transaction, carried by client checkpoints.
struct TxnCheckpointInfo {
  TxnId txn = kInvalidTxnId;
  Lsn first_lsn = kNullLsn;
  Lsn last_lsn = kNullLsn;

  friend bool operator==(const TxnCheckpointInfo&,
                         const TxnCheckpointInfo&) = default;
};

// A single in-memory log record; `type` selects which fields are meaningful.
struct LogRecord {
  LogRecordType type = LogRecordType::kUpdate;
  TxnId txn = kInvalidTxnId;
  Lsn prev_lsn = kNullLsn;  // Backward chain within the transaction.

  // kUpdate / kClr.
  PageId page = kInvalidPageId;
  SlotId slot = kInvalidSlotId;
  UpdateOp op = UpdateOp::kOverwrite;
  Psn psn;                  // PSN the page had just before this update.
  uint16_t capacity = 0;    // Reserved capacity (kCreate redo only).
  std::string redo;         // After-image (or redo payload for CLRs).
  std::string undo;         // Before-image (empty for CLRs).

  // kClr only: next record to undo after this compensation.
  Lsn undo_next_lsn = kNullLsn;

  // kCallback only: the called-back object, the client that responded, and
  // the PSN the page had when the responder shipped it to the server.
  ObjectId cb_object;
  ClientId cb_responder = kInvalidClientId;
  Psn cb_psn;

  // kClientCheckpoint only.
  std::vector<TxnCheckpointInfo> active_txns;
  std::vector<DptEntry> dpt;

  // kReplacement only: page PSN at the time of the disk write plus the DCT
  // entries for the page. kServerCheckpoint reuses `dct` for the full table.
  Psn page_psn;
  std::vector<DctEntry> dct;

  // kMembership only (DESIGN.md section 14): the server forces one of these
  // before acting on a lease expiry, so a restarted server reconstructs the
  // presumed-dead set and keeps the client's dirty pages quarantined; a
  // clearing record (presumed_dead = false) is forced when the client
  // completes crash recovery and rejoins.
  ClientId member = kInvalidClientId;
  bool presumed_dead = false;

  // Set by the log manager on read; not serialized.
  Lsn lsn = kNullLsn;

  // Serialization. EncodeTo appends to `out` without clearing it, so hot
  // paths can reuse one buffer's capacity across records.
  void EncodeTo(std::string* out) const;
  std::string Encode() const;
  static Result<LogRecord> Decode(Slice data);

  // Convenience factories -------------------------------------------------
  static LogRecord Update(TxnId txn, Lsn prev, PageId page, SlotId slot,
                          UpdateOp op, Psn psn, std::string redo,
                          std::string undo);
  static LogRecord Clr(TxnId txn, Lsn prev, PageId page, SlotId slot,
                       UpdateOp op, Psn psn, std::string redo,
                       Lsn undo_next);
  static LogRecord Control(LogRecordType type, TxnId txn, Lsn prev);
  static LogRecord Callback(TxnId txn, Lsn prev, ObjectId object,
                            ClientId responder, Psn psn);
  static LogRecord ClientCheckpoint(std::vector<TxnCheckpointInfo> txns,
                                    std::vector<DptEntry> dpt);
  static LogRecord Replacement(PageId page, Psn page_psn,
                               std::vector<DctEntry> entries);
  static LogRecord ServerCheckpoint(std::vector<DctEntry> entries);
  static LogRecord Membership(ClientId member, bool presumed_dead);
};

}  // namespace finelog

#endif  // FINELOG_LOG_LOG_RECORD_H_
