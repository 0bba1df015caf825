// Seeded-bad fixture for the finelog-check `per-page-recovery-scan` rule: a
// client's recovery-plane handler reads one page's records through
// LogManager::ScanPage. A whole-log Scan per (page, responder) query makes
// server-restart repair read every client's full log once per page.
//
// Parsed (not compiled) by the checker self-test as if in src/common/.
#include "log/log_manager.h"

namespace finelog {

class Client {
 public:
  Result<std::vector<CallbackListEntry>> HandleRecScanCallbacks(
      PageId pid, ClientId responder);

 private:
  std::unique_ptr<LogManager> log_;
};

// BAD: the handler scans the whole log and filters by page itself.
Result<std::vector<CallbackListEntry>> Client::HandleRecScanCallbacks(
    PageId pid, ClientId responder) {
  std::vector<CallbackListEntry> out;
  Status st = log_->Scan(log_->begin_lsn(), [&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kCallback && rec.cb_object.page == pid &&
        rec.cb_responder == responder) {
      out.push_back(CallbackListEntry{rec.cb_object, rec.cb_psn});
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  return out;
}

}  // namespace finelog
