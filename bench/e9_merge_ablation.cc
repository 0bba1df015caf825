// E9 -- Ablation microbenchmarks (plain std::chrono loops).
//
// (a) Merging page *copies* vs merging *log records* (Section 3.1: the paper
//     rejects log-record merging [19, 2] as "expensive and I/O intensive"
//     and chooses copy merging, which costs CPU only).
// (b) The PSN merge bump (max+1): how cheap the bookkeeping is that makes
//     equal-PSN copies distinguishable (Section 2).
//
// Each case runs in batches that grow until one lasts at least 20 ms; the
// reported time per operation is the best of 5 such batches. Wall-clock
// numbers depend on the machine, so the table is advisory: the claims are
// the ratios, not the absolute times.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "log/log_record.h"
#include "server/page_merge.h"
#include "storage/page.h"

namespace finelog {
namespace {

constexpr uint32_t kPageSize = 4096;
constexpr int kSlots = 16;
constexpr int kObjectSize = 128;

// Keeps the compiler from discarding a computed value.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Nanoseconds per call of `op`: the best of 5 batches of at least 20 ms.
template <typename Op>
double NsPerOp(Op op) {
  using Clock = std::chrono::steady_clock;
  auto batch_ns = [&op](uint64_t iters) {
    auto start = Clock::now();
    for (uint64_t i = 0; i < iters; ++i) op();
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  uint64_t iters = 1;
  double ns = batch_ns(iters);
  while (ns < 2e7) {
    iters *= 2;
    ns = batch_ns(iters);
  }
  double best = ns;
  for (int rep = 1; rep < 5; ++rep) best = std::min(best, batch_ns(iters));
  return best / static_cast<double>(iters);
}

Page MakeBase() {
  Page page(kPageSize);
  page.Format(PageId(1), Psn(10));
  for (int i = 0; i < kSlots; ++i) {
    (void)page.CreateObject(std::string(kObjectSize, 'a'));
  }
  return page;
}

// (a1) Copy merging: overlay K modified objects from a shipped copy.
double MergePageCopiesNs(int modified) {
  Page base = MakeBase();
  Page remote = base;
  ShippedPage shipped;
  shipped.page = PageId(1);
  for (int i = 0; i < modified; ++i) {
    (void)remote.WriteObject(static_cast<SlotId>(i),
                             std::string(kObjectSize, 'b'));
    shipped.modified_slots.push_back(static_cast<SlotId>(i));
  }
  remote.set_psn(Psn(20));
  shipped.image = remote.raw();
  return NsPerOp([&] {
    Page local = base;
    Keep(MergeShippedPage(&local, shipped));
  });
}

// (a2) Log-record merging: decode and apply K update records, the rejected
// alternative. (A real implementation would also pay log I/O to read the
// other node's records; this measures the pure CPU floor.)
double MergeLogRecordsNs(int records) {
  Page base = MakeBase();
  std::vector<std::string> encoded;
  for (int i = 0; i < records; ++i) {
    LogRecord rec = LogRecord::Update(
        TxnId(1), kNullLsn, PageId(1), static_cast<SlotId>(i % kSlots),
        UpdateOp::kOverwrite, Psn(10 + i), std::string(kObjectSize, 'b'),
        std::string(kObjectSize, 'a'));
    encoded.push_back(rec.Encode());
  }
  return NsPerOp([&] {
    Page local = base;
    for (const std::string& bytes : encoded) {
      auto rec = LogRecord::Decode(bytes);
      Keep(local.WriteObject(rec.value().slot, rec.value().redo));
    }
  });
}

// (b) The merge PSN bookkeeping alone.
double PsnMergeBumpNs() {
  Page a = MakeBase();
  Page b = MakeBase();
  return NsPerOp([&] {
    Psn merged = Psn::Merge(a.psn(), b.psn());
    a.set_psn(merged);
    Keep(merged);
  });
}

// Supporting micro: full page round trip through the checksum (disk path).
double PageChecksumNs() {
  Page page = MakeBase();
  return NsPerOp([&] {
    page.UpdateChecksum();
    Keep(page.VerifyChecksum());
  });
}

// Supporting micro: log record encode/decode (the private-log write path).
double LogRecordRoundTripNs() {
  LogRecord rec = LogRecord::Update(TxnId(1), Lsn(100), PageId(5), 3,
                                    UpdateOp::kOverwrite, Psn(42),
                                    std::string(kObjectSize, 'r'),
                                    std::string(kObjectSize, 'u'));
  return NsPerOp([&] {
    std::string bytes = rec.Encode();
    Keep(LogRecord::Decode(bytes));
  });
}

}  // namespace
}  // namespace finelog

int main() {
  using namespace finelog;
  std::printf(
      "E9: merge ablation (%u-byte page, %d objects of %d bytes; best of 5 "
      "batches of >= 20 ms)\n\n",
      kPageSize, kSlots, kObjectSize);
  std::printf("%4s %14s %16s %14s %16s %12s\n", "K", "copy_merge_ns",
              "record_merge_ns", "copy_items/s", "record_items/s",
              "record/copy");
  for (int k : {1, 4, 16}) {
    double copy_ns = MergePageCopiesNs(k);
    double record_ns = MergeLogRecordsNs(k);
    std::printf("%4d %14.1f %16.1f %13.1fM %15.1fM %12.2f\n", k, copy_ns,
                record_ns, k * 1e3 / copy_ns, k * 1e3 / record_ns,
                record_ns / copy_ns);
  }
  double checksum_ns = PageChecksumNs();
  std::printf("\n%-28s %10.2f ns\n", "psn_merge_bump", PsnMergeBumpNs());
  std::printf("%-28s %10.1f ns  %8.1f MB/s\n", "page_checksum_round_trip",
              checksum_ns, 2.0 * kPageSize * 1e3 / checksum_ns);
  std::printf("%-28s %10.1f ns\n", "log_record_round_trip",
              LogRecordRoundTripNs());
  return 0;
}
