#include "log/log_manager.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "log/log_record.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

class LogTest : public ::testing::Test {
 protected:
  LogTest() : dir_(MakeTempDir("log")) {}

  std::unique_ptr<LogManager> OpenLog(uint64_t capacity = 0) {
    auto lm = LogManager::Open(dir_ + "/test.log", capacity);
    EXPECT_TRUE(lm.ok());
    return std::move(lm).value();
  }

  std::string dir_;
};

// Raw-integer convenience wrapper: tests name counters by small literals.
LogRecord SampleUpdate(uint64_t txn, Lsn prev, uint32_t page, uint64_t psn) {
  return LogRecord::Update(TxnId(txn), prev, PageId(page), 3,
                           UpdateOp::kOverwrite, Psn(psn), "redo-payload",
                           "undo-payload");
}

TEST_F(LogTest, AppendAssignsIncreasingLsns) {
  auto log = OpenLog();
  auto l1 = log->Append(SampleUpdate(1, kNullLsn, 0, 10));
  auto l2 = log->Append(SampleUpdate(1, l1.value(), 0, 11));
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  EXPECT_GT(l2.value(), l1.value());
  EXPECT_EQ(l1.value(), log->begin_lsn());
}

TEST_F(LogTest, ReadBackBufferedRecord) {
  auto log = OpenLog();
  auto lsn = log->Append(SampleUpdate(7, kNullLsn, 42, 99));
  ASSERT_TRUE(lsn.ok());
  auto rec = log->Read(lsn.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().txn, TxnId(7));
  EXPECT_EQ(rec.value().page, PageId(42));
  EXPECT_EQ(rec.value().psn, Psn(99));
  EXPECT_EQ(rec.value().redo, "redo-payload");
  EXPECT_EQ(rec.value().undo, "undo-payload");
  EXPECT_EQ(rec.value().lsn, lsn.value());
}

TEST_F(LogTest, UnforcedTailLostOnReopen) {
  Lsn forced_lsn, lost_lsn;
  {
    auto log = OpenLog();
    forced_lsn = log->Append(SampleUpdate(1, kNullLsn, 0, 1)).value();
    ASSERT_TRUE(log->Force().ok());
    lost_lsn = log->Append(SampleUpdate(1, forced_lsn, 0, 2)).value();
    // No force: this record must vanish at reopen.
  }
  auto log = OpenLog();
  EXPECT_TRUE(log->Read(forced_lsn).ok());
  EXPECT_FALSE(log->Read(lost_lsn).ok());
  EXPECT_EQ(log->end_lsn(), log->durable_lsn());
}

TEST_F(LogTest, ScanVisitsRecordsInOrder) {
  auto log = OpenLog();
  std::vector<Lsn> lsns;
  for (int i = 0; i < 5; ++i) {
    lsns.push_back(
        log->Append(SampleUpdate(1, kNullLsn, static_cast<uint32_t>(i),
                                 static_cast<uint64_t>(i)))
            .value());
  }
  ASSERT_TRUE(log->Force().ok());
  std::vector<PageId> pages;
  ASSERT_TRUE(log->Scan(log->begin_lsn(), [&](const LogRecord& rec) {
                   pages.push_back(rec.page);
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(pages, (std::vector<PageId>{PageId(0), PageId(1), PageId(2),
                                        PageId(3), PageId(4)}));
}

TEST_F(LogTest, ScanFromMiddle) {
  auto log = OpenLog();
  log->Append(SampleUpdate(1, kNullLsn, 0, 0)).value();
  Lsn mid = log->Append(SampleUpdate(1, kNullLsn, 1, 1)).value();
  log->Append(SampleUpdate(1, kNullLsn, 2, 2)).value();
  int count = 0;
  ASSERT_TRUE(log->Scan(mid, [&](const LogRecord&) {
                   ++count;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(count, 2);
}

TEST_F(LogTest, CheckpointLsnSurvivesReopen) {
  {
    auto log = OpenLog();
    Lsn lsn = log->Append(LogRecord::ClientCheckpoint({}, {})).value();
    ASSERT_TRUE(log->Force().ok());
    ASSERT_TRUE(log->SetCheckpointLsn(lsn).ok());
  }
  auto log = OpenLog();
  EXPECT_NE(log->checkpoint_lsn(), kNullLsn);
  auto rec = log->Read(log->checkpoint_lsn());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().type, LogRecordType::kClientCheckpoint);
}

TEST_F(LogTest, BoundedLogReportsFull) {
  auto log = OpenLog(512);
  Status last = Status::OK();
  for (int i = 0; i < 100; ++i) {
    auto lsn = log->Append(SampleUpdate(1, kNullLsn, 0, static_cast<uint64_t>(i)));
    if (!lsn.ok()) {
      last = lsn.status();
      break;
    }
  }
  EXPECT_TRUE(last.IsLogFull());
}

TEST_F(LogTest, ReclaimAdvanceFreesSpace) {
  auto log = OpenLog(512);
  Lsn last = kNullLsn;
  while (true) {
    auto lsn = log->Append(SampleUpdate(1, kNullLsn, 0, 0));
    if (!lsn.ok()) break;
    last = lsn.value();
  }
  ASSERT_NE(last, kNullLsn);
  log->SetReclaimLsn(last);
  EXPECT_TRUE(log->Append(SampleUpdate(1, kNullLsn, 0, 0)).ok());
}

TEST_F(LogTest, AllRecordTypesRoundTrip) {
  LogRecord cb = LogRecord::Callback(TxnId(9), Lsn(100),
                                     ObjectId{PageId(4), 2}, ClientId(3),
                                     Psn(77));
  LogRecord clr = LogRecord::Clr(TxnId(9), Lsn(100), PageId(4), 2,
                                 UpdateOp::kCreate, Psn(5), "img", Lsn(60));
  LogRecord ckpt = LogRecord::ClientCheckpoint(
      {TxnCheckpointInfo{TxnId(1), Lsn(10), Lsn(20)}},
      {DptEntry{PageId(5), Lsn(30)}});
  LogRecord repl = LogRecord::Replacement(
      PageId(8), Psn(123), {DctEntry{PageId(8), ClientId(2), Psn(50), Lsn(40)}});

  auto cb2 = LogRecord::Decode(cb.Encode());
  ASSERT_TRUE(cb2.ok());
  EXPECT_EQ(cb2.value().cb_object, (ObjectId{PageId(4), 2}));
  EXPECT_EQ(cb2.value().cb_responder, ClientId(3));
  EXPECT_EQ(cb2.value().cb_psn, Psn(77));

  auto clr2 = LogRecord::Decode(clr.Encode());
  ASSERT_TRUE(clr2.ok());
  EXPECT_EQ(clr2.value().undo_next_lsn, Lsn(60));
  EXPECT_EQ(clr2.value().op, UpdateOp::kCreate);

  auto ckpt2 = LogRecord::Decode(ckpt.Encode());
  ASSERT_TRUE(ckpt2.ok());
  ASSERT_EQ(ckpt2.value().active_txns.size(), 1u);
  EXPECT_EQ(ckpt2.value().active_txns[0].txn, TxnId(1));
  ASSERT_EQ(ckpt2.value().dpt.size(), 1u);
  EXPECT_EQ(ckpt2.value().dpt[0].page, PageId(5));

  auto repl2 = LogRecord::Decode(repl.Encode());
  ASSERT_TRUE(repl2.ok());
  EXPECT_EQ(repl2.value().page, PageId(8));
  EXPECT_EQ(repl2.value().page_psn, Psn(123));
  ASSERT_EQ(repl2.value().dct.size(), 1u);
  EXPECT_EQ(repl2.value().dct[0].psn, Psn(50));
}

TEST_F(LogTest, TruncatedRecordDetected) {
  LogRecord rec = SampleUpdate(1, kNullLsn, 0, 0);
  std::string bytes = rec.Encode();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(LogRecord::Decode(bytes).ok());
}

// Torn-tail recovery: a crash (or injected torn force) can leave the file
// ending mid-record. Reopen must CRC-scan to the last complete frame and
// discard everything after it.

class TornTailTest : public LogTest {
 protected:
  // Writes three forced records; returns their LSNs plus the end LSN.
  std::vector<Lsn> WriteThreeRecords() {
    auto log = OpenLog();
    std::vector<Lsn> lsns;
    for (int i = 0; i < 3; ++i) {
      lsns.push_back(
        log->Append(SampleUpdate(1, kNullLsn, static_cast<uint32_t>(i),
                                 static_cast<uint64_t>(i)))
            .value());
    }
    EXPECT_TRUE(log->Force().ok());
    lsns.push_back(log->end_lsn());
    return lsns;
  }

  void TruncateTo(Lsn size) {
    std::filesystem::resize_file(dir_ + "/test.log", size.value());
  }

  void FlipByteAt(Lsn lsn) {
    uint64_t offset = lsn.value();
    std::FILE* f = std::fopen((dir_ + "/test.log").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }

  // Recovery must stop exactly at the end of record 2 and the log must
  // accept new appends there.
  void ExpectTailDiscarded(const std::vector<Lsn>& lsns) {
    auto log = OpenLog();
    EXPECT_EQ(log->durable_lsn(), lsns[2]);
    EXPECT_EQ(log->end_lsn(), log->durable_lsn());
    EXPECT_TRUE(log->Read(lsns[0]).ok());
    EXPECT_TRUE(log->Read(lsns[1]).ok());
    EXPECT_FALSE(log->Read(lsns[2]).ok());
    int count = 0;
    EXPECT_TRUE(log->Scan(log->begin_lsn(), [&](const LogRecord&) {
                     ++count;
                     return Status::OK();
                   }).ok());
    EXPECT_EQ(count, 2);
    Lsn next = log->Append(SampleUpdate(2, kNullLsn, 9, 9)).value();
    EXPECT_EQ(next, lsns[2]);
    EXPECT_TRUE(log->Force().ok());
  }
};

TEST_F(TornTailTest, TruncatedMidBodyDiscarded) {
  std::vector<Lsn> lsns = WriteThreeRecords();
  // Cut the last record in the middle of its body.
  TruncateTo(lsns[2] + LogManager::kFrameHeaderSize +
             (lsns[3] - lsns[2] - LogManager::kFrameHeaderSize) / 2);
  ExpectTailDiscarded(lsns);
}

TEST_F(TornTailTest, TruncatedMidFrameHeaderDiscarded) {
  std::vector<Lsn> lsns = WriteThreeRecords();
  // Only half of the last record's 8-byte frame header reached the disk.
  TruncateTo(lsns[2] + LogManager::kFrameHeaderSize / 2);
  ExpectTailDiscarded(lsns);
}

TEST_F(TornTailTest, CorruptedTailBodyDiscarded) {
  std::vector<Lsn> lsns = WriteThreeRecords();
  // Full length on disk, but one body byte of the last record flipped: the
  // CRC must reject it.
  FlipByteAt(lsns[2] + LogManager::kFrameHeaderSize + 3);
  ExpectTailDiscarded(lsns);
}

TEST_F(TornTailTest, CorruptedMidLogStopsScanThere) {
  std::vector<Lsn> lsns = WriteThreeRecords();
  // Corrupt the SECOND record: everything from it on is discarded, even
  // though the third record is intact (no valid chain past a bad frame).
  FlipByteAt(lsns[1] + LogManager::kFrameHeaderSize + 3);
  auto log = OpenLog();
  EXPECT_EQ(log->durable_lsn(), lsns[1]);
  EXPECT_TRUE(log->Read(lsns[0]).ok());
  EXPECT_FALSE(log->Read(lsns[1]).ok());
}

// ScanPage: one page's records through the lazily built per-page index. The
// reference is a full Scan plus the filter ScanPage documents.

constexpr uint32_t kMixPages = 6;

bool TouchesPage(const LogRecord& rec, PageId pid) {
  switch (rec.type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kClr:
      return rec.page == pid;
    case LogRecordType::kCallback:
      return rec.cb_object.page == pid;
    default:
      return false;
  }
}

// Each visited record as (LSN, encoded bytes), so a mismatch in either the
// set of records or their contents shows.
using Visits = std::vector<std::pair<Lsn, std::string>>;

Visits ScanPageVisits(LogManager* log, PageId pid, Lsn from) {
  Visits out;
  EXPECT_TRUE(log->ScanPage(pid, from, [&](const LogRecord& rec) {
                   out.emplace_back(rec.lsn, rec.Encode());
                   return Status::OK();
                 }).ok());
  return out;
}

Visits FilteredScanVisits(const LogManager& log, PageId pid, Lsn from) {
  Visits out;
  EXPECT_TRUE(log.Scan(from, [&](const LogRecord& rec) {
                   if (TouchesPage(rec, pid)) {
                     out.emplace_back(rec.lsn, rec.Encode());
                   }
                   return Status::OK();
                 }).ok());
  return out;
}

class ScanPageTest : public LogTest {
 protected:
  // Appends `n` records drawn from a seeded mix of Update, CLR, Callback
  // (slot and whole-page), Commit and Replacement records over kMixPages
  // pages; returns their LSNs.
  std::vector<Lsn> AppendMix(LogManager* log, int n) {
    std::vector<Lsn> lsns;
    for (int i = 0; i < n; ++i) {
      PageId page(static_cast<uint32_t>(rng_.Uniform(kMixPages)));
      auto slot = static_cast<SlotId>(rng_.Uniform(4));
      Psn psn(++psn_);
      LogRecord rec;
      switch (rng_.Uniform(7)) {
        case 0:
        case 1:
          rec = LogRecord::Update(TxnId(1), kNullLsn, page, slot,
                                  UpdateOp::kOverwrite, psn, "redo", "undo");
          break;
        case 2:
          rec = LogRecord::Clr(TxnId(1), kNullLsn, page, slot,
                               UpdateOp::kOverwrite, psn, "img", kNullLsn);
          break;
        case 3:
          rec = LogRecord::Callback(TxnId(1), kNullLsn, ObjectId{page, slot},
                                    ClientId(2), psn);
          break;
        case 4:
          rec = LogRecord::Callback(TxnId(1), kNullLsn,
                                    ObjectId{page, kInvalidSlotId},
                                    ClientId(3), psn);
          break;
        case 5:
          rec = LogRecord::Control(LogRecordType::kCommit, TxnId(1), kNullLsn);
          break;
        default:
          rec = LogRecord::Replacement(page, psn, {});
          break;
      }
      auto lsn = log->Append(rec);
      EXPECT_TRUE(lsn.ok());
      lsns.push_back(lsn.value());
    }
    return lsns;
  }

  // ScanPage equals the filtered Scan for every mixed page plus one the mix
  // never touches, from `from`.
  void ExpectEveryPageMatches(LogManager* log, Lsn from) {
    for (uint32_t p = 0; p <= kMixPages; ++p) {
      EXPECT_EQ(ScanPageVisits(log, PageId(p), from),
                FilteredScanVisits(*log, PageId(p), from))
          << "page " << p << " from " << from.value();
    }
  }

  Rng rng_{24};
  uint64_t psn_ = 0;
};

TEST_F(ScanPageTest, MatchesFilteredScanFromStartAndMiddle) {
  auto log = OpenLog();
  std::vector<Lsn> lsns = AppendMix(log.get(), 300);
  ASSERT_TRUE(log->Force().ok());
  ExpectEveryPageMatches(log.get(), log->begin_lsn());
  ExpectEveryPageMatches(log.get(), lsns[lsns.size() / 2]);
  ExpectEveryPageMatches(log.get(), log->end_lsn());
  EXPECT_FALSE(ScanPageVisits(log.get(), PageId(0), log->begin_lsn()).empty());
}

TEST_F(ScanPageTest, IncludesUnforcedBufferedTail) {
  auto log = OpenLog();
  AppendMix(log.get(), 200);
  ASSERT_TRUE(log->Force().ok());
  std::vector<Lsn> tail = AppendMix(log.get(), 60);
  ASSERT_GT(log->pending_bytes(), 0u);
  ExpectEveryPageMatches(log.get(), log->begin_lsn());
  ExpectEveryPageMatches(log.get(), tail[tail.size() / 2]);
}

TEST_F(ScanPageTest, CatchesUpWithAppendsBetweenQueries) {
  auto log = OpenLog();
  Lsn from = log->begin_lsn();
  for (int round = 0; round < 5; ++round) {
    std::vector<Lsn> lsns = AppendMix(log.get(), 40);
    if (round % 2 == 0) {
      ASSERT_TRUE(log->Force().ok());
    }
    ExpectEveryPageMatches(log.get(), log->begin_lsn());
    ExpectEveryPageMatches(log.get(), from);
    from = lsns[lsns.size() / 3];
  }
}

TEST_F(ScanPageTest, TornTailReopenDropsLostRecords) {
  std::vector<Lsn> lsns;
  {
    auto log = OpenLog();
    lsns = AppendMix(log.get(), 200);
    ASSERT_TRUE(log->Force().ok());
    // Index everything, including an unforced tail the crash will lose.
    std::vector<Lsn> unforced = AppendMix(log.get(), 30);
    lsns.insert(lsns.end(), unforced.begin(), unforced.end());
    ExpectEveryPageMatches(log.get(), log->begin_lsn());
  }
  // Tear the last forced frame in half as well.
  Lsn cut = lsns[199];
  std::filesystem::resize_file(dir_ + "/test.log",
                               cut.value() + LogManager::kFrameHeaderSize);
  auto log = OpenLog();
  ASSERT_EQ(log->end_lsn(), cut);
  for (uint32_t p = 0; p < kMixPages; ++p) {
    for (const auto& [lsn, bytes] :
         ScanPageVisits(log.get(), PageId(p), log->begin_lsn())) {
      EXPECT_LT(lsn, cut) << "page " << p << " returned a lost record";
    }
  }
  ExpectEveryPageMatches(log.get(), log->begin_lsn());
  // New records reuse the lost addresses; the index must show only them.
  AppendMix(log.get(), 50);
  ExpectEveryPageMatches(log.get(), log->begin_lsn());
  ExpectEveryPageMatches(log.get(), cut);
}

TEST_F(ScanPageTest, PageQueriesReadEachFrameOncePlusTheirOwnRecords) {
  auto log = OpenLog();
  AppendMix(log.get(), 400);
  ASSERT_TRUE(log->Force().ok());
  uint64_t frames = 0;
  std::vector<uint64_t> per_page(kMixPages, 0);
  ASSERT_TRUE(log->Scan(log->begin_lsn(), [&](const LogRecord& rec) {
                   ++frames;
                   for (uint32_t p = 0; p < kMixPages; ++p) {
                     if (TouchesPage(rec, PageId(p))) ++per_page[p];
                   }
                   return Status::OK();
                 }).ok());
  // P queries read at most N + (records of the P pages) frames: one index
  // catch-up pass, then each page's own frames. A full Scan per query would
  // read P * N.
  uint64_t before = log->frames_read();
  uint64_t bound = frames;
  for (uint32_t p = 0; p < kMixPages; p += 2) {
    ASSERT_EQ(ScanPageVisits(log.get(), PageId(p), log->begin_lsn()).size(),
              per_page[p]);
    bound += per_page[p];
  }
  EXPECT_LE(log->frames_read() - before, bound);
  // With the index caught up, a repeat query reads only the page's frames.
  before = log->frames_read();
  ScanPageVisits(log.get(), PageId(1), log->begin_lsn());
  EXPECT_EQ(log->frames_read() - before, per_page[1]);
}

}  // namespace
}  // namespace finelog
