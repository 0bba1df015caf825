#include "storage/page.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace finelog {
namespace {

class PageTest : public ::testing::Test {
 protected:
  PageTest() : page_(1024) { page_.Format(PageId(7), Psn(100)); }
  Page page_;
};

TEST_F(PageTest, FormatInitializesHeader) {
  EXPECT_EQ(page_.id(), PageId(7));
  EXPECT_EQ(page_.psn(), Psn(100));
  EXPECT_EQ(page_.slot_count(), 0u);
  EXPECT_TRUE(page_.LiveSlots().empty());
}

TEST_F(PageTest, CreateAndReadObject) {
  auto slot = page_.CreateObject("hello world");
  ASSERT_TRUE(slot.ok());
  auto data = page_.ReadObject(slot.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello world");
}

TEST_F(PageTest, CreateManyObjectsDistinctSlots) {
  std::vector<SlotId> slots;
  for (int i = 0; i < 10; ++i) {
    auto slot = page_.CreateObject("obj" + std::to_string(i));
    ASSERT_TRUE(slot.ok());
    slots.push_back(slot.value());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(page_.ReadObject(slots[i]).value(), "obj" + std::to_string(i));
  }
  EXPECT_EQ(page_.LiveSlots().size(), 10u);
}

TEST_F(PageTest, WriteObjectSameSizeInPlace) {
  auto slot = page_.CreateObject("aaaa");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page_.WriteObject(slot.value(), "bbbb").ok());
  EXPECT_EQ(page_.ReadObject(slot.value()).value(), "bbbb");
}

TEST_F(PageTest, WriteObjectRejectsSizeChange) {
  auto slot = page_.CreateObject("aaaa");
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(page_.WriteObject(slot.value(), "toolong").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PageTest, ResizeObjectGrowAndShrink) {
  auto slot = page_.CreateObject("aaaa");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page_.ResizeObject(slot.value(), "much longer value").ok());
  EXPECT_EQ(page_.ReadObject(slot.value()).value(), "much longer value");
  ASSERT_TRUE(page_.ResizeObject(slot.value(), "x").ok());
  EXPECT_EQ(page_.ReadObject(slot.value()).value(), "x");
}

TEST_F(PageTest, DeleteFreesSlotForReuse) {
  auto s1 = page_.CreateObject("first");
  auto s2 = page_.CreateObject("second");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(page_.DeleteObject(s1.value()).ok());
  EXPECT_FALSE(page_.SlotExists(s1.value()));
  EXPECT_TRUE(page_.ReadObject(s1.value()).status().IsNotFound());
  auto s3 = page_.CreateObject("third");
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s3.value(), s1.value());  // Slot reused.
  EXPECT_EQ(page_.ReadObject(s2.value()).value(), "second");
}

TEST_F(PageTest, CreateObjectAtSpecificSlot) {
  ASSERT_TRUE(page_.CreateObjectAt(5, "at five").ok());
  EXPECT_EQ(page_.ReadObject(5).value(), "at five");
  EXPECT_EQ(page_.slot_count(), 6u);
  EXPECT_FALSE(page_.SlotExists(4));
  // Occupied slot is rejected.
  EXPECT_EQ(page_.CreateObjectAt(5, "again").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PageTest, CompactionReclaimsHoles) {
  // Fill, delete every other object, then allocate something large that only
  // fits after compaction.
  std::vector<SlotId> slots;
  std::string payload(80, 'x');
  while (true) {
    auto slot = page_.CreateObject(payload);
    if (!slot.ok()) break;
    slots.push_back(slot.value());
  }
  ASSERT_GT(slots.size(), 4u);
  size_t freed = 0;
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.DeleteObject(slots[i]).ok());
    freed += 80;
  }
  std::string big(freed - 16, 'y');
  auto slot = page_.CreateObject(big);
  ASSERT_TRUE(slot.ok()) << slot.status().ToString();
  EXPECT_EQ(page_.ReadObject(slot.value()).value(), big);
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(page_.ReadObject(slots[i]).value(), payload);
  }
}

TEST_F(PageTest, PageFullReported) {
  std::string payload(100, 'z');
  Status last = Status::OK();
  for (int i = 0; i < 100; ++i) {
    auto slot = page_.CreateObject(payload);
    if (!slot.ok()) {
      last = slot.status();
      break;
    }
  }
  EXPECT_EQ(last.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PageTest, PsnBumpAndSet) {
  page_.BumpPsn();
  EXPECT_EQ(page_.psn(), Psn(101));
  page_.set_psn(Psn(500));
  EXPECT_EQ(page_.psn(), Psn(500));
}

TEST_F(PageTest, ChecksumRoundTrip) {
  auto slot = page_.CreateObject("checksummed");
  ASSERT_TRUE(slot.ok());
  page_.UpdateChecksum();
  EXPECT_TRUE(page_.VerifyChecksum());
  // Corrupt a byte.
  page_.raw()[700] ^= 0x5A;
  EXPECT_FALSE(page_.VerifyChecksum());
}

TEST_F(PageTest, ZeroLengthObject) {
  auto slot = page_.CreateObject("");
  ASSERT_TRUE(slot.ok());
  EXPECT_TRUE(page_.SlotExists(slot.value()));
  EXPECT_EQ(page_.ReadObject(slot.value()).value(), "");
}

TEST_F(PageTest, FreeSpaceDecreasesWithAllocations) {
  size_t before = page_.FreeSpace();
  ASSERT_TRUE(page_.CreateObject(std::string(100, 'a')).ok());
  EXPECT_LT(page_.FreeSpace(), before);
}

TEST_F(PageTest, GrowThatDoesNotFitKeepsObject) {
  auto slot = page_.CreateObject("keep me");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page_.CreateObject(std::string(600, 'f')).ok());
  std::string before = page_.raw();
  EXPECT_FALSE(page_.Fits(slot.value(), 500));
  EXPECT_EQ(page_.ResizeObject(slot.value(), std::string(500, 'g')).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(page_.ReadObject(slot.value()).value(), "keep me");
  EXPECT_EQ(page_.raw(), before);
}

// Fits(slot, n) is exactly the space rule of CreateObjectAt and
// ResizeObject: over random create / delete / resize sequences it predicts
// whether the operation, run on a copy, succeeds, and a refused operation
// leaves the copy untouched.
TEST_F(PageTest, FitsPredictsCreateAndResize) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    auto uniform = [&](uint32_t n) { return rng() % n; };
    Page page(1024);
    page.Format(PageId(1), Psn(1));
    for (int step = 0; step < 400; ++step) {
      std::vector<SlotId> live = page.LiveSlots();
      uint32_t kind = uniform(3);
      if (kind == 1 && !live.empty()) {
        ASSERT_TRUE(page.DeleteObject(live[uniform(live.size())]).ok());
        continue;
      }
      std::string data(uniform(300), static_cast<char>('a' + step % 26));
      Page copy = page;
      bool fits;
      Status st;
      if (kind == 2 && !live.empty()) {
        SlotId slot = live[uniform(live.size())];
        fits = page.Fits(slot, data.size());
        st = copy.ResizeObject(slot, data);
      } else {
        SlotId slot = page.FreeSlot();
        uint16_t capacity = static_cast<uint16_t>(data.size() + uniform(64));
        fits = page.Fits(slot, capacity);
        st = copy.CreateObjectAt(slot, data, capacity);
      }
      ASSERT_EQ(fits, st.ok()) << "step " << step << ": " << st.ToString();
      if (st.ok()) {
        page = std::move(copy);
      } else {
        EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
        EXPECT_EQ(copy.raw(), page.raw()) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace finelog
