#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "lock/glm.h"
#include "lock/llm.h"

namespace finelog {
namespace {

constexpr ObjectId kObj{PageId(1), 0};
constexpr ObjectId kObj2{PageId(1), 1};

// ---------------------------------------------------------------------------
// GlobalLockManager
// ---------------------------------------------------------------------------

TEST(GlmTest, SharedLocksCompatible) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kShared);
  EXPECT_TRUE(glm.RequiredForObject(ClientId(1), kObj, LockMode::kShared).empty());
}

TEST(GlmTest, ExclusiveRequestCallsBackHolders) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kShared);
  glm.GrantObject(ClientId(2), kObj, LockMode::kShared);
  auto actions = glm.RequiredForObject(ClientId(1), kObj, LockMode::kExclusive);
  ASSERT_EQ(actions.size(), 2u);
  for (const auto& a : actions) {
    EXPECT_EQ(a.what, CallbackAction::What::kReleaseObject);
    EXPECT_EQ(a.object, kObj);
  }
}

TEST(GlmTest, SharedRequestDowngradesExclusiveHolder) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kExclusive);
  auto actions = glm.RequiredForObject(ClientId(1), kObj, LockMode::kShared);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].what, CallbackAction::What::kDowngradeObject);
  EXPECT_EQ(actions[0].target, ClientId(0));
  EXPECT_EQ(actions[0].holder_mode, LockMode::kExclusive);
}

TEST(GlmTest, OwnLocksNeverConflict) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kExclusive);
  EXPECT_TRUE(glm.RequiredForObject(ClientId(0), kObj, LockMode::kExclusive).empty());
  EXPECT_TRUE(glm.RequiredForObject(ClientId(0), kObj, LockMode::kShared).empty());
}

TEST(GlmTest, PageLockConflictsWithObjectRequest) {
  GlobalLockManager glm;
  glm.GrantPage(ClientId(0), PageId(1), LockMode::kExclusive);
  auto actions = glm.RequiredForObject(ClientId(1), kObj, LockMode::kShared);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].what, CallbackAction::What::kDeescalatePage);
  EXPECT_EQ(actions[0].page, PageId(1));
}

TEST(GlmTest, ObjectLocksConflictWithPageRequest) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kExclusive);
  glm.GrantObject(ClientId(2), kObj2, LockMode::kShared);
  auto actions = glm.RequiredForPage(ClientId(1), PageId(1), LockMode::kExclusive);
  EXPECT_EQ(actions.size(), 2u);
}

TEST(GlmTest, SharedPageCompatibleWithSharedObject) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kShared);
  EXPECT_TRUE(glm.RequiredForPage(ClientId(1), PageId(1), LockMode::kShared).empty());
}

TEST(GlmTest, DeescalationTradesPageForObjects) {
  GlobalLockManager glm;
  glm.GrantPage(ClientId(0), PageId(1), LockMode::kExclusive);
  glm.ApplyDeescalation(ClientId(0), PageId(1), {kObj, kObj2}, LockMode::kExclusive);
  EXPECT_FALSE(glm.HoldsPage(ClientId(0), PageId(1), LockMode::kShared));
  EXPECT_TRUE(glm.HoldsObject(ClientId(0), kObj, LockMode::kExclusive));
  EXPECT_TRUE(glm.HoldsObject(ClientId(0), kObj2, LockMode::kExclusive));
}

TEST(GlmTest, ClientCrashReleasesOnlySharedLocks) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kShared);
  glm.GrantObject(ClientId(0), kObj2, LockMode::kExclusive);
  glm.GrantPage(ClientId(0), PageId(5), LockMode::kShared);
  glm.ReleaseSharedLocksOf(ClientId(0));
  EXPECT_FALSE(glm.HoldsObject(ClientId(0), kObj, LockMode::kShared));
  EXPECT_TRUE(glm.HoldsObject(ClientId(0), kObj2, LockMode::kExclusive));
  EXPECT_FALSE(glm.HoldsPage(ClientId(0), PageId(5), LockMode::kShared));
  auto x = glm.ExclusiveObjectLocksOf(ClientId(0));
  ASSERT_EQ(x.size(), 1u);
  EXPECT_EQ(x[0], kObj2);
}

TEST(GlmTest, DowngradeKeepsSharedAccess) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kExclusive);
  glm.DowngradeObject(ClientId(0), kObj);
  EXPECT_TRUE(glm.HoldsObject(ClientId(0), kObj, LockMode::kShared));
  EXPECT_FALSE(glm.HoldsObject(ClientId(0), kObj, LockMode::kExclusive));
  EXPECT_TRUE(glm.RequiredForObject(ClientId(1), kObj, LockMode::kShared).empty());
}

TEST(GlmTest, UpgradeTriggersCallbacksOnOtherSharers) {
  GlobalLockManager glm;
  glm.GrantObject(ClientId(0), kObj, LockMode::kShared);
  glm.GrantObject(ClientId(1), kObj, LockMode::kShared);
  auto actions = glm.RequiredForObject(ClientId(0), kObj, LockMode::kExclusive);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].target, ClientId(1));
}

// ---------------------------------------------------------------------------
// LocalLockManager
// ---------------------------------------------------------------------------

TEST(LlmTest, MissWithoutEntry) {
  LocalLockManager llm;
  EXPECT_EQ(llm.TryAcquireObject(TxnId(1), kObj, LockMode::kShared),
            LocalLockManager::Acquire::kMiss);
}

TEST(LlmTest, CachedLockHitAcrossTransactions) {
  LocalLockManager llm;
  llm.AddObjectLock(TxnId(1), kObj, LockMode::kExclusive);
  llm.OnTxnEnd(TxnId(1));  // Lock becomes cached.
  EXPECT_EQ(llm.TryAcquireObject(TxnId(2), kObj, LockMode::kExclusive),
            LocalLockManager::Acquire::kHit);
}

TEST(LlmTest, SharedEntryDoesNotCoverExclusive) {
  LocalLockManager llm;
  llm.AddObjectLock(TxnId(1), kObj, LockMode::kShared);
  llm.OnTxnEnd(TxnId(1));
  EXPECT_EQ(llm.TryAcquireObject(TxnId(2), kObj, LockMode::kExclusive),
            LocalLockManager::Acquire::kMiss);
}

TEST(LlmTest, LocalWriteWriteConflict) {
  LocalLockManager llm;
  llm.AddObjectLock(TxnId(1), kObj, LockMode::kExclusive);
  EXPECT_EQ(llm.TryAcquireObject(TxnId(2), kObj, LockMode::kExclusive),
            LocalLockManager::Acquire::kLocalConflict);
  llm.OnTxnEnd(TxnId(1));
  EXPECT_EQ(llm.TryAcquireObject(TxnId(2), kObj, LockMode::kExclusive),
            LocalLockManager::Acquire::kHit);
}

TEST(LlmTest, LocalReadersShareEntry) {
  LocalLockManager llm;
  llm.AddObjectLock(TxnId(1), kObj, LockMode::kShared);
  EXPECT_EQ(llm.TryAcquireObject(TxnId(2), kObj, LockMode::kShared),
            LocalLockManager::Acquire::kHit);
}

TEST(LlmTest, PageLockCoversObjectAccess) {
  LocalLockManager llm;
  llm.AddPageLock(TxnId(1), PageId(1), LockMode::kExclusive);
  EXPECT_EQ(llm.TryAcquireObject(TxnId(1), kObj, LockMode::kExclusive),
            LocalLockManager::Acquire::kHit);
  // The implicit entry is recorded for de-escalation.
  llm.OnTxnEnd(TxnId(1));
  auto promoted = llm.Deescalate(PageId(1));
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0].first, kObj);
  EXPECT_EQ(promoted[0].second, LockMode::kExclusive);
  EXPECT_FALSE(llm.CoversPage(PageId(1), LockMode::kShared));
  EXPECT_TRUE(llm.CoversObject(kObj, LockMode::kExclusive));
}

TEST(LlmTest, CallbackDeniedWhileObjectInUse) {
  LocalLockManager llm;
  llm.AddObjectLock(TxnId(1), kObj, LockMode::kExclusive);
  EXPECT_FALSE(llm.CanReleaseObject(kObj));
  EXPECT_FALSE(llm.CanDowngradeObject(kObj));
  llm.OnTxnEnd(TxnId(1));
  EXPECT_TRUE(llm.CanReleaseObject(kObj));
  EXPECT_TRUE(llm.CanDowngradeObject(kObj));
}

TEST(LlmTest, DowngradeAllowedForActiveReaders) {
  LocalLockManager llm;
  llm.AddObjectLock(TxnId(1), kObj, LockMode::kExclusive);
  llm.OnTxnEnd(TxnId(1));
  // Now a later transaction reads under the cached X entry.
  EXPECT_EQ(llm.TryAcquireObject(TxnId(2), kObj, LockMode::kShared),
            LocalLockManager::Acquire::kHit);
  EXPECT_FALSE(llm.CanReleaseObject(kObj));
  EXPECT_TRUE(llm.CanDowngradeObject(kObj));
}

TEST(LlmTest, DeescalateDeniedDuringStructuralTxn) {
  LocalLockManager llm;
  llm.AddPageLock(TxnId(1), PageId(1), LockMode::kExclusive);  // Txn 1 is a page writer.
  EXPECT_FALSE(llm.CanDeescalatePage(PageId(1)));
  llm.OnTxnEnd(TxnId(1));
  EXPECT_TRUE(llm.CanDeescalatePage(PageId(1)));
}

TEST(LlmTest, EscalationCounting) {
  LocalLockManager llm;
  for (SlotId s = 0; s < 5; ++s) {
    llm.AddObjectLock(TxnId(1), ObjectId{PageId(3), s}, LockMode::kExclusive);
  }
  llm.AddObjectLock(TxnId(1), ObjectId{PageId(4), 0}, LockMode::kExclusive);
  EXPECT_EQ(llm.ExclusiveObjectCountOnPage(PageId(3)), 5u);
  EXPECT_EQ(llm.ExclusiveObjectCountOnPage(PageId(4)), 1u);
}

TEST(LlmTest, SnapshotListsEverything) {
  LocalLockManager llm;
  llm.AddObjectLock(TxnId(1), kObj, LockMode::kExclusive);
  llm.AddPageLock(TxnId(1), PageId(9), LockMode::kShared);
  auto snap = llm.GetSnapshot();
  EXPECT_EQ(snap.objects.size(), 1u);
  EXPECT_EQ(snap.pages.size(), 1u);
}

TEST(LlmTest, HasAnyLockOnPage) {
  LocalLockManager llm;
  EXPECT_FALSE(llm.HasAnyLockOnPage(PageId(1)));
  llm.AddObjectLock(TxnId(1), kObj, LockMode::kShared);
  EXPECT_TRUE(llm.HasAnyLockOnPage(PageId(1)));
  llm.ReleaseObject(kObj);
  EXPECT_FALSE(llm.HasAnyLockOnPage(PageId(1)));
}

// ---------------------------------------------------------------------------
// Per-page queries against a brute-force reference
// ---------------------------------------------------------------------------
//
// Both lock managers answer per-page questions from one range of their
// (page, slot)-ordered object table. This test drives random operations over
// pages 0-3, with slots at both ends of the slot space, and after every
// operation compares each per-page answer with a filter over the whole
// table: for the GLM, point lookups over every (client, object) of the key
// space; for the LLM, a reference table the test keeps itself.

constexpr uint32_t kRefPages = 4;
constexpr uint32_t kRefClients = 3;
constexpr SlotId kRefSlots[] = {0, 1, 2, 0xFFFE};

LockMode RandomMode(std::mt19937& rng) {
  return rng() % 2 == 0 ? LockMode::kShared : LockMode::kExclusive;
}

ObjectId RandomObject(std::mt19937& rng) {
  return ObjectId{PageId(rng() % kRefPages), kRefSlots[rng() % 4]};
}

// Mode `client` holds on `oid` in the GLM, if any, read by point lookups.
std::optional<LockMode> GlmObjectMode(const GlobalLockManager& glm,
                                      ClientId client, ObjectId oid) {
  if (glm.HoldsObject(client, oid, LockMode::kExclusive)) {
    return LockMode::kExclusive;
  }
  if (glm.HoldsObject(client, oid, LockMode::kShared)) return LockMode::kShared;
  return std::nullopt;
}

// What RequiredForPage must return: page-lock holders in client order, then
// each object of the page in slot order with its holders in client order.
std::vector<CallbackAction> ExpectedForPage(const GlobalLockManager& glm,
                                            ClientId client, PageId pid,
                                            LockMode mode) {
  std::vector<CallbackAction> out;
  for (uint32_t c = 0; c < kRefClients; ++c) {
    ClientId holder(c);
    if (holder == client) continue;
    for (LockMode held : {LockMode::kExclusive, LockMode::kShared}) {
      if (!glm.HoldsPage(holder, pid, held)) continue;
      if (!Compatible(held, mode)) {
        out.push_back(CallbackAction{CallbackAction::What::kDeescalatePage,
                                     holder, ObjectId{}, pid, held, mode});
      }
      break;
    }
  }
  for (uint32_t p = 0; p < kRefPages; ++p) {
    for (SlotId slot : kRefSlots) {
      ObjectId oid{PageId(p), slot};
      if (oid.page != pid) continue;
      for (uint32_t c = 0; c < kRefClients; ++c) {
        ClientId holder(c);
        auto held = GlmObjectMode(glm, holder, oid);
        if (holder == client || !held || Compatible(*held, mode)) continue;
        out.push_back(CallbackAction{
            mode == LockMode::kShared ? CallbackAction::What::kDowngradeObject
                                      : CallbackAction::What::kReleaseObject,
            holder, oid, kInvalidPageId, *held, mode});
      }
    }
  }
  return out;
}

void ExpectSameActions(const std::vector<CallbackAction>& got,
                       const std::vector<CallbackAction>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].what, want[i].what) << i;
    EXPECT_EQ(got[i].target, want[i].target) << i;
    EXPECT_EQ(got[i].object, want[i].object) << i;
    EXPECT_EQ(got[i].page, want[i].page) << i;
    EXPECT_EQ(got[i].holder_mode, want[i].holder_mode) << i;
    EXPECT_EQ(got[i].requested, want[i].requested) << i;
  }
}

void CheckGlmPages(const GlobalLockManager& glm) {
  for (uint32_t p = 0; p < kRefPages; ++p) {
    PageId pid(p);
    for (uint32_t c = 0; c < kRefClients; ++c) {
      ClientId client(c);
      for (LockMode mode : {LockMode::kShared, LockMode::kExclusive}) {
        ExpectSameActions(glm.RequiredForPage(client, pid, mode),
                          ExpectedForPage(glm, client, pid, mode));
      }
      bool holds_x = false;
      for (SlotId slot : kRefSlots) {
        holds_x |= glm.HoldsObject(client, ObjectId{pid, slot},
                                   LockMode::kExclusive);
      }
      EXPECT_EQ(glm.HoldsExclusiveObjectOnPage(client, pid), holds_x);
    }
  }
}

TEST(PageRangeReferenceTest, GlmPerPageQueriesMatchFullTableFilter) {
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    GlobalLockManager glm;
    for (int op = 0; op < 2000; ++op) {
      ClientId client(rng() % kRefClients);
      ObjectId oid = RandomObject(rng);
      switch (rng() % 8) {
        case 0:
        case 1:
          glm.GrantObject(client, oid, RandomMode(rng));
          break;
        case 2:
          glm.ReleaseObject(client, oid);
          break;
        case 3:
          glm.DowngradeObject(client, oid);
          break;
        case 4:
          glm.GrantPage(client, oid.page, RandomMode(rng));
          break;
        case 5:
          if (rng() % 2 == 0) {
            glm.ReleasePage(client, oid.page);
          } else {
            glm.DowngradePage(client, oid.page);
          }
          break;
        case 6: {
          std::vector<ObjectId> objects;
          for (SlotId slot : kRefSlots) {
            if (rng() % 2 == 0) objects.push_back(ObjectId{oid.page, slot});
          }
          glm.ApplyDeescalation(client, oid.page, objects, RandomMode(rng));
          break;
        }
        case 7:
          if (rng() % 8 == 0) glm.ReleaseSharedLocksOf(client);
          break;
      }
      CheckGlmPages(glm);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// The LLM reference: every entry with its users, filtered in full for each
// per-page answer. It keeps the users on the entries, so erasing an entry
// drops them with it.
struct RefEntry {
  LockMode mode = LockMode::kShared;
  std::set<TxnId> readers;
  std::set<TxnId> writers;
};

struct RefLlm {
  std::map<ObjectId, RefEntry> objects;
  std::map<PageId, RefEntry> pages;

  static bool Conflict(const RefEntry& e, TxnId txn, LockMode mode) {
    for (TxnId t : e.writers) {
      if (t != txn) return true;
    }
    if (mode == LockMode::kShared) return false;
    for (TxnId t : e.readers) {
      if (t != txn) return true;
    }
    return false;
  }

  static void Use(RefEntry* e, TxnId txn, LockMode mode) {
    (mode == LockMode::kExclusive ? e->writers : e->readers).insert(txn);
  }

  static void Add(RefEntry* e, TxnId txn, LockMode mode) {
    if (e->mode != LockMode::kExclusive) e->mode = mode;
    Use(e, txn, mode);
  }

  static bool InUse(const RefEntry& e) {
    return !e.readers.empty() || !e.writers.empty();
  }

  void OnTxnEnd(TxnId txn) {
    for (auto& [oid, e] : objects) {
      e.readers.erase(txn);
      e.writers.erase(txn);
    }
    for (auto& [pid, e] : pages) {
      e.readers.erase(txn);
      e.writers.erase(txn);
    }
  }

  LocalLockManager::Acquire TryAcquireObject(TxnId txn, ObjectId oid,
                                             LockMode mode) {
    auto it = objects.find(oid);
    const bool held = it != objects.end();
    if (held && Covers(it->second.mode, mode)) {
      if (Conflict(it->second, txn, mode)) {
        return LocalLockManager::Acquire::kLocalConflict;
      }
      Use(&it->second, txn, mode);
      return LocalLockManager::Acquire::kHit;
    }
    auto pit = pages.find(oid.page);
    if (pit != pages.end() && Covers(pit->second.mode, mode)) {
      if (Conflict(pit->second, txn, mode) ||
          (held && Conflict(it->second, txn, mode))) {
        return LocalLockManager::Acquire::kLocalConflict;
      }
      RefEntry& implicit = objects[oid];
      if (!held || mode == LockMode::kExclusive) implicit.mode = mode;
      Use(&implicit, txn, mode);
      return LocalLockManager::Acquire::kHit;
    }
    if (held && Conflict(it->second, txn, mode)) {
      return LocalLockManager::Acquire::kLocalConflict;
    }
    return LocalLockManager::Acquire::kMiss;
  }

  bool CanReleaseObject(ObjectId oid) const {
    auto it = objects.find(oid);
    return it == objects.end() || !InUse(it->second);
  }

  bool CanDowngradeObject(ObjectId oid) const {
    auto it = objects.find(oid);
    return it == objects.end() || it->second.writers.empty();
  }

  bool CanDeescalatePage(PageId pid) const {
    auto it = pages.find(pid);
    return it == pages.end() || it->second.writers.empty();
  }

  LocalLockManager::Acquire TryAcquirePage(TxnId txn, PageId pid,
                                           LockMode mode) {
    auto pit = pages.find(pid);
    if (pit != pages.end()) {
      if (Conflict(pit->second, txn, mode)) {
        return LocalLockManager::Acquire::kLocalConflict;
      }
      if (Covers(pit->second.mode, mode)) {
        Use(&pit->second, txn, mode);
        return LocalLockManager::Acquire::kHit;
      }
    }
    for (const auto& [oid, e] : objects) {
      if (oid.page == pid && Conflict(e, txn, mode)) {
        return LocalLockManager::Acquire::kLocalConflict;
      }
    }
    return LocalLockManager::Acquire::kMiss;
  }

  std::vector<std::pair<ObjectId, LockMode>> Deescalate(PageId pid) {
    std::vector<std::pair<ObjectId, LockMode>> out;
    if (pages.erase(pid) == 0) return out;
    for (const auto& [oid, e] : objects) {
      if (oid.page == pid) out.emplace_back(oid, e.mode);
    }
    return out;
  }
};

void CheckLlmPages(LocalLockManager& llm, RefLlm& ref) {
  // The reference and the LLM hold the same table.
  auto snap = llm.GetSnapshot();
  ASSERT_EQ(snap.objects.size(), ref.objects.size());
  ASSERT_EQ(snap.pages.size(), ref.pages.size());
  for (const auto& [oid, mode] : snap.objects) {
    ASSERT_EQ(ref.objects.count(oid), 1u);
    ASSERT_EQ(ref.objects[oid].mode, mode);
  }
  for (uint32_t p = 0; p < kRefPages; ++p) {
    PageId pid(p);
    size_t x_count = 0;
    bool any = ref.pages.count(pid) > 0;
    bool x_in_use = false;
    for (const auto& [oid, e] : ref.objects) {
      if (oid.page != pid) continue;
      any = true;
      if (e.mode != LockMode::kExclusive) continue;
      ++x_count;
      x_in_use |= RefLlm::InUse(e);
    }
    EXPECT_EQ(llm.ExclusiveObjectCountOnPage(pid), x_count);
    EXPECT_EQ(llm.HasAnyLockOnPage(pid), any);
    EXPECT_EQ(llm.ExclusiveObjectInUseOnPage(pid), x_in_use);
    EXPECT_EQ(llm.CanDeescalatePage(pid), ref.CanDeescalatePage(pid));
    // A transaction with no uses yet; a hit registers it, so end it after.
    const TxnId probe(1000);
    for (LockMode mode : {LockMode::kShared, LockMode::kExclusive}) {
      EXPECT_EQ(llm.TryAcquirePage(probe, pid, mode),
                ref.TryAcquirePage(probe, pid, mode));
      llm.OnTxnEnd(probe);
      ref.OnTxnEnd(probe);
    }
    for (SlotId slot : kRefSlots) {
      SCOPED_TRACE(::testing::Message() << "page " << p << " slot " << slot);
      ObjectId oid{pid, slot};
      EXPECT_EQ(llm.CanReleaseObject(oid), ref.CanReleaseObject(oid));
      EXPECT_EQ(llm.CanDowngradeObject(oid), ref.CanDowngradeObject(oid));
      // The probe takes the hit, page-cover or miss path. A page-cover hit
      // leaves an implicit entry (or raises an S one to X); undo it so the
      // probes do not steer the random walk.
      for (LockMode mode : {LockMode::kShared, LockMode::kExclusive}) {
        auto before = ref.objects.find(oid);
        std::optional<LockMode> had;
        if (before != ref.objects.end()) had = before->second.mode;
        EXPECT_EQ(llm.TryAcquireObject(probe, oid, mode),
                  ref.TryAcquireObject(probe, oid, mode))
            << LockModeName(mode);
        llm.OnTxnEnd(probe);
        ref.OnTxnEnd(probe);
        if (!had && ref.objects.count(oid) > 0) {
          llm.ReleaseObject(oid);
          ref.objects.erase(oid);
        } else if (had && *had != ref.objects[oid].mode) {
          llm.DowngradeObject(oid);
          ref.objects[oid].mode = *had;
        }
      }
    }
  }
}

TEST(PageRangeReferenceTest, LlmPerPageQueriesMatchFullTableFilter) {
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    LocalLockManager llm;
    RefLlm ref;
    for (int op = 0; op < 2000; ++op) {
      TxnId txn(1 + rng() % 4);
      ObjectId oid = RandomObject(rng);
      LockMode mode = RandomMode(rng);
      switch (rng() % 10) {
        case 0:
        case 1:
          llm.AddObjectLock(txn, oid, mode);
          RefLlm::Add(&ref.objects[oid], txn, mode);
          break;
        case 2:
          llm.AddPageLock(txn, oid.page, mode);
          RefLlm::Add(&ref.pages[oid.page], txn, mode);
          break;
        case 3:
          llm.ReleaseObject(oid);
          ref.objects.erase(oid);
          break;
        case 4:
          llm.ReleasePage(oid.page);
          ref.pages.erase(oid.page);
          break;
        case 5:
          llm.OnTxnEnd(txn);
          ref.OnTxnEnd(txn);
          break;
        case 6:
          EXPECT_EQ(llm.TryAcquirePage(txn, oid.page, mode),
                    ref.TryAcquirePage(txn, oid.page, mode));
          break;
        case 7: {
          auto got = llm.Deescalate(oid.page);
          EXPECT_EQ(got, ref.Deescalate(oid.page));
          break;
        }
        case 8:
          EXPECT_EQ(llm.TryAcquireObject(txn, oid, mode),
                    ref.TryAcquireObject(txn, oid, mode));
          break;
        case 9:
          if (rng() % 2 == 0) {
            llm.DowngradeObject(oid);
            if (ref.objects.count(oid) > 0) {
              ref.objects[oid].mode = LockMode::kShared;
            }
          } else {
            llm.DowngradePage(oid.page);
            if (ref.pages.count(oid.page) > 0) {
              ref.pages[oid.page].mode = LockMode::kShared;
            }
          }
          break;
      }
      CheckLlmPages(llm, ref);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace finelog
