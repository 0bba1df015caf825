// Checkable protocol and thread-safety annotations (DESIGN.md section 16).
//
// Two audiences consume these macros:
//
//  1. tools/finelog_check.py -- the static checker (cmake target `check`).
//     Its program rules read the annotations from source and enforce the
//     protocol rule catalog: WAL-before-mutate, admission-before-state,
//     the RPC chokepoint, and the shared-state annotation discipline.
//     For the verifier the macros are pure markers; they may expand to
//     nothing and still do their job.
//
//  2. clang's -Wthread-safety analysis. Under clang with
//     FINELOG_THREAD_SAFETY_ANALYSIS defined (cmake option of the same
//     name, on in the pinned-clang CI job), the FINELOG_GUARDED_BY /
//     FINELOG_REQUIRES / capability family expands to the real attributes
//     and the whole vocabulary becomes compiler-enforced lock discipline.
//     SimMutex is a real recursive mutex: the simulated mode acquires it
//     uncontended on one thread, the real-clock mode (ExecMode::kRealClock,
//     DESIGN.md section 17) acquires it for real across client threads and
//     the server reactor.
//
// Placement grammar (what the verifier parses):
//   - field:      Type name_ FINELOG_GUARDED_BY(mu_);
//                 Type name_ FINELOG_UNGUARDED("reason");
//   - function:   FINELOG_REPLAY_PATH("reason") Status Foo::Bar(...) { ... }
//                 FINELOG_MUTATES_PAGE Status Mutator(...);
//   - method:     Status Helper(...) FINELOG_REQUIRES(mu_);
//   - class:      class FINELOG_SHARED_STATE_CLASS Server { ... };

#ifndef FINELOG_COMMON_ANNOTATIONS_H_
#define FINELOG_COMMON_ANNOTATIONS_H_

#include <atomic>
#include <mutex>
#include <thread>

#if defined(__clang__) && defined(FINELOG_THREAD_SAFETY_ANALYSIS)
#define FINELOG_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define FINELOG_TS_ATTRIBUTE(x)  // no-op outside clang -Wthread-safety builds
#endif

// --- clang -Wthread-safety vocabulary ---------------------------------------

#define FINELOG_CAPABILITY(name) FINELOG_TS_ATTRIBUTE(capability(name))
#define FINELOG_GUARDED_BY(cap) FINELOG_TS_ATTRIBUTE(guarded_by(cap))
#define FINELOG_PT_GUARDED_BY(cap) FINELOG_TS_ATTRIBUTE(pt_guarded_by(cap))
#define FINELOG_REQUIRES(...) \
  FINELOG_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define FINELOG_ACQUIRE(...) \
  FINELOG_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define FINELOG_RELEASE(...) \
  FINELOG_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define FINELOG_EXCLUDES(...) FINELOG_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define FINELOG_SCOPED_CAPABILITY FINELOG_TS_ATTRIBUTE(scoped_lockable)
#define FINELOG_NO_THREAD_SAFETY_ANALYSIS \
  FINELOG_TS_ATTRIBUTE(no_thread_safety_analysis)

// --- verifier-only markers (always expand to nothing) -----------------------

// Marks a class whose every non-static data member must carry
// FINELOG_GUARDED_BY / FINELOG_PT_GUARDED_BY or FINELOG_UNGUARDED("reason").
// finelog-check enforces the sweep and requires the marker itself on the
// core shared classes (Server, GlobalLockManager, LivenessTable, LogManager,
// Client).
#define FINELOG_SHARED_STATE_CLASS

// Escape hatch for a field of a FINELOG_SHARED_STATE_CLASS that needs no
// capability: immutable after construction, externally owned wiring, or a
// harness-only knob. The reason string is mandatory and shows up in reviews.
#define FINELOG_UNGUARDED(reason)

// Marks a function that writes page contents. Every *caller* of a function
// so marked inherits the WAL obligation: its body must also append a log
// record covering the mutation (Client::AppendLog / LogManager::Append), or
// itself be FINELOG_MUTATES_PAGE (pushing the obligation further up), or be
// a declared FINELOG_REPLAY_PATH. The Page primitives in storage/page.h are
// the annotated roots.
#define FINELOG_MUTATES_PAGE

// Declares a function exempt from WAL-before-mutate, with justification:
// recovery replay (the records ARE the log), merge/install of images whose
// updates were logged by their original writer, or bootstrap/format paths
// whose durability is established by other means (e.g. forced flush before
// any client sees the page).
#define FINELOG_REPLAY_PATH(reason)

namespace finelog {

// The capability every FINELOG_SHARED_STATE_CLASS owns; its fields name it
// in FINELOG_GUARDED_BY(mu_). It is a *recursive* mutex over std::mutex:
// the simulated mode runs client<->server exchanges synchronously on one
// stack (a server endpoint calls back into a client, which may ship a page
// back through another server endpoint), so the same thread legitimately
// re-enters a capability it already holds. The real-clock mode keeps the
// same shape: the reactor thread nests endpoint bodies exactly the way the
// simulation does (DESIGN.md section 17).
//
// Recursion is invisible to clang's -Wthread-safety analysis (which models
// non-reentrant capabilities); the locking discipline therefore never
// acquires the same capability twice *within one function body*: public
// methods take the lock once at the top (SimMutexLock) and do their work
// through FINELOG_REQUIRES(mu_) helpers.
class FINELOG_CAPABILITY("mutex") SimMutex {
 public:
  SimMutex() = default;
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  void lock() FINELOG_ACQUIRE() {
    const std::thread::id me = std::this_thread::get_id();
    if (owner_.load(std::memory_order_relaxed) == me) {
      ++depth_;
      return;
    }
    m_.lock();
    owner_.store(me, std::memory_order_relaxed);
    depth_ = 1;
  }

  void unlock() FINELOG_RELEASE() {
    if (--depth_ == 0) {
      owner_.store(std::thread::id(), std::memory_order_relaxed);
      m_.unlock();
    }
  }

  // Transport support (DESIGN.md section 17): a client thread about to park
  // on an RPC frame gives up the whole capability -- however deeply it was
  // re-entered -- so the reactor can deliver callbacks into the client
  // while it waits. Returns the recursion depth to restore.
  int FullRelease() FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    const int depth = depth_;
    depth_ = 0;
    owner_.store(std::thread::id(), std::memory_order_relaxed);
    m_.unlock();
    return depth;
  }

  // Restores the capability at the depth FullRelease returned.
  void Reacquire(int depth) FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    m_.lock();
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    depth_ = depth;
  }

  // True iff the calling thread holds the capability (debug assertions).
  bool HeldByMe() const {
    return owner_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  // Transport support: a frame body running on the reactor while its
  // (parked) submitter holds this capability cooperatively can adopt the
  // ownership for the body's duration, so nested endpoint re-entry from
  // inside the body recurses instead of self-deadlocking. Returns the
  // previous owner to restore before the submitter resumes. Safe because
  // the real holder is parked for exactly the body's lifetime; reentrant
  // (adopting a capability this thread already owns is a no-op pair).
  std::thread::id AdoptOwner() FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    const std::thread::id prev = owner_.load(std::memory_order_relaxed);
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    return prev;
  }
  void RestoreOwner(std::thread::id prev) FINELOG_NO_THREAD_SAFETY_ANALYSIS {
    owner_.store(prev, std::memory_order_relaxed);
  }

 private:
  std::mutex m_;
  // The owner id is written only by the thread that holds m_ (and cleared
  // by it before release); other threads read it solely to answer "is the
  // owner me?", for which a relaxed stale read is safe -- a non-owner can
  // never observe its own id there.
  std::atomic<std::thread::id> owner_{std::thread::id()};
  int depth_ = 0;  // Touched only by the owning thread.
};

// RAII pair for SimMutex::AdoptOwner/RestoreOwner.
class SimMutexAdopt {
 public:
  explicit SimMutexAdopt(SimMutex& mu) : mu_(mu), prev_(mu.AdoptOwner()) {}
  ~SimMutexAdopt() { mu_.RestoreOwner(prev_); }

  SimMutexAdopt(const SimMutexAdopt&) = delete;
  SimMutexAdopt& operator=(const SimMutexAdopt&) = delete;

 private:
  SimMutex& mu_;
  std::thread::id prev_;
};

// RAII guard carrying the scoped_lockable attribute, so clang's analysis
// sees the acquire/release pair (std::lock_guard is not annotated).
class FINELOG_SCOPED_CAPABILITY SimMutexLock {
 public:
  explicit SimMutexLock(SimMutex& mu) FINELOG_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~SimMutexLock() FINELOG_RELEASE() { mu_.unlock(); }

  SimMutexLock(const SimMutexLock&) = delete;
  SimMutexLock& operator=(const SimMutexLock&) = delete;

 private:
  SimMutex& mu_;
};

}  // namespace finelog

#endif  // FINELOG_COMMON_ANNOTATIONS_H_
