// SystemConfig: every tunable of a finelog deployment, including the policy
// knobs that select between the paper's algorithms and the baseline systems
// the paper compares against (Section 4).

#ifndef FINELOG_COMMON_CONFIG_H_
#define FINELOG_COMMON_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cost_model.h"

namespace finelog {

class FaultInjector;
class LogSink;

// How the deployment executes (DESIGN.md section 17).
enum class ExecMode {
  // The deterministic simulation: one thread, a SimClock advanced by
  // modelled costs, synchronous RPC delivery, buffered log "durability".
  // This mode is the correctness oracle -- byte-identical schedules from
  // (config, seed).
  kSimulated,
  // Real concurrency: each client on its own std::thread, a monotonic
  // RealClock, an MPSC queue transport driven by a server-side reactor
  // thread, and log forces that hit a real file with fdatasync.
  kRealClock,
};

// Where log records are made durable (Section 4.1).
enum class LoggingPolicy {
  // The paper: each client writes log records to its own private log disk;
  // nothing is shipped at commit.
  kClientLocal,
  // ARIES/CSA [18]: clients ship all of a transaction's log records to the
  // server at commit; the server forces them to its log before acking.
  kShipLogsAtCommit,
  // Versant-style [24]: all pages modified by the transaction are shipped to
  // the server at commit so the server can log the changes.
  kShipPagesAtCommit,
};

// Granularity of concurrency control.
enum class LockGranularity {
  kObject,  // The paper: fine-granularity (object) locking.
  kPage,    // The companion ICDE'96 system [20]: page-level locking.
};

// How concurrent updates by different clients to the same page are handled
// (Section 3.1).
enum class SamePageUpdatePolicy {
  // The paper: multiple outstanding copies, reconciled by merging page
  // copies with PSN = max+1.
  kMergeCopies,
  // Update-privilege / update-token serialization [17, 18]: a page may only
  // be physically updated by the current token holder; token transfer ships
  // the page through the server.
  kUpdateToken,
};

// Network fault model (DESIGN.md section 13): message-level drop, duplicate,
// delay and bounded reorder, all drawn from one seeded RNG so a chaos run is
// reproducible from its (config, seed) pair. Every knob defaults off; with
// the defaults a seeded workload is byte-identical to the infallible-network
// behavior (no RNG draws, no extra clock motion, no extra messages).
struct NetFaultConfig {
  // Per-message Bernoulli rates in [0, 1]. A message is first tested for
  // drop; a surviving message is tested for duplicate, then reorder, then
  // delay. Each enabled rate draws exactly once per message so the RNG
  // stream is a deterministic function of the message sequence.
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  double reorder_rate = 0.0;
  double delay_rate = 0.0;

  // Simulated-clock penalty charged when a delay fault fires.
  uint64_t delay_us = 2000;

  // A reordered message surfaces again as a stale ghost within this many
  // subsequent messages.
  uint32_t reorder_window = 4;

  // RPC policy: a lost leg costs rpc_timeout_us of simulated time, then the
  // call retries with exponential backoff (base << attempt, capped, plus
  // seeded jitter) up to max_attempts total attempts.
  uint64_t rpc_timeout_us = 4000;
  uint32_t max_attempts = 8;
  uint64_t backoff_base_us = 500;
  uint64_t backoff_cap_us = 32000;

  // Bounded per-session reply-dedup cache (entries per direction per peer).
  uint32_t dedup_cache_size = 16;

  // Seed for the delivery RNG.
  uint64_t seed = 1;

  // When false (default), recovery-plane traffic (the Rec* endpoints) is
  // exempt from injected faults so crash recovery itself stays reliable.
  bool fault_recovery = false;

  // When true, the FaultInjector is consulted at net.<side>.<endpoint>.<op>
  // points before the rate draws, so tests can arm one-shot deterministic
  // wire faults. Off by default so existing injector-driven crash sweeps
  // see an unchanged hit sequence.
  bool use_fail_points = false;

  // Network partition: every message leg to or from a listed client id is
  // dropped -- including recovery-plane traffic, since an unreachable node
  // is unreachable for recovery too. Chaos harnesses add a client here to
  // sever it mid-run and clear the list to heal. Raw ids keep this header
  // free of the strong-type dependency.
  std::vector<uint32_t> partitioned_clients;

  bool partitioned(uint32_t client) const {
    for (uint32_t c : partitioned_clients) {
      if (c == client) return true;
    }
    return false;
  }

  bool enabled() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || reorder_rate > 0.0 ||
           delay_rate > 0.0 || use_fail_points ||
           !partitioned_clients.empty();
  }
};

struct SystemConfig {
  // Topology.
  uint32_t num_clients = 4;

  // Execution mode (DESIGN.md section 17). kRealClock runs clients on real
  // threads against a monotonic clock; it rejects the simulated network
  // fault model (net_faults must stay disabled) because the queue transport
  // is a reliable in-process link -- chaos stays the simulation's job.
  ExecMode exec_mode = ExecMode::kSimulated;

  // kRealClock only: how long a client thread waits for the reactor to
  // complete one RPC frame before the call fails with kWouldBlock
  // (degraded to a clean abort by the transaction layer). 0 = wait forever.
  uint64_t realclock_rpc_timeout_us = 10 * 1000 * 1000;

  // Where Force()/page writes become durable. Null picks the mode default:
  // a buffered (fflush-only) sink for the simulation, a DurableSink
  // (fflush + fdatasync) owned by the System for kRealClock. Not owned.
  LogSink* log_sink = nullptr;

  // Storage geometry.
  uint32_t page_size = 4096;
  uint32_t num_pages = 256;          // Database capacity in pages.
  uint32_t preloaded_pages = 128;    // Pages populated at bootstrap.
  uint32_t objects_per_page = 16;    // Initial objects allocated per page.
  uint32_t object_size = 128;        // Initial object payload bytes.

  // Cache sizes (in pages).
  uint32_t client_cache_pages = 64;
  uint32_t server_cache_pages = 128;

  // Private log capacity per client, in bytes. 0 = unbounded. Bounded logs
  // exercise the log space management protocol of Section 3.6.
  uint64_t client_log_capacity = 0;

  // Escalation: a client asks for a page-level lock once it holds exclusive
  // locks on more than this many objects of one page (adaptive scheme [3]).
  uint32_t escalation_threshold = 8;

  // Footnote-3 extension: fraction of extra capacity reserved when an
  // object is created (0.5 = 50% headroom). A resize within reserved
  // capacity is performed in place and is mergeable -- it needs only an
  // object-level lock instead of a page-level one. 0 disables reservation.
  double resize_reserve = 0.0;

  // Group commit (Section 2 follow-on win): when group_commit_window > 0, a
  // committing transaction appends its commit record but defers the log
  // force; the force fires once the oldest deferred commit is older than the
  // window (simulated microseconds) or group_commit_max_txns commits are
  // pending, whichever comes first, and makes every pending commit durable
  // with a single Force(). window = 0 keeps the seed behavior: every commit
  // forces immediately.
  uint64_t group_commit_window = 0;
  uint32_t group_commit_max_txns = 8;

  // Message batching: batch endpoint variants (lock requests, page fetches,
  // copy-back ships, callback fan-out) carry up to this many items per
  // simulated message. 1 = every item pays full per-message overhead (seed
  // behavior).
  uint32_t max_batch_items = 1;

  // Liveness (DESIGN.md section 14). When heartbeat_interval_us > 0, each
  // client piggybacks a heartbeat RPC on its API entry points whenever that
  // much simulated time has passed since its last one, and the server keeps
  // a lease per client: a client whose lease runs out is declared presumed
  // dead -- its shared locks are released (Section 3.3), clean exclusive
  // locks are reclaimed, and its DCT-dirty pages stay quarantined until it
  // runs crash recovery. 0 (default) disables the subsystem entirely: no
  // heartbeat messages, no protocol clock reads, and the message schedule
  // stays byte-identical to the lease-free build.
  uint64_t heartbeat_interval_us = 0;

  // How long each renewal keeps the lease alive. Must comfortably exceed
  // heartbeat_interval_us plus worst-case RPC latency, or active clients
  // would be evicted between renewals.
  uint64_t lease_duration_us = 200000;

  bool liveness_enabled() const { return heartbeat_interval_us > 0; }

  // Instant restart (DESIGN.md section 18): when true, server restart opens
  // admission immediately after membership/DCT replay and recovers pages
  // lazily -- the first endpoint touching an unrecovered page triggers its
  // demand repair (CallBack_P collection plus log replay from only that
  // page's responsible clients), while a background sweep rides on admitted
  // traffic to drain the remainder. When false (default), restart runs the
  // stop-the-world coordinated sweep of Sections 3.4-3.5 and the message/
  // clock schedule stays byte-identical to the pre-feature build.
  bool instant_restart = false;

  // Hot standby (DESIGN.md section 19): when true, System creates a second
  // server instance as a cold standby, a mastership lease (PaxosLease-style,
  // granted through the clock seam) decides which instance is primary, and
  // clients reach the pair through a failover router: a primary crash or
  // timeout probes the standby, which acquires the lease after it expires,
  // fences the deposed epoch, reconstructs the DCT from the durable store
  // plus client logs, and starts serving. When false (default) no standby,
  // router, or mastership table exists and every schedule stays
  // byte-identical to the single-server build.
  bool hot_standby = false;

  // How long each mastership grant/renewal is valid. The deposed primary
  // self-fences once this horizon passes without a successful renewal, so
  // the window also bounds how long a partitioned old primary can keep
  // answering (split-brain exposure is zero: the standby cannot acquire
  // until the same horizon has passed on the shared arbiter).
  uint64_t mastership_lease_us = 400000;

  // Per-attempt budget a client burns (on the clock) against a crashed or
  // silent primary before probing the standby. Together with the caller's
  // retry loop this paces how fast clients walk the mastership gap down to
  // the lease horizon.
  uint64_t failover_timeout_us = 4000;

  // Policies (paper defaults).
  LoggingPolicy logging_policy = LoggingPolicy::kClientLocal;
  LockGranularity lock_granularity = LockGranularity::kObject;
  SamePageUpdatePolicy same_page_policy = SamePageUpdatePolicy::kMergeCopies;

  // Simulated cost model.
  CostModel costs;

  // Workspace directory for database, server log and client logs.
  std::string dir = "/tmp/finelog";

  // Fault injection (tests/harnesses only). When set, every durability-
  // critical I/O site -- client log forces/appends, the server log, the
  // database page writes and the doublewrite journal -- reports to this
  // injector before touching the file, and the armed fault (EIO, torn or
  // short write) fires at the configured hit. Not owned. See util/fault.h.
  FaultInjector* fault_injector = nullptr;

  // Network fault model (tests/harnesses only). All knobs default off.
  NetFaultConfig net_faults;

  // Deliberately broken recovery paths, used by the crash-sweep harness to
  // prove it detects real bugs. Never enable outside self-tests.
  bool debug_trust_log_tail = false;        // Skip the log-tail CRC scan.
  bool debug_skip_journal_replay = false;   // Ignore the doublewrite journal.
};

}  // namespace finelog

#endif  // FINELOG_COMMON_CONFIG_H_
