// The client/server protocol: payload types, the client endpoint, one
// request struct per exchange, and the server endpoint.
//
// finelog simulates the network, so an exchange is a direct call; each side
// routes its request and reply through the Rpc chokepoint (net/rpc.h) for
// message/byte accounting. Every exchange is defined once, in namespace
// wire below: the struct names its reply type, message types, fail-point
// stem and plane, and defines its own wire sizes. Keeping the endpoints
// abstract decouples client and server code and lets tests substitute
// either side.
//
// Handlers on ClientEndpoint must not call back into the server, with one
// deliberate exception: the parallel-recovery handshake of Section 3.4
// (RecoverPage may trigger an ordered fetch through the server into another
// recovering client).

#ifndef FINELOG_NET_ENDPOINTS_H_
#define FINELOG_NET_ENDPOINTS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/lock_mode.h"
#include "log/log_record.h"
#include "net/message.h"

namespace finelog {

// A page copy in flight, with the book-keeping that makes copy merging
// possible (Section 3.1): which slots the sender modified since it last
// shipped the page, and whether the structure changed (under a page X lock).
struct ShippedPage {
  PageId page = kInvalidPageId;
  std::string image;  // Raw page bytes.
  std::vector<SlotId> modified_slots;
  bool structural = false;

  size_t wire_size() const {
    return image.size() + modified_slots.size() * sizeof(SlotId) + 16;
  }
};

// Reply to an object lock request. Exactly one of `object_image` /
// `page_image` is set on success when data must be refreshed:
//  - `object_image`: the client has the page cached; it installs just this
//    object (the client-side merge of Section 2).
//  - `page_image`: the client does not have the page; the full page is sent.
// `object_present=false` with neither image set means the object was deleted.
// One exclusive-lock callback a lock request triggered: the object that
// changed hands, the client that responded, and the PSN the page had when
// that client's copy reached the server. The requester writes one callback
// log record per entry (Section 3.1).
struct XCallbackInfo {
  ClientId responder = kInvalidClientId;
  ObjectId object;
  Psn psn;
};

struct ObjectLockReply {
  bool object_present = true;
  std::optional<std::string> object_image;
  std::optional<std::string> page_image;
  Psn server_psn;  // PSN of the server's current copy.
  std::vector<XCallbackInfo> x_callbacks;
};

struct PageLockReply {
  // The server always ships its current copy on a page grant; the client
  // merges its own unshipped modifications over it.
  std::optional<std::string> page_image;
  Psn server_psn;
  std::vector<XCallbackInfo> x_callbacks;
};

struct PageFetchReply {
  std::string page_image;
  // PSN from the DCT entry for the requesting client; kNullPsn outside
  // recovery (clients ignore it during normal processing, Section 3.2).
  Psn dct_psn = kNullPsn;
};

struct AllocReply {
  PageId page = kInvalidPageId;
  std::string page_image;  // Freshly formatted page.
};

struct TokenReply {
  // Latest page image if the token moved (the update-privilege approach
  // ships the page along with the token, Section 3.1).
  std::optional<std::string> page_image;
};

// An entry of a CallBack_P list (Section 3.4): an object on page P that was
// called back from the recovering client, and the PSN the page had when the
// recovering client shipped it in response.
struct CallbackListEntry {
  ObjectId object;
  Psn psn;
};

// The server's DCT entries for one recovering client (Section 3.3).
// `authoritative` is false while the DCT is being rebuilt after a server
// crash: the recovering client must then recover every page in its DPT
// instead of only DCT-listed pages (Section 3.5).
struct DctSnapshot {
  bool authoritative = true;
  std::vector<DctEntry> entries;
};

// Snapshot a client hands the restarting server (Section 3.4).
struct ClientRecoveryState {
  std::vector<DptEntry> dpt;
  std::vector<PageId> cached_pages;
  std::vector<std::pair<ObjectId, LockMode>> object_locks;
  std::vector<std::pair<PageId, LockMode>> page_locks;
};

// Per-item outcome of an object lock request: lock grants fail individually
// (WouldBlock on a denied callback does not poison the other items).
struct ObjectLockOutcome {
  Status status;  // Default-constructed = OK; `reply` is valid only then.
  ObjectLockReply reply;
};

// The client-side endpoint (implemented by client::Client).
class ClientEndpoint {
 public:
  virtual ~ClientEndpoint() = default;

  struct CallbackReply {
    bool granted = false;
    // Page copy shipped with the response when the page carries unshipped
    // modifications ("C ... sends a copy of P to the server", Section 3.2).
    std::optional<ShippedPage> page;
    // PSN of the client's copy when it responded (recorded by the
    // requester's callback log record, Section 3.1).
    Psn psn_at_response;
    bool dropped_page = false;  // Client dropped P from its cache.
  };

  // Callback for an object lock held by this client. `requested` is the
  // mode the remote client wants: kExclusive => release, kShared =>
  // downgrade. Denied while a local transaction actively uses the object.
  virtual CallbackReply HandleObjectCallback(ObjectId oid,
                                             LockMode requested) = 0;

  struct DeescalateReply {
    bool granted = false;
    std::vector<std::pair<ObjectId, LockMode>> object_locks;
    std::optional<ShippedPage> page;
    Psn psn_at_response;
  };

  // Page-level de-escalation (Section 3.2, page-level conflict).
  virtual DeescalateReply HandleDeescalate(PageId pid) = 0;

  // Callback for a page lock held by this client (page-granularity policy).
  virtual CallbackReply HandlePageCallback(PageId pid, LockMode requested) = 0;

  // The server flushed `pid`; `flushed_psn` is the DCT PSN recorded for this
  // client at force time (Sections 3.2 and 3.6).
  virtual void HandleFlushNotify(PageId pid, Psn flushed_psn) = 0;

  // Update-token recall: ship the page back, releasing the token.
  virtual Result<ShippedPage> HandleTokenRecall(PageId pid) = 0;

  // ARIES/CSA-style synchronized server checkpoint (Section 4.1).
  virtual Status HandleCheckpointSync() = 0;

  // Server restart recovery (Section 3.4).
  virtual Result<ClientRecoveryState> HandleRecGetState() = 0;
  // `suppress` is the merged CallBack_P list for (pid, this client): slots a
  // successor demonstrably updated are excluded from the shipped overlay.
  virtual Result<ShippedPage> HandleRecFetchCachedPage(
      PageId pid, const std::vector<CallbackListEntry>& suppress) = 0;
  // Scan this client's log for callback records about objects on `pid` that
  // were called back from `crashed` (building a CallBack_P list).
  virtual Result<std::vector<CallbackListEntry>> HandleRecScanCallbacks(
      PageId pid, ClientId crashed) = 0;
  // Recover this client's updates on `pid`, applying records with PSN at
  // least `psn_limit`... up to `psn_limit` exclusive when bounded
  // (kNullPsn = unbounded). `callback_list` is the merged CallBack_P list,
  // `base` the server's copy with the DCT PSN installed.
  virtual Status HandleRecRecoverPage(
      PageId pid, const std::vector<CallbackListEntry>& callback_list,
      const std::string& base_image, Psn base_psn, Psn psn_limit) = 0;
};

// Direction of the request leg. The reply leg (if any) travels the other
// way; the peer of an exchange is always its client side.
enum class RpcDir : uint8_t {
  kClientToServer = 0,
  kServerToClient = 1,
};

// Wire definitions -----------------------------------------------------------
//
// One struct per exchange. `kSpec` names the exchange; a struct whose
// request or reply payload varies defines request_size() / reply_size(),
// and every other message is one fixed-size control message. A refusal
// (see Refusal) and any error of an exchange with `replies_on_error` is
// answered by one control message too; other errors send no reply.

// Payload bytes of a fixed-size control message.
inline constexpr uint64_t kControlMsgBytes = 32;

// One message on the wire: logical items carried and payload bytes.
struct WireSize {
  uint64_t items = 1;
  uint64_t bytes = kControlMsgBytes;
};

struct ExchangeSpec {
  const char* endpoint;  // Fail-point stem: net.<side>.<endpoint>.<op>.
  MessageType request;
  MessageType reply = MessageType::kMaxMessageType;  // None when one-way.
  RpcDir dir = RpcDir::kClientToServer;
  bool recovery_plane = false;    // Exempt from wire faults unless opted in.
  bool replies_on_error = false;  // Every error still sends the reply.
  bool request_only = false;      // Announced, never acknowledged.
};

namespace wire {

using enum MessageType;
using enum RpcDir;

inline uint64_t ShipBytes(std::span<const ShippedPage> pages) {
  uint64_t bytes = 0;
  for (const ShippedPage& p : pages) bytes += p.wire_size();
  return bytes;
}

inline WireSize ImageSize(const std::string& image) {
  return {1, image.size() + kControlMsgBytes};
}

inline WireSize CallbackListSize(const std::vector<CallbackListEntry>& list) {
  return {1, list.size() * 16 + kControlMsgBytes};
}

// Client -> server, normal processing.

// Forwarded LLM misses for object locks, up to max_batch_items per message
// (one when unbatched). Grants are attempted in item order and fail
// individually; the reply is index-aligned with `items` and charges the
// per-message overhead once. A refusal of the whole request still answers.
struct LockObject {
  // One miss. `cached_psn` carries the PSN of the client's cached copy
  // (kNullPsn if the page is not cached); the server uses it to seed the DCT
  // entry on a first X grant (Section 3.2).
  struct Item {
    ObjectId oid;
    LockMode mode = LockMode::kShared;
    Psn cached_psn = kNullPsn;
  };
  using Reply = std::vector<ObjectLockOutcome>;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "lock_object", .request = kLockRequest, .reply = kLockReply,
      .replies_on_error = true};
  std::span<const Item> items;

  bool empty() const { return items.empty(); }
  WireSize request_size() const {
    return {items.size(), items.size() * kControlMsgBytes};
  }
  // A denied item answers with a control message.
  static WireSize reply_size(const Reply& out) {
    WireSize size{out.size(), 0};
    for (const ObjectLockOutcome& o : out) {
      size.bytes += kControlMsgBytes;
      if (!o.status.ok()) continue;
      if (o.reply.object_image) size.bytes += o.reply.object_image->size();
      if (o.reply.page_image) size.bytes += o.reply.page_image->size();
    }
    return size;
  }
};

// Forwarded page lock request (non-mergeable updates, escalation, and the
// page-level-locking baseline). A denial still answers.
struct LockPage {
  using Reply = PageLockReply;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "lock_page", .request = kLockRequest, .reply = kLockReply,
      .replies_on_error = true};
  PageId pid;
  LockMode mode = LockMode::kShared;
  Psn cached_psn = kNullPsn;

  static WireSize reply_size(const Reply& r) {
    return {1, kControlMsgBytes + (r.page_image ? r.page_image->size() : 0)};
  }
};

// Cache-miss fetches of pages the client already holds locks on, up to
// max_batch_items per message; all-or-nothing (a fetch only fails on real
// I/O or topology errors, never on contention). The reply is index-aligned
// with `pids`.
struct FetchPage {
  using Reply = std::vector<PageFetchReply>;
  static constexpr ExchangeSpec kSpec{"fetch_page", kPageFetch, kPageReply};
  std::span<const PageId> pids;

  bool empty() const { return pids.empty(); }
  WireSize request_size() const {
    return {pids.size(), pids.size() * kControlMsgBytes};
  }
  static WireSize reply_size(const Reply& out) {
    WireSize size{out.size(), 0};
    for (const PageFetchReply& r : out) {
      size.bytes += ImageSize(r.page_image).bytes;
    }
    return size;
  }
};

// Dirty pages replaced from the client's cache (Section 2), up to
// max_batch_items in one ship message and one ack. The server merges the
// updates into its copies.
struct ShipPage {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{"ship_page", kPageShip, kPageShipAck};
  std::span<const ShippedPage> pages;

  bool empty() const { return pages.empty(); }
  WireSize request_size() const { return {pages.size(), ShipBytes(pages)}; }
  WireSize reply_size() const { return {pages.size(), kControlMsgBytes}; }
};

// Allocates a new page; the caller is granted a page-level X lock on it.
struct AllocatePage {
  using Reply = AllocReply;
  static constexpr ExchangeSpec kSpec{"alloc_page", kAllocRequest, kAllocReply};

  static WireSize reply_size(const Reply& r) { return ImageSize(r.page_image); }
};

// Log space management (Section 3.6): force `pid` to disk.
struct ForcePage {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{
      "force_page", kForcePageRequest, kForcePageReply};
  PageId pid;
};

// Orderly lock release (e.g. a client preparing to disconnect, which the
// paper's introduction calls out as handled "in an orderly fashion"): drops
// the listed cached locks from the GLM.
struct ReleaseLocks {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{
      "release_locks", kLockRequest, kLockReply};
  std::span<const ObjectId> objects;
  std::span<const PageId> pages;

  WireSize request_size() const {
    return {1, objects.size() * 8 + pages.size() * 4 + kControlMsgBytes};
  }
};

// Baseline commit traffic (Section 4.1 comparisons).
struct CommitShipLogs {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{
      "commit_ship_logs", kCommitShipLogs, kCommitAck};
  uint64_t log_bytes = 0;

  WireSize request_size() const { return {1, log_bytes}; }
};

struct CommitShipPages {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{
      "commit_ship_pages", kCommitShipPages, kCommitAck};
  std::span<const ShippedPage> pages;

  WireSize request_size() const { return {1, ShipBytes(pages)}; }
};

// Update-token baseline (Section 3.1). Refusals (holder unreachable or the
// recall failed) answer.
struct AcquireToken {
  using Reply = TokenReply;
  static constexpr ExchangeSpec kSpec{
      "acquire_token", kTokenRequest, kTokenReply};
  PageId pid;

  static WireSize reply_size(const Reply& r) {
    return {1, kControlMsgBytes + (r.page_image ? r.page_image->size() : 0)};
  }
};

// Liveness lease renewal (DESIGN.md section 14).
struct Heartbeat {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{"heartbeat", kHeartbeat, kHeartbeatAck};
};

// Client -> server, recovery protocol.

// Crashed-client restart (Section 3.3).
struct RecGetMyDct {
  using Reply = DctSnapshot;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_get_dct", .request = kRecGetDct, .reply = kRecDctReply,
      .recovery_plane = true};

  static WireSize reply_size(const Reply& r) {
    return {1, r.entries.size() * 24 + kControlMsgBytes};
  }
};

struct RecGetMyXLocks {
  using Reply = ClientRecoveryState;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_get_xlocks", .request = kRecXLocksFetch,
      .reply = kRecXLocksReply, .recovery_plane = true};

  static WireSize reply_size(const Reply& r) {
    return {1, r.object_locks.size() * 8 + r.page_locks.size() * 8 +
                   kControlMsgBytes};
  }
};

struct RecFetchPage {
  using Reply = PageFetchReply;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_fetch_page", .request = kRecPageFetch,
      .reply = kRecPageReply, .recovery_plane = true};
  PageId pid;

  static WireSize reply_size(const Reply& r) { return ImageSize(r.page_image); }
};

// Client finished restart; the server resumes normal service for it.
struct RecComplete {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_complete", .request = kRecComplete,
      .recovery_plane = true, .request_only = true};
};

// Complex crash: the GLM was lost with the server, so a restarting client
// registers the exclusive locks it re-derived from its own log. Claims that
// conflict with locks operational clients already re-registered are
// rejected (they prove the crashed client's lock was called back before the
// failure); the reply carries the accepted subset in one control message.
struct RecInstallLocks {
  using Reply = ClientRecoveryState;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_install_locks", .request = kRecXLocksFetch,
      .reply = kRecXLocksReply, .recovery_plane = true};
  std::span<const ObjectId> objects;
  std::span<const PageId> pages;

  WireSize request_size() const {
    return {1, objects.size() * 8 + pages.size() * 8 + kControlMsgBytes};
  }
};

// Complex crash: merged CallBack_P list for (pid, client), collected from
// the other clients' logs (Section 3.4). The restarting client uses it to
// skip records for objects whose exclusive lock it had relinquished before
// the crash.
struct RecGetCallbackList {
  using Reply = std::vector<CallbackListEntry>;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_get_callback_list", .request = kRecScanCallbacks,
      .reply = kRecCallbacksReply, .recovery_plane = true};
  PageId pid;

  static WireSize reply_size(const Reply& r) { return CallbackListSize(r); }
};

// Parallel-recovery handshake (Section 3.4, step 3 of the client page
// recovery procedure): give me `pid` once it reflects `other`'s updates up
// to `psn`. A refusal on a crashed dependency answers.
struct RecOrderedFetch {
  using Reply = PageFetchReply;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_ordered_fetch", .request = kRecOrderedFetch,
      .reply = kRecOrderedFetchReply, .recovery_plane = true};
  PageId pid;
  ClientId other;
  Psn psn;

  static WireSize reply_size(const Reply& r) { return ImageSize(r.page_image); }
};

// Client-driven failover (DESIGN.md section 19): confirm or assume
// mastership. Served by FailoverNode::FailoverProbe, not the router.
struct FailoverProbe {
  using Reply = uint64_t;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "failover_probe", .request = kFailoverProbe,
      .reply = kFailoverProbeReply, .replies_on_error = true};
};

// Server -> client. The handler's arguments travel in the client endpoint
// call; these structs carry only what sizes the messages.

// Answers to one batch of callback actions against one client: the first
// denial ends the batch, but the answers so far still travel.
struct CallbackReplies {
  Status status;
  uint64_t items = 0;
  uint64_t bytes = 0;

  // One client answer: the page copy that rode along, or a control message.
  void Add(const std::optional<ShippedPage>& page) {
    ++items;
    bytes += page ? page->wire_size() : kControlMsgBytes;
  }
};

// Consecutive callback actions against one target (Section 3.1), up to
// max_batch_items per message.
struct Callbacks {
  using Reply = CallbackReplies;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "callback", .request = kCallbackRequest,
      .reply = kCallbackReply, .dir = kServerToClient};
  uint64_t count = 1;

  WireSize request_size() const { return {count, count * kControlMsgBytes}; }
  static WireSize reply_size(const Reply& r) { return {r.items, r.bytes}; }
};

// One-way: the server flushed a page (Sections 3.2 and 3.6).
struct FlushNotify {
  static constexpr ExchangeSpec kSpec{
      .endpoint = "flush_notify", .request = kFlushNotify,
      .dir = kServerToClient};
};

// Update-token recall: the holder ships the page back.
struct TokenRecall {
  using Reply = ShippedPage;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "token_recall", .request = kTokenRecall,
      .reply = kTokenRecallReply, .dir = kServerToClient};

  static WireSize reply_size(const Reply& r) { return {1, r.wire_size()}; }
};

// ARIES/CSA-style synchronized checkpoint round trip (Section 4.1).
struct CheckpointSync {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "checkpoint_sync", .request = kCheckpointSync,
      .reply = kCheckpointSyncReply, .dir = kServerToClient};
};

// Server restart (Section 3.4): collect a client's DPT, cached pages and
// LLM snapshot. Page locks are not charged.
struct RecGetState {
  using Reply = ClientRecoveryState;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_get_state", .request = kRecGetDpt, .reply = kRecDptReply,
      .dir = kServerToClient, .recovery_plane = true};

  static WireSize reply_size(const Reply& r) {
    return {1, r.dpt.size() * 12 + r.cached_pages.size() * 4 +
                   r.object_locks.size() * 8 + kControlMsgBytes};
  }
};

// Server restart: scan one client's log for a CallBack_P list.
struct RecScanCallbacks {
  using Reply = std::vector<CallbackListEntry>;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_scan_callbacks", .request = kRecScanCallbacks,
      .reply = kRecCallbacksReply, .dir = kServerToClient,
      .recovery_plane = true};

  static WireSize reply_size(const Reply& r) { return CallbackListSize(r); }
};

// Server restart: pull a dirty page a client still caches.
struct RecFetchCachedPage {
  using Reply = ShippedPage;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_fetch_cached_page", .request = kRecFetchCachedPage,
      .reply = kRecCachedPageReply, .dir = kServerToClient,
      .recovery_plane = true};

  static WireSize reply_size(const Reply& r) { return {1, r.wire_size()}; }
};

// Coordinated page recovery: the client replays its log onto the shipped
// base image. The completion reply answers even a failed replay.
struct RecRecoverPage {
  using Reply = void;
  static constexpr ExchangeSpec kSpec{
      .endpoint = "rec_recover_page", .request = kRecRecoverPage,
      .reply = kRecRecoverPageReply, .dir = kServerToClient,
      .recovery_plane = true, .replies_on_error = true};
  const std::string& base_image;

  WireSize request_size() const {
    return {1, base_image.size() + kControlMsgBytes};
  }
};

// Primary -> standby, one-way: replicated membership record and checkpoint
// marker (DESIGN.md section 19).
struct StandbyMembership {
  static constexpr ExchangeSpec kSpec{"standby_membership", kStandbyMembership};
};

struct StandbyCheckpoint {
  static constexpr ExchangeSpec kSpec{"standby_checkpoint", kStandbyCheckpoint};
};

}  // namespace wire

template <typename Req>
WireSize RequestSize(const Req& req) {
  if constexpr (requires { req.request_size(); }) {
    return req.request_size();
  } else {
    return {};
  }
}

// What an exchange returns: Status when its reply carries no payload,
// Result<Reply> otherwise.
template <typename Req>
using ReplyOf = std::conditional_t<std::is_void_v<typename Req::Reply>, Status,
                                   Result<typename Req::Reply>>;

inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

template <typename Req>
WireSize ReplySize(const Req& req, const ReplyOf<Req>& reply) {
  if constexpr (requires { req.reply_size(reply.value()); }) {
    return req.reply_size(reply.value());
  } else if constexpr (requires { req.reply_size(); }) {
    return req.reply_size();
  } else {
    return {};
  }
}

// A refusal the protocol answers: the exchange fails with `status`, but one
// control message still travels back.
struct Refusal {
  Status status;
};

// What a handler returns for one exchange: its result, and whether a reply
// message answers it (see the wire definitions above).
template <typename Req>
class Answer {
 public:
  template <typename T>
    requires std::is_constructible_v<ReplyOf<Req>, T&&>
  Answer(T&& value) : value_(std::forward<T>(value)) {}  // NOLINT
  Answer(Refusal refusal)                                 // NOLINT
      : value_(std::move(refusal.status)), refused_(true) {}

  bool ok() const { return StatusOf(value_).ok(); }
  bool answered() const {
    return !Req::kSpec.request_only &&
           (ok() || refused_ || Req::kSpec.replies_on_error);
  }
  ReplyOf<Req>& value() { return value_; }

 private:
  ReplyOf<Req> value_;
  bool refused_ = false;
};

// One client -> server request in flight: the request by reference, and the
// slot the serving side moves its result into.
template <typename Req>
struct ServerCall {
  const Req& request;
  std::optional<ReplyOf<Req>> result;
};

using AnyServerCall = std::variant<
    ServerCall<wire::LockObject>*, ServerCall<wire::LockPage>*,
    ServerCall<wire::FetchPage>*, ServerCall<wire::ShipPage>*,
    ServerCall<wire::AllocatePage>*, ServerCall<wire::ForcePage>*,
    ServerCall<wire::ReleaseLocks>*, ServerCall<wire::CommitShipLogs>*,
    ServerCall<wire::CommitShipPages>*, ServerCall<wire::AcquireToken>*,
    ServerCall<wire::Heartbeat>*, ServerCall<wire::RecGetMyDct>*,
    ServerCall<wire::RecGetMyXLocks>*, ServerCall<wire::RecFetchPage>*,
    ServerCall<wire::RecComplete>*, ServerCall<wire::RecInstallLocks>*,
    ServerCall<wire::RecGetCallbackList>*, ServerCall<wire::RecOrderedFetch>*>;

// The server-side endpoint (implemented by server::Server, and fronted by
// net::ServerRouter with a hot standby).
class ServerEndpoint {
 public:
  virtual ~ServerEndpoint() = default;

  // Issues one request, e.g. Call(client, wire::ForcePage{pid}).
  template <typename Req>
  ReplyOf<Req> Call(ClientId client, const Req& request) {
    ServerCall<Req> call{request, std::nullopt};
    Serve(client, &call);
    return std::move(*call.result);
  }

  // The one entry point: serves `call` for `client` and stores its result.
  virtual void Serve(ClientId client, AnyServerCall call) = 0;
};

}  // namespace finelog

#endif  // FINELOG_NET_ENDPOINTS_H_
