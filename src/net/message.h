// Message vocabulary of the client/server protocol.
//
// finelog simulates the network: requests are executed as direct calls, but
// every interaction is routed through net::Channel, which records one message
// per logical network hop (with its payload size) and charges the simulated
// clock. The message-type taxonomy below is what the benchmark tables report.

#ifndef FINELOG_NET_MESSAGE_H_
#define FINELOG_NET_MESSAGE_H_

#include <cstdint>

namespace finelog {

enum class MessageType : uint8_t {
  // Normal processing, client -> server.
  kLockRequest = 0,       // Object or page lock request (LLM miss).
  kLockReply,             // Server's reply (may carry a page).
  kPageFetch,             // Page fetch for a cache miss.
  kPageReply,             // Page shipped server -> client.
  kPageShip,              // Dirty page replaced from a client cache.
  kPageShipAck,
  kAllocRequest,          // New page allocation.
  kAllocReply,
  kForcePageRequest,      // Log space management: force page to disk (3.6).
  kForcePageReply,
  // Normal processing, server -> client.
  kCallbackRequest,       // Callback / downgrade / de-escalation request.
  kCallbackReply,         // May carry the page copy.
  kFlushNotify,           // Page flushed to disk notification (3.2, 3.6).
  // Commit-time traffic for the baseline logging policies (4.1).
  kCommitShipLogs,        // ARIES/CSA: transaction log records at commit.
  kCommitShipPages,       // Versant-style: modified pages at commit.
  kCommitAck,
  // Update-token traffic for the update-privilege baseline (3.1).
  kTokenRequest,
  kTokenReply,
  kTokenRecall,
  kTokenRecallReply,
  // Checkpoint synchronization for the ARIES/CSA baseline (4.1).
  kCheckpointSync,
  kCheckpointSyncReply,
  // Recovery protocol.
  kRecGetDct,             // Crashed client asks for its DCT entries.
  kRecDctReply,
  kRecComplete,           // Crashed client finished restart (request-only).
  kRecPageFetch,          // Recovery page fetch (server installs DCT PSN).
  kRecPageReply,
  kRecXLocksFetch,        // Crashed client re-installs its X locks (3.3).
  kRecXLocksReply,
  kRecGetDpt,             // Server restart: collect DPTs/LLM/cache info (3.4).
  kRecDptReply,
  kRecFetchCachedPage,    // Server restart: pull cached page from a client.
  kRecCachedPageReply,
  kRecScanCallbacks,      // Server restart: collect CallBack_P lists.
  kRecCallbacksReply,
  kRecRecoverPage,        // Server asks client to recover a page.
  kRecRecoverPageReply,
  kRecOrderedFetch,       // Parallel-recovery handshake (3.4 step 3).
  kRecOrderedFetchReply,
  // Liveness protocol (DESIGN.md section 14).
  kHeartbeat,             // Client -> server lease renewal.
  kHeartbeatAck,
  // Hot standby / mastership (DESIGN.md section 19).
  kFailoverProbe,         // Client -> standby: is the primary gone? Take over.
  kFailoverProbeReply,
  kStandbyMembership,     // Primary -> standby: replicated membership record.
  kStandbyCheckpoint,     // Primary -> standby: replicated checkpoint marker.
  kMaxMessageType,
};

const char* MessageTypeName(MessageType t);

}  // namespace finelog

#endif  // FINELOG_NET_MESSAGE_H_
