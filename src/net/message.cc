#include "net/message.h"

namespace finelog {

const char* MessageTypeName(MessageType t) {
  switch (t) {
    case MessageType::kLockRequest: return "LockRequest";
    case MessageType::kLockReply: return "LockReply";
    case MessageType::kPageFetch: return "PageFetch";
    case MessageType::kPageReply: return "PageReply";
    case MessageType::kPageShip: return "PageShip";
    case MessageType::kPageShipAck: return "PageShipAck";
    case MessageType::kAllocRequest: return "AllocRequest";
    case MessageType::kAllocReply: return "AllocReply";
    case MessageType::kForcePageRequest: return "ForcePageRequest";
    case MessageType::kForcePageReply: return "ForcePageReply";
    case MessageType::kCallbackRequest: return "CallbackRequest";
    case MessageType::kCallbackReply: return "CallbackReply";
    case MessageType::kFlushNotify: return "FlushNotify";
    case MessageType::kCommitShipLogs: return "CommitShipLogs";
    case MessageType::kCommitShipPages: return "CommitShipPages";
    case MessageType::kCommitAck: return "CommitAck";
    case MessageType::kTokenRequest: return "TokenRequest";
    case MessageType::kTokenReply: return "TokenReply";
    case MessageType::kTokenRecall: return "TokenRecall";
    case MessageType::kTokenRecallReply: return "TokenRecallReply";
    case MessageType::kCheckpointSync: return "CheckpointSync";
    case MessageType::kCheckpointSyncReply: return "CheckpointSyncReply";
    case MessageType::kRecGetDct: return "RecGetDct";
    case MessageType::kRecDctReply: return "RecDctReply";
    case MessageType::kRecComplete: return "RecComplete";
    case MessageType::kRecPageFetch: return "RecPageFetch";
    case MessageType::kRecPageReply: return "RecPageReply";
    case MessageType::kRecXLocksFetch: return "RecXLocksFetch";
    case MessageType::kRecXLocksReply: return "RecXLocksReply";
    case MessageType::kRecGetDpt: return "RecGetDpt";
    case MessageType::kRecDptReply: return "RecDptReply";
    case MessageType::kRecFetchCachedPage: return "RecFetchCachedPage";
    case MessageType::kRecCachedPageReply: return "RecCachedPageReply";
    case MessageType::kRecScanCallbacks: return "RecScanCallbacks";
    case MessageType::kRecCallbacksReply: return "RecCallbacksReply";
    case MessageType::kRecRecoverPage: return "RecRecoverPage";
    case MessageType::kRecRecoverPageReply: return "RecRecoverPageReply";
    case MessageType::kRecOrderedFetch: return "RecOrderedFetch";
    case MessageType::kRecOrderedFetchReply: return "RecOrderedFetchReply";
    case MessageType::kHeartbeat: return "Heartbeat";
    case MessageType::kHeartbeatAck: return "HeartbeatAck";
    case MessageType::kFailoverProbe: return "FailoverProbe";
    case MessageType::kFailoverProbeReply: return "FailoverProbeReply";
    case MessageType::kStandbyMembership: return "StandbyMembership";
    case MessageType::kStandbyCheckpoint: return "StandbyCheckpoint";
    case MessageType::kMaxMessageType: break;
  }
  return "Unknown";
}

}  // namespace finelog
