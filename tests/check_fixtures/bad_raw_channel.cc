// Seeded-bad fixture for the finelog-check `rpc-chokepoint` rule (direct
// channel counts): message accounting goes through Rpc::Call / Rpc::Send;
// direct Channel::Count / CountBatch calls outside src/net/ bypass wire
// faults, retries, dedup and session fencing.
//
// Parsed (not compiled) by the checker self-test as if in src/common/.
#include "net/channel.h"

namespace finelog {

// BAD: both calls below reach the channel without going through Rpc.
void BadDirectCount(Channel* channel) {
  channel->Count(MessageType::kLockRequest, 32);
  channel->CountBatch(MessageType::kLockReply, 4, 128);
}

}  // namespace finelog
