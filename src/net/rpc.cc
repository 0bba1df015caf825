#include "net/rpc.h"

#include <algorithm>

namespace finelog {

void Rpc::BumpEpoch(ClientId client) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& sessions : sessions_) {
    Session& s = sessions[client];
    s.epoch += 1;
    s.dedup.clear();
  }
  metrics_->Add(Counter::kNetEpochBumps);
}

uint64_t Rpc::session_epoch(RpcDir dir, ClientId peer) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto& sessions = sessions_[static_cast<size_t>(dir)];
  auto it = sessions.find(peer);
  return it == sessions.end() ? 0 : it->second.epoch;
}

void Rpc::PumpGhosts() {
  // Delivering a ghost counts a message, which can make further ghosts due;
  // the queue only ever shrinks here because ghost delivery is terminal.
  bool delivered = true;
  while (delivered) {
    delivered = false;
    for (auto it = ghosts_.begin(); it != ghosts_.end(); ++it) {
      if (it->due > channel_->total_messages()) continue;
      Ghost g = *it;
      ghosts_.erase(it);
      channel_->CountBatch(g.type, g.items, g.bytes);
      const Session& s = SessionFor(g.dir, g.peer);
      if (g.epoch < s.epoch) {
        // The peer restarted since this copy was sent: epoch fence.
        metrics_->Add(Counter::kNetStaleEpochFenced);
      } else {
        // Same epoch, but its sequence number has long been executed (the
        // live delivery preceded it): absorbed as a stale duplicate.
        metrics_->Add(Counter::kNetDedupHits);
      }
      delivered = true;
      break;
    }
  }
}

void Rpc::Backoff(uint32_t attempt) {
  const NetFaultConfig& cfg = delivery_.config();
  uint64_t delay = cfg.backoff_base_us << (attempt - 1);
  delay = std::min(delay, cfg.backoff_cap_us);
  delay += delivery_.rng().Uniform(delay / 2 + 1);  // Seeded jitter.
  metrics_->Add(Counter::kNetRpcBackoffUs, delay);
  channel_->clock()->Advance(delay);
}

void Rpc::CacheReply(Session* session, uint64_t epoch, uint64_t seq,
                     const RpcReply& reply) {
  session->dedup.push_back(
      {epoch, seq, reply.type(), reply.items(), reply.bytes()});
  while (session->dedup.size() > delivery_.config().dedup_cache_size) {
    session->dedup.pop_front();
  }
}

bool Rpc::ResendCachedReply(const Session& session, const CallOptions& opts,
                            uint64_t epoch, uint64_t seq) {
  for (const CachedReply& c : session.dedup) {
    if (c.seq == seq && c.epoch == epoch) {
      return SendReplyMeta(opts, epoch, seq, c.type, c.items, c.bytes);
    }
  }
  return false;  // Evicted: the retry loop keeps going.
}

bool Rpc::SendReplyMeta(const CallOptions& opts, uint64_t epoch, uint64_t seq,
                        MessageType type, uint64_t items, uint64_t bytes) {
  NetVerdict v = delivery_.Classify(LegPrefix(opts, false), bytes, opts.peer,
                                    opts.recovery_plane);
  channel_->CountBatch(type, items, bytes);
  if (v.delay_us > 0) channel_->clock()->Advance(v.delay_us);
  if (v.dup) {
    // The duplicate reply arrives too; the caller discards it.
    channel_->CountBatch(type, items, bytes);
  }
  if (v.reorder) {
    EnqueueGhost(opts.dir, opts.peer, epoch, seq, type, items, bytes);
  }
  return !v.drop;
}

void Rpc::EnqueueGhost(RpcDir dir, ClientId peer, uint64_t epoch, uint64_t seq,
                       MessageType type, uint64_t items, uint64_t bytes) {
  const uint64_t due = channel_->total_messages() + 1 +
                       delivery_.rng().Uniform(
                           std::max<uint32_t>(1, faults().reorder_window));
  ghosts_.push_back({dir, peer, epoch, seq, type, items, bytes, due});
}

}  // namespace finelog
