// Seeded-bad fixture for the finelog-check `prologue-only` rule: one request
// handler serving its items through another request's handler. Each request
// is one exchange, served whole inside its own handler; a handler reached
// from another handler runs outside its own exchange, so its request is
// never counted on the channel and its reply never sized.
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program:
// it carries its own miniature request list, prologue and handlers so it
// cannot collide with the real tree's classes.
#include "common/annotations.h"

namespace finelog {

namespace wire {
struct ForcePage {
  static constexpr ExchangeSpec kSpec{.endpoint = "force_page"};
  PageId pid;
};

struct ForcePages {
  static constexpr ExchangeSpec kSpec{.endpoint = "force_page"};
  std::span<const PageId> pids;
};
}  // namespace wire

using AnyServerCall = std::variant<ServerCall<wire::ForcePage>*,
                                   ServerCall<wire::ForcePages>*>;

class Server {
 private:
  template <typename Req>
  ReplyOf<Req> Dispatch(ClientId client, const Req& request);
  Answer<wire::ForcePage> Handle(ClientId client, const wire::ForcePage& req);
  Answer<wire::ForcePages> Handle(ClientId client,
                                  const wire::ForcePages& req);
  Status MastershipAdmission();
  Status LivenessAdmission(ClientId client);
  Status EnsurePageRecovered(PageId pid);
  BufferPool pool_;
};

template <typename Req>
ReplyOf<Req> Server::Dispatch(ClientId client, const Req& request) {
  return rpc_->Exchange(client, request, [&]() -> Answer<Req> {
    FINELOG_RETURN_IF_ERROR(MastershipAdmission());
    FINELOG_RETURN_IF_ERROR(LivenessAdmission(client));
    return Handle(client, request);
  });
}

Answer<wire::ForcePage> Server::Handle(ClientId client,
                                       const wire::ForcePage& req) {
  FINELOG_RETURN_IF_ERROR(EnsurePageRecovered(req.pid));
  return WriteFrame(pool_.Get(req.pid));
}

// BAD: the batch serves each item through the one-item handler instead of
// serving the items itself.
Answer<wire::ForcePages> Server::Handle(ClientId client,
                                        const wire::ForcePages& req) {
  for (PageId pid : req.pids) {
    FINELOG_RETURN_IF_ERROR(Handle(client, wire::ForcePage{pid}).value());
  }
  return Status::OK();
}

}  // namespace finelog
