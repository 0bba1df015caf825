// Seeded-bad fixture for the finelog-check `prologue-only` rule: request
// handlers run only behind the prologue (Server::Dispatch), which does the
// crash check, the exchange accounting and the mastership and liveness
// fences. A handler reached from anywhere else skips all of them.
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program:
// it carries its own miniature request list, prologue and handler so it
// cannot collide with the real tree's classes.
#include "common/annotations.h"

namespace finelog {

namespace wire {
struct ForcePage {
  static constexpr ExchangeSpec kSpec{.endpoint = "force_page"};
  PageId pid;
};
}  // namespace wire

using AnyServerCall = std::variant<ServerCall<wire::ForcePage>*>;

class Server {
 public:
  Status ForceEverything(ClientId client);

 private:
  template <typename Req>
  ReplyOf<Req> Dispatch(ClientId client, const Req& request);
  Answer<wire::ForcePage> Handle(ClientId client, const wire::ForcePage& req);
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

// BAD: a convenience entry point calls the handler directly. A deposed
// primary or a presumed-dead client gets its forces served with no fence,
// and the exchange is never counted on the channel.
Status Server::ForceEverything(ClientId client) {
  for (PageId pid : pool_.PageIds()) {
    FINELOG_RETURN_IF_ERROR(Handle(client, wire::ForcePage{pid}).value());
  }
  return Status::OK();
}

}  // namespace finelog
