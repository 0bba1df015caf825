// Seeded-bad fixture for the finelog-check `admission-before-state` rule:
// for every non-Rec server request, the prologue (Server::Dispatch) plus
// the request's handler must reach LivenessAdmission() before touching
// protected server state, or a presumed-dead zombie could mutate lock/DCT/
// log state it no longer owns.
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program:
// it carries its own miniature request list, prologue and handler so it
// cannot collide with the real tree's classes.
#include "common/annotations.h"

namespace finelog {

namespace wire {
struct ShipPage {
  static constexpr ExchangeSpec kSpec{.endpoint = "ship_page"};
  const ShippedPage& page;
};
}  // namespace wire

using AnyServerCall = std::variant<ServerCall<wire::ShipPage>*>;

class Server {
 private:
  template <typename Req>
  ReplyOf<Req> Dispatch(ClientId client, const Req& request);
  Answer<wire::ShipPage> Handle(ClientId client, const wire::ShipPage& req);
  Status MastershipAdmission();
  GlobalLockManager glm_;
};

// BAD: the prologue fences mastership but never runs the zombie fence, and
// the handler releases locks in the GLM. A client the server has already
// presumed dead (and whose locks it may have given away) would still get
// its release applied.
template <typename Req>
ReplyOf<Req> Server::Dispatch(ClientId client, const Req& request) {
  return rpc_->Exchange(client, request, [&]() -> Answer<Req> {
    FINELOG_RETURN_IF_ERROR(MastershipAdmission());
    return Handle(client, request);
  });
}

Answer<wire::ShipPage> Server::Handle(ClientId client,
                                      const wire::ShipPage& req) {
  glm_.ReleaseSharedLocksOf(client);
  return ApplyShippedPage(client, req.page);
}

}  // namespace finelog
