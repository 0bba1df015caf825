// Seeded-bad fixture for the finelog-check `mastership-fence` rule: for
// every non-Rec server request, the prologue (Server::Dispatch) must reach
// MastershipAdmission() (the hot-standby epoch fence, DESIGN.md section 19)
// before LivenessAdmission(). A deposed primary that consulted per-client
// liveness first could keep granting locks after the standby fenced its
// epoch -- split-brain.
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program:
// it carries its own miniature request list, prologue and handler so it
// cannot collide with the real tree's classes.
#include "common/annotations.h"

namespace finelog {

namespace wire {
struct LockObject {
  static constexpr ExchangeSpec kSpec{.endpoint = "lock_object"};
  ObjectId oid;
};
}  // namespace wire

using AnyServerCall = std::variant<ServerCall<wire::LockObject>*>;

class Server {
 private:
  template <typename Req>
  ReplyOf<Req> Dispatch(ClientId client, const Req& request);
  Answer<wire::LockObject> Handle(ClientId client,
                                  const wire::LockObject& req);
  Status MastershipAdmission();
  Status LivenessAdmission(ClientId client);
  GlobalLockManager glm_;
};

// BAD: the liveness fence runs before the mastership fence. On a node the
// standby has already deposed, the per-client lease check still passes (the
// stale table says the client is alive), so the handler would grant the
// lock under an epoch that is no longer serving.
template <typename Req>
ReplyOf<Req> Server::Dispatch(ClientId client, const Req& request) {
  return rpc_->Exchange(client, request, [&]() -> Answer<Req> {
    FINELOG_RETURN_IF_ERROR(LivenessAdmission(client));
    FINELOG_RETURN_IF_ERROR(MastershipAdmission());
    return Handle(client, request);
  });
}

Answer<wire::LockObject> Server::Handle(ClientId client,
                                        const wire::LockObject& req) {
  return glm_.Acquire(client, req.oid);
}

}  // namespace finelog
