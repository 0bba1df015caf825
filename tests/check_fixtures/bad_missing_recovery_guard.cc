// Seeded-bad fixture for the finelog-check `recovery-guard` rule: any
// non-Rec server request whose prologue plus handler reaches the buffer
// pool must call EnsurePageRecovered() first (and only after
// LivenessAdmission()), or a request admitted right after an instant
// restart could be served from a page whose lazy repair has not run yet
// (DESIGN.md section 18).
//
// Parsed (not compiled) by the checker self-test as an isolated mini-program:
// it carries its own miniature request list, prologue and handler so it
// cannot collide with the real tree's classes.
#include "common/annotations.h"

namespace finelog {

namespace wire {
struct FetchPage {
  static constexpr ExchangeSpec kSpec{.endpoint = "fetch_page"};
  PageId pid;
};
}  // namespace wire

using AnyServerCall = std::variant<ServerCall<wire::FetchPage>*>;

class Server {
 private:
  template <typename Req>
  ReplyOf<Req> Dispatch(ClientId client, const Req& request);
  Answer<wire::FetchPage> Handle(ClientId client, const wire::FetchPage& req);
  Status MastershipAdmission();
  Status LivenessAdmission(ClientId client);
  Status EnsurePageRecovered(PageId pid);
  Status ReadFrame(PageId pid);
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

// BAD: the prologue admits the request, but the handler pulls the page out
// of the pool (via the ReadFrame helper -- the rule expands helpers
// interprocedurally) without the per-page recovery guard. After an instant
// restart this hands out a stale pre-crash image while the page still owes
// CallBack_P collection and log replay.
Answer<wire::FetchPage> Server::Handle(ClientId client,
                                       const wire::FetchPage& req) {
  return ReadFrame(req.pid);
}

Status Server::ReadFrame(PageId pid) {
  BufferPool::Frame* frame = pool_.Get(pid);
  return SendFrame(frame);
}

}  // namespace finelog
