// Seeded-bad fixture for the rpc-chokepoint rule: CallOptions and RpcReply
// are Rpc internals named only under src/net/. An endpoint body that builds
// its own options or records its own reply is hand-computing message sizes
// that belong with the request structs in net/endpoints.h.
#include "net/rpc.h"

namespace finelog {

Status BadHandCountedShip(Rpc* rpc, ClientId client, const ShippedPage& page) {
  CallOptions opts;
  opts.endpoint = "ship_page";
  opts.peer = client;
  opts.req_type = MessageType::kPageShip;
  opts.req_bytes = page.image.size() + 16;
  return rpc->Call(opts, [&](RpcReply* reply) -> Status {
    reply->Set(MessageType::kPageShipAck, 32);
    return Status::OK();
  });
}

}  // namespace finelog
