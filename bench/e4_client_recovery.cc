// E4 -- Client crash recovery cost (Section 3.3, advantages 2 and 5).
//
// Claims: client restart is handled exclusively by the client from its own
// private log (no log merging, no other client involved), and only pages
// with a DCT entry need recovery -- pages whose updates reached the disk
// (and whose exclusive locks were relinquished) are skipped entirely.
//
// The client commits one update on each of D pages. For F of them, the
// "flushed" subset, another client then reads the object (downgrading the
// writer's lock) and the server forces the page -- dropping the DCT entry.
// The remaining D - F pages stay dirty only in the crashed client's cache
// and log. Restart must fetch and redo exactly those D - F pages.

#include <cstdio>

#include "bench/bench_util.h"

using namespace finelog;
using namespace finelog::bench;

namespace {

void RunOne(uint32_t dirty_pages, uint32_t flushed_pages) {
  SystemConfig config = BenchConfig("e4");
  config.num_clients = 2;
  config.num_pages = 128;
  config.preloaded_pages = 96;
  config.client_cache_pages = dirty_pages + 8;
  config.server_cache_pages = dirty_pages + 16;
  auto system = MustCreate(config);
  Client& c0 = system->client(0);
  Client& c1 = system->client(1);

  // Phase 1: the to-be-flushed subset. Commit, ship, downgrade (via a read
  // from client 1) and force -- the server then drops the DCT entries.
  for (uint32_t i = 0; i < flushed_pages; ++i) {
    PageId p(i);
    TxnId txn = c0.Begin().value();
    (void)c0.Write(txn, ObjectId{p, 0}, std::string(config.object_size, 'f'));
    (void)c0.Commit(txn);
  }
  (void)c0.ShipAllDirtyPages();
  for (uint32_t i = 0; i < flushed_pages; ++i) {
    PageId p(i);
    TxnId txn = c1.Begin().value();
    (void)c1.Read(txn, ObjectId{p, 0});
    (void)c1.Commit(txn);
    (void)system->server().Call(ClientId(0), wire::ForcePage{p});
  }

  // Phase 2: pages that are dirty only at the client when it crashes.
  for (uint32_t i = flushed_pages; i < dirty_pages; ++i) {
    PageId p(i);
    TxnId txn = c0.Begin().value();
    (void)c0.Write(txn, ObjectId{p, 0}, std::string(config.object_size, 'd'));
    (void)c0.Commit(txn);
  }

  (void)system->CrashClient(0);
  uint64_t msgs0 = system->channel().total_messages();
  uint64_t time0 = system->clock().now_us();
  uint64_t fetches0 = system->metrics().Get("client.recovery_page_fetches");
  uint64_t redo0 = system->metrics().Get("client.redos");
  Status st = system->RecoverClient(0);
  if (!st.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", st.ToString().c_str());
    return;
  }
  std::printf(
      "%6u %8u %14llu %7llu %10llu %12llu\n", dirty_pages, flushed_pages,
      (unsigned long long)(system->metrics().Get("client.recovery_page_fetches") -
                           fetches0),
      (unsigned long long)(system->metrics().Get("client.redos") - redo0),
      (unsigned long long)(system->channel().total_messages() - msgs0),
      (unsigned long long)(system->clock().now_us() - time0));
}

}  // namespace

int main() {
  std::printf("E4: client crash recovery (pages fetched ~= dirty - flushed)\n");
  std::printf("%6s %8s %14s %7s %10s %12s\n", "dirty", "flushed",
              "pages_fetched", "redos", "rec_msgs", "rec_sim_us");
  RunOne(4, 0);
  RunOne(16, 0);
  RunOne(16, 8);
  RunOne(16, 16);
  RunOne(48, 0);
  RunOne(48, 24);
  RunOne(48, 48);
  return 0;
}
