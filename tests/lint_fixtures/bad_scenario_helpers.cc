// Seeded violations for the scenario-helpers rule: a test file that grows
// its own copy of the scenario runner's helpers and crash-point loop.

#include <fstream>
#include <sstream>
#include <string>

#include "util/fault.h"

namespace finelog {

struct RunFingerprint {
  std::string log_bytes;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void ArmAt(FaultInjector* injector, uint64_t k) {
  injector->ArmGlobalHit(k, FaultAction::kError, 0.5);
}

// Calls are fine; only the definitions above are copies.
std::string LogBytes() { return ReadFile("client0.log"); }

}  // namespace finelog
