#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace finelog {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // CRC32C, reflected.

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t init) {
  static const std::array<uint32_t, 256> kTable = MakeTable();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~init;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

// Compiled for SSE4.2 on its own, so the rest of the build keeps its flags;
// Crc32c calls it only after the runtime CPU check.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data,
                                                           size_t n,
                                                           uint32_t init) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~init;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

#else

uint32_t Crc32cHardware(const void* data, size_t n, uint32_t init) {
  return Crc32cPortable(data, n, init);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

}  // namespace internal

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
  static const auto kImpl = internal::Crc32cHardwareAvailable()
                                ? internal::Crc32cHardware
                                : internal::Crc32cPortable;
  return kImpl(data, n, init);
}

}  // namespace finelog
