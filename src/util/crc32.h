// CRC32 (Castagnoli polynomial) used to checksum pages on disk and log
// records in the private and server logs. On x86-64 CPUs with SSE4.2 the
// checksum runs on the crc32 instruction; elsewhere a byte table computes the
// same value.

#ifndef FINELOG_UTIL_CRC32_H_
#define FINELOG_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace finelog {

// Computes the CRC32C of `data[0, n)`, seeded with `init` (pass 0 for a
// fresh checksum; pass a previous result to extend it).
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

namespace internal {

// The two implementations Crc32c chooses between once, exposed so tests can
// check that they agree. Crc32cHardware may only be called when
// Crc32cHardwareAvailable() is true.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t init);
uint32_t Crc32cHardware(const void* data, size_t n, uint32_t init);
bool Crc32cHardwareAvailable();

}  // namespace internal
}  // namespace finelog

#endif  // FINELOG_UTIL_CRC32_H_
