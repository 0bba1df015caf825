#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace finelog {
namespace {

TEST(CodingTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0xBEEF);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  Decoder dec((Slice(enc.buffer())));
  uint8_t a;
  uint16_t b;
  uint32_t c;
  uint64_t d;
  ASSERT_TRUE(dec.GetU8(&a));
  ASSERT_TRUE(dec.GetU16(&b));
  ASSERT_TRUE(dec.GetU32(&c));
  ASSERT_TRUE(dec.GetU64(&d));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xBEEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFull);
  EXPECT_TRUE(dec.empty());
}

TEST(CodingTest, LengthPrefixedBytes) {
  Encoder enc;
  enc.PutBytes("hello");
  enc.PutBytes("");
  enc.PutBytes(std::string(1000, 'x'));
  Decoder dec((Slice(enc.buffer())));
  std::string a, b, c;
  ASSERT_TRUE(dec.GetBytes(&a));
  ASSERT_TRUE(dec.GetBytes(&b));
  ASSERT_TRUE(dec.GetBytes(&c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
}

TEST(CodingTest, UnderflowDetected) {
  Encoder enc;
  enc.PutU16(7);
  Decoder dec((Slice(enc.buffer())));
  uint32_t v;
  EXPECT_FALSE(dec.GetU32(&v));
  uint64_t w;
  EXPECT_FALSE(dec.GetU64(&w));
  // The u16 is still readable.
  uint16_t u;
  EXPECT_TRUE(dec.GetU16(&u));
  EXPECT_EQ(u, 7);
}

TEST(CodingTest, TruncatedBytesDetected) {
  Encoder enc;
  enc.PutU32(100);  // Claims 100 bytes follow; none do.
  Decoder dec((Slice(enc.buffer())));
  std::string out;
  EXPECT_FALSE(dec.GetBytes(&out));
}

TEST(CodingTest, ExternalBufferAppend) {
  std::string buf = "prefix:";
  Encoder enc(&buf);
  enc.PutU8('!');
  EXPECT_EQ(buf, std::string("prefix:!"));
}

TEST(Crc32Test, KnownValuesAndProperties) {
  // CRC32C of "123456789" is a published test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Sensitive to any single-bit change.
  std::string data(64, 'a');
  uint32_t base = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 13) {
    std::string mutated = data;
    mutated[i] ^= 1;
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base) << "byte " << i;
  }
}

TEST(Crc32Test, SeedExtension) {
  std::string data = "hello world";
  uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t partial = Crc32c(data.data(), 5);
  uint32_t extended = Crc32c(data.data() + 5, data.size() - 5, partial);
  EXPECT_EQ(extended, whole);
}

TEST(Crc32Test, PortablePathKnownAnswer) {
  EXPECT_EQ(internal::Crc32cPortable("123456789", 9, 0), 0xE3069283u);
}

// The SSE4.2 loop must compute exactly what the byte table does, for every
// length across the 8-byte word boundary, every start alignment, and a
// chained seed.
TEST(Crc32Test, HardwarePathMatchesPortablePath) {
  if (!internal::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  EXPECT_EQ(internal::Crc32cHardware("123456789", 9, 0), 0xE3069283u);
  Rng rng(24);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1024; ++n) {
      const char* p = buf.data() + offset;
      uint32_t portable = internal::Crc32cPortable(p, n, 0);
      ASSERT_EQ(internal::Crc32cHardware(p, n, 0), portable)
          << "offset " << offset << " length " << n;
      auto init = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(internal::Crc32cHardware(p, n, init),
                internal::Crc32cPortable(p, n, init))
          << "offset " << offset << " length " << n << " init " << init;
      size_t cut = n / 3;
      ASSERT_EQ(internal::Crc32cHardware(
                    p + cut, n - cut, internal::Crc32cHardware(p, cut, 0)),
                portable)
          << "offset " << offset << " length " << n << " cut " << cut;
    }
  }
}

}  // namespace
}  // namespace finelog
