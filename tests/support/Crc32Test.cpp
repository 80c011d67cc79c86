//===- tests/support/Crc32Test.cpp - CRC-32 fold vs slicing-by-8 ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// crc32 dispatches inputs of 64 bytes or more to a carry-less-multiply
// fold on x86 hosts with PCLMULQDQ; crc32Portable is the slicing-by-8
// path and its differential oracle. Every check here runs against both,
// and both against the byte-at-a-time table loop, so a PARMONC_SIMD=SCALAR
// build (fold compiled out) checks its fallback with the same cases.
//
//===----------------------------------------------------------------------===//

#include "parmonc/support/Checksum.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

namespace parmonc {
namespace {

/// The byte-at-a-time table loop: the reference both paths must match.
uint32_t referenceCrc32(std::string_view Bytes) {
  std::array<uint32_t, 256> Table{};
  for (uint32_t Index = 0; Index < 256; ++Index) {
    uint32_t Value = Index;
    for (int Bit = 0; Bit < 8; ++Bit)
      Value = (Value >> 1) ^ ((Value & 1u) ? 0xEDB88320u : 0u);
    Table[Index] = Value;
  }
  uint32_t Value = 0xFFFFFFFFu;
  for (char Byte : Bytes)
    Value = (Value >> 8) ^ Table[(Value ^ uint8_t(Byte)) & 0xFFu];
  return Value ^ 0xFFFFFFFFu;
}

/// Deterministic filler bytes (a 64-bit LCG's high bits).
std::string randomBytes(size_t Size, uint64_t Seed) {
  std::string Bytes(Size, '\0');
  uint64_t State = Seed | 1;
  for (char &Byte : Bytes) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    Byte = char(State >> 56);
  }
  return Bytes;
}

struct CrcPath {
  const char *Name;
  uint32_t (*Compute)(std::string_view);
};

/// The dispatched crc32 and the slicing-by-8 oracle.
const CrcPath Paths[] = {{"crc32", crc32}, {"crc32Portable", crc32Portable}};

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) check
  // values; the 64-byte-and-longer ones reach the fold path.
  const std::string Long(1000, 'a');
  for (const CrcPath &Path : Paths) {
    SCOPED_TRACE(Path.Name);
    EXPECT_EQ(Path.Compute(""), 0u);
    EXPECT_EQ(Path.Compute("123456789"), 0xcbf43926u);
    EXPECT_EQ(Path.Compute("The quick brown fox jumps over the lazy dog"),
              0x414fa339u);
    EXPECT_EQ(Path.Compute(std::string(64, '\0')), 0x758d6336u);
    EXPECT_EQ(Path.Compute(Long), 0x9a38da03u);
  }
}

TEST(Crc32, MatchesTheByteAtATimeOracleAtEveryLengthAndAlignment) {
  // Every tail length of the eight-byte main loop, from every start
  // offset inside a word.
  const std::string Bytes = randomBytes(8 + 300, 11);
  for (const CrcPath &Path : Paths)
    for (size_t Offset = 0; Offset < 8; ++Offset)
      for (size_t Length = 0; Length <= 300; ++Length) {
        const std::string_view Window(Bytes.data() + Offset, Length);
        ASSERT_EQ(Path.Compute(Window), referenceCrc32(Window))
            << Path.Name << " offset " << Offset << " length " << Length;
      }
}

TEST(Crc32, MatchesTheByteAtATimeOracleOnOneMebibyte) {
  const std::string Bytes = randomBytes(size_t(1) << 20, 12);
  const uint32_t Want = referenceCrc32(Bytes);
  for (const CrcPath &Path : Paths)
    EXPECT_EQ(Path.Compute(Bytes), Want) << Path.Name;
}

TEST(Crc32, FoldBoundaryLengthsMatchTheOracle) {
  // Lengths 48..200 from every offset inside a 16-byte lane straddle the
  // fold's 64-byte entry threshold, its 64-byte main step, its 16-byte
  // single folds and the sub-16-byte slicing tail.
  const std::string Bytes = randomBytes(16 + 200, 13);
  for (size_t Offset = 0; Offset < 16; ++Offset)
    for (size_t Length = 48; Length <= 200; ++Length) {
      const std::string_view Window(Bytes.data() + Offset, Length);
      const uint32_t Oracle = crc32Portable(Window);
      ASSERT_EQ(crc32(Window), Oracle)
          << "offset " << Offset << " length " << Length;
      ASSERT_EQ(Oracle, referenceCrc32(Window))
          << "offset " << Offset << " length " << Length;
    }
}

TEST(Crc32, SubtotalSizedFrameMatchesTheOracle) {
  // The size of one 40x50 subtotal frame body plus an odd tail: the fold's
  // long main loop, then every remainder step.
  for (size_t Extra = 0; Extra < 16; ++Extra) {
    const std::string Bytes = randomBytes(32 * 1024 + Extra, 14 + Extra);
    EXPECT_EQ(crc32(Bytes), crc32Portable(Bytes)) << "extra " << Extra;
  }
}

} // namespace
} // namespace parmonc
