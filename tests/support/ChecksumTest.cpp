//===- tests/support/ChecksumTest.cpp - File seal integrity layer ---------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/support/Checksum.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

namespace parmonc {
namespace {

/// The byte-at-a-time table loop: the differential oracle for the
/// slicing-by-8 crc32.
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

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) check
  // values.
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
}

TEST(Crc32, MatchesTheByteAtATimeOracleAtEveryLengthAndAlignment) {
  // Every tail length of the eight-byte main loop, from every start
  // offset inside a word.
  const std::string Bytes = randomBytes(8 + 300, 11);
  for (size_t Offset = 0; Offset < 8; ++Offset)
    for (size_t Length = 0; Length <= 300; ++Length) {
      const std::string_view Window(Bytes.data() + Offset, Length);
      ASSERT_EQ(crc32(Window), referenceCrc32(Window))
          << "offset " << Offset << " length " << Length;
    }
}

TEST(Crc32, MatchesTheByteAtATimeOracleOnOneMebibyte) {
  const std::string Bytes = randomBytes(size_t(1) << 20, 12);
  EXPECT_EQ(crc32(Bytes), referenceCrc32(Bytes));
}

TEST(FileSeal, RoundTripRecoversBodyExactly) {
  const std::string Body = "volume 42\nsums 1.25e+00 -3.00e-02\n";
  const std::string Sealed = sealFileContents(Body);
  ASSERT_TRUE(hasFileSeal(Sealed));
  // The seal line starts with '#', so comment-skipping parsers of the
  // legacy formats read sealed files unchanged.
  EXPECT_EQ(Sealed[0], '#');
  Result<std::string> Unsealed = unsealFileContents("file.dat", Sealed);
  ASSERT_TRUE(Unsealed.isOk()) << Unsealed.status().toString();
  EXPECT_EQ(Unsealed.value(), Body);
}

TEST(FileSeal, EmptyBodySealsAndUnseals) {
  const std::string Sealed = sealFileContents("");
  Result<std::string> Unsealed = unsealFileContents("empty.dat", Sealed);
  ASSERT_TRUE(Unsealed.isOk());
  EXPECT_EQ(Unsealed.value(), "");
}

TEST(FileSeal, UnsealedFileIsReported) {
  Result<std::string> Unsealed =
      unsealFileContents("plain.dat", "no header here\n");
  ASSERT_FALSE(Unsealed.isOk());
  EXPECT_EQ(Unsealed.status().code(), StatusCode::ParseError);
  EXPECT_NE(Unsealed.status().message().find("plain.dat"),
            std::string::npos);
}

TEST(FileSeal, TruncationIsDetectedAsShortRead) {
  const std::string Sealed = sealFileContents("0123456789abcdef\n");
  const std::string Truncated = Sealed.substr(0, Sealed.size() - 5);
  Result<std::string> Unsealed =
      unsealFileContents("/data/checkpoint.dat", Truncated);
  ASSERT_FALSE(Unsealed.isOk());
  EXPECT_EQ(Unsealed.status().code(), StatusCode::IoError);
  // The message must carry enough to debug a torn write: the path and
  // both byte counts.
  EXPECT_NE(Unsealed.status().message().find("/data/checkpoint.dat"),
            std::string::npos);
  EXPECT_NE(Unsealed.status().message().find("short read"),
            std::string::npos);
}

TEST(FileSeal, SingleBitFlipIsDetected) {
  std::string Sealed = sealFileContents("a perfectly good snapshot body\n");
  Sealed[Sealed.size() - 3] ^= 0x01;
  Result<std::string> Unsealed = unsealFileContents("bitrot.dat", Sealed);
  ASSERT_FALSE(Unsealed.isOk());
  EXPECT_EQ(Unsealed.status().code(), StatusCode::IoError);
  EXPECT_NE(Unsealed.status().message().find("CRC32"), std::string::npos);
}

TEST(FileSeal, ExtraAppendedBytesAreDetected) {
  const std::string Sealed = sealFileContents("body\n") + "stray tail\n";
  EXPECT_FALSE(unsealFileContents("tail.dat", Sealed).isOk());
}

} // namespace
} // namespace parmonc
