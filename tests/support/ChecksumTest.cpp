//===- tests/support/ChecksumTest.cpp - File seal integrity layer ---------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/support/Checksum.h"

#include <gtest/gtest.h>

#include <string>

namespace parmonc {
namespace {

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
