//===- tests/mpsim/SerializeTest.cpp - Archive round-trip tests -----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace parmonc {
namespace {

TEST(Serialize, U64RoundTrip) {
  ByteWriter Writer;
  Writer.writeU64(0);
  Writer.writeU64(~0ull);
  Writer.writeU64(0x0123456789abcdefull);
  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readU64().value(), 0u);
  EXPECT_EQ(Reader.readU64().value(), ~0ull);
  EXPECT_EQ(Reader.readU64().value(), 0x0123456789abcdefull);
  EXPECT_TRUE(Reader.atEnd());
}

TEST(Serialize, I64RoundTripNegative) {
  ByteWriter Writer;
  Writer.writeI64(-123456789);
  Writer.writeI64(std::numeric_limits<int64_t>::min());
  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readI64().value(), -123456789);
  EXPECT_EQ(Reader.readI64().value(), std::numeric_limits<int64_t>::min());
}

TEST(Serialize, U32RoundTrip) {
  ByteWriter Writer;
  Writer.writeU32(0xdeadbeefu);
  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readU32().value(), 0xdeadbeefu);
  EXPECT_TRUE(Reader.atEnd());
}

TEST(Serialize, DoubleRoundTripBitExact) {
  ByteWriter Writer;
  const double Values[] = {0.0, -0.0, 1.5, -3.25e300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(), 7.7};
  for (double Value : Values)
    Writer.writeDouble(Value);
  ByteReader Reader(Writer.bytes());
  for (double Value : Values) {
    Result<double> Read = Reader.readDouble();
    ASSERT_TRUE(Read.isOk());
    EXPECT_EQ(std::signbit(Read.value()), std::signbit(Value));
    EXPECT_EQ(Read.value(), Value);
  }
}

TEST(Serialize, NanRoundTripsAsNan) {
  ByteWriter Writer;
  Writer.writeDouble(std::numeric_limits<double>::quiet_NaN());
  ByteReader Reader(Writer.bytes());
  EXPECT_TRUE(std::isnan(Reader.readDouble().value()));
}

TEST(Serialize, DoubleVectorRoundTrip) {
  ByteWriter Writer;
  std::vector<double> Values{1.0, 2.5, -7.25, 1e-300};
  Writer.writeDoubleVector(Values);
  ByteReader Reader(Writer.bytes());
  Result<std::vector<double>> Read = Reader.readDoubleVector();
  ASSERT_TRUE(Read.isOk());
  EXPECT_EQ(Read.value(), Values);
  EXPECT_TRUE(Reader.atEnd());
}

/// The bit pattern of \p Value, so NaN payloads and signed zeros compare.
uint64_t bitsOf(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

double fromBits(uint64_t Bits) {
  double Value;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return Value;
}

TEST(Serialize, BulkDoubleVectorRoundTripsEveryBitPattern) {
  // The vector moves as one memcpy on little-endian hosts: NaN payloads,
  // signed zeros and subnormals must come back bit for bit.
  const std::vector<double> Values = {
      fromBits(0x7ff8000000000123ull), // quiet NaN with a payload
      fromBits(0x7ff0000000000001ull), // signaling NaN
      fromBits(0xfff8dead0000beefull), // negative NaN with a payload
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      fromBits(0x000fffffffffffffull), // largest subnormal
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::max(),
      1.0};
  ByteWriter Writer;
  Writer.writeDoubleVector(Values);
  ASSERT_EQ(Writer.bytes().size(), 8 + 8 * Values.size());
  // Element k sits little-endian right after the count, whatever the host.
  for (size_t Index = 0; Index < Values.size(); ++Index)
    for (size_t Byte = 0; Byte < 8; ++Byte)
      EXPECT_EQ(Writer.bytes()[8 + 8 * Index + Byte],
                uint8_t(bitsOf(Values[Index]) >> (8 * Byte)))
          << "element " << Index << " byte " << Byte;
  ByteReader Reader(Writer.bytes());
  Result<std::vector<double>> Read = Reader.readDoubleVector();
  ASSERT_TRUE(Read.isOk());
  ASSERT_EQ(Read.value().size(), Values.size());
  for (size_t Index = 0; Index < Values.size(); ++Index)
    EXPECT_EQ(bitsOf(Read.value()[Index]), bitsOf(Values[Index]))
        << "element " << Index;
  EXPECT_TRUE(Reader.atEnd());
}

TEST(Serialize, I64VectorRoundTripsAndRejectsHostileLength) {
  const std::vector<int64_t> Values = {0, -1, 42,
                                       std::numeric_limits<int64_t>::min(),
                                       std::numeric_limits<int64_t>::max()};
  ByteWriter Writer;
  Writer.writeI64Vector(Values);
  ByteReader Reader(Writer.bytes());
  Result<std::vector<int64_t>> Read = Reader.readI64Vector();
  ASSERT_TRUE(Read.isOk());
  EXPECT_EQ(Read.value(), Values);
  EXPECT_TRUE(Reader.atEnd());

  ByteWriter Hostile;
  Hostile.writeU64(uint64_t(1) << 61); // must fail fast, not allocate
  Hostile.writeI64(1);
  ByteReader HostileReader(Hostile.bytes());
  EXPECT_FALSE(HostileReader.readI64Vector().isOk());
}

TEST(Serialize, EmptyVectorRoundTrip) {
  ByteWriter Writer;
  Writer.writeDoubleVector({});
  ByteReader Reader(Writer.bytes());
  EXPECT_TRUE(Reader.readDoubleVector().value().empty());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter Writer;
  Writer.writeString("hello parmonc");
  Writer.writeString("");
  Writer.writeString(std::string("embedded\0null", 13));
  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readString().value(), "hello parmonc");
  EXPECT_EQ(Reader.readString().value(), "");
  EXPECT_EQ(Reader.readString().value(), std::string("embedded\0null", 13));
  EXPECT_TRUE(Reader.atEnd());
}

TEST(Serialize, MixedSequenceRoundTrip) {
  ByteWriter Writer;
  Writer.writeU64(7);
  Writer.writeDouble(3.5);
  Writer.writeString("tag");
  Writer.writeDoubleVector({1, 2, 3});
  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readU64().value(), 7u);
  EXPECT_DOUBLE_EQ(Reader.readDouble().value(), 3.5);
  EXPECT_EQ(Reader.readString().value(), "tag");
  EXPECT_EQ(Reader.readDoubleVector().value().size(), 3u);
  EXPECT_TRUE(Reader.atEnd());
}

TEST(Serialize, TruncatedReadsFailCleanly) {
  ByteWriter Writer;
  Writer.writeU64(1);
  std::vector<uint8_t> Truncated(Writer.bytes().begin(),
                                 Writer.bytes().begin() + 5);
  ByteReader Reader(Truncated);
  EXPECT_FALSE(Reader.readU64().isOk());
}

TEST(Serialize, TruncatedVectorFailsCleanly) {
  ByteWriter Writer;
  Writer.writeDoubleVector({1.0, 2.0, 3.0});
  std::vector<uint8_t> Truncated(Writer.bytes().begin(),
                                 Writer.bytes().begin() + 12);
  ByteReader Reader(Truncated);
  EXPECT_FALSE(Reader.readDoubleVector().isOk());
}

TEST(Serialize, HostileLengthPrefixIsRejected) {
  // A length prefix claiming 2^61 doubles must fail fast, not allocate.
  ByteWriter Writer;
  Writer.writeU64(uint64_t(1) << 61);
  ByteReader Reader(Writer.bytes());
  EXPECT_FALSE(Reader.readDoubleVector().isOk());
}

TEST(Serialize, LittleEndianLayoutIsStable) {
  // The wire format is a contract: u64 0x0102030405060708 must serialize
  // as bytes 08 07 06 05 04 03 02 01.
  ByteWriter Writer;
  Writer.writeU64(0x0102030405060708ull);
  const std::vector<uint8_t> &Bytes = Writer.bytes();
  ASSERT_EQ(Bytes.size(), 8u);
  for (int Index = 0; Index < 8; ++Index)
    EXPECT_EQ(Bytes[size_t(Index)], 8 - Index);
}

} // namespace
} // namespace parmonc
