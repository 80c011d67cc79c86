//===- tests/mpsim/WireTest.cpp - Frame codec property/fuzz tests ---------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The wire codec carries every cross-process message of the Processes
// transport, so its contract is tested the way ResultsStore's sealing is:
// arbitrary payloads round-trip bit-exactly through arbitrary read()
// chunkings, and every corruption — truncation, bit flips, length-lying
// headers, unknown kinds — is rejected with a clean Status, never a crash
// and never a partial frame.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Wire.h"

#include "parmonc/support/Checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace parmonc {
namespace {

/// Deterministic 64-bit LCG for the fuzz loops: fixed seed, byte-stable
/// test inputs on every platform and run.
class FuzzRandom {
public:
  explicit FuzzRandom(uint64_t Seed) : State(Seed | 1) {}

  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 17;
  }

  /// Uniform-ish draw in [0, Bound).
  uint64_t below(uint64_t Bound) { return next() % Bound; }

private:
  uint64_t State;
};

Frame makeRandomFrame(FuzzRandom &Random) {
  Frame Made;
  Made.Kind = FrameKind(1 + Random.below(8));
  Made.A = int32_t(Random.next());
  Made.B = int32_t(Random.next());
  Made.C = int32_t(Random.next());
  Made.Payload.resize(Random.below(2048));
  for (uint8_t &Byte : Made.Payload)
    Byte = uint8_t(Random.next());
  return Made;
}

bool sameFrame(const Frame &Left, const Frame &Right) {
  return Left.Kind == Right.Kind && Left.A == Right.A &&
         Left.B == Right.B && Left.C == Right.C &&
         Left.Payload == Right.Payload;
}

TEST(Wire, RoundTripsArbitraryFramesThroughArbitraryChunking) {
  FuzzRandom Random(0x9e3779b97f4a7c15ULL);
  std::vector<Frame> Sent;
  std::vector<uint8_t> Stream;
  for (int Index = 0; Index < 200; ++Index) {
    Sent.push_back(makeRandomFrame(Random));
    const std::vector<uint8_t> Encoded = encodeFrame(Sent.back());
    Stream.insert(Stream.end(), Encoded.begin(), Encoded.end());
  }

  // Feed the whole stream in random-size chunks — exactly what a socket
  // read loop sees — and require every frame back, in order, bit-exact.
  FrameDecoder Decoder;
  std::vector<Frame> Received;
  size_t Offset = 0;
  while (Offset < Stream.size()) {
    const size_t Chunk =
        std::min(Stream.size() - Offset, size_t(1 + Random.below(97)));
    Decoder.feed(Stream.data() + Offset, Chunk);
    Offset += Chunk;
    for (;;) {
      Result<std::optional<Frame>> Next = Decoder.next();
      ASSERT_TRUE(Next) << Next.status().message();
      if (!Next.value())
        break;
      Received.push_back(std::move(*Next.value()));
    }
  }
  ASSERT_EQ(Received.size(), Sent.size());
  for (size_t Index = 0; Index < Sent.size(); ++Index)
    EXPECT_TRUE(sameFrame(Sent[Index], Received[Index]))
        << "frame " << Index << " did not round-trip";
  EXPECT_EQ(Decoder.bufferedBytes(), 0u);
}

TEST(Wire, RoundTripsEmptyAndLargePayloads) {
  for (const size_t Size : {size_t(0), size_t(1), size_t(200'000)}) {
    Frame Outgoing;
    Outgoing.Kind = FrameKind::Data;
    Outgoing.A = -3;
    Outgoing.B = 0;
    Outgoing.C = 1 << 20;
    Outgoing.Payload.assign(Size, uint8_t(0xa5));
    const std::vector<uint8_t> Encoded = encodeFrame(Outgoing);
    FrameDecoder Decoder;
    Decoder.feed(Encoded.data(), Encoded.size());
    Result<std::optional<Frame>> Next = Decoder.next();
    ASSERT_TRUE(Next) << Next.status().message();
    ASSERT_TRUE(Next.value());
    EXPECT_TRUE(sameFrame(Outgoing, *Next.value()));
  }
}

TEST(Wire, TruncatedFrameStallsUntilTheLastByteArrives) {
  Frame Outgoing;
  Outgoing.Kind = FrameKind::Goodbye;
  Outgoing.A = 2;
  Outgoing.Payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> Encoded = encodeFrame(Outgoing);

  // Byte-at-a-time delivery: no prefix may ever yield a frame or an error.
  FrameDecoder Decoder;
  for (size_t Fed = 0; Fed + 1 < Encoded.size(); ++Fed) {
    Decoder.feed(&Encoded[Fed], 1);
    Result<std::optional<Frame>> Next = Decoder.next();
    ASSERT_TRUE(Next) << "clean truncation must not error at byte " << Fed;
    EXPECT_FALSE(Next.value()) << "partial frame surfaced at byte " << Fed;
  }
  Decoder.feed(&Encoded[Encoded.size() - 1], 1);
  Result<std::optional<Frame>> Next = Decoder.next();
  ASSERT_TRUE(Next);
  ASSERT_TRUE(Next.value());
  EXPECT_TRUE(sameFrame(Outgoing, *Next.value()));
}

TEST(Wire, EverySingleBitFlipIsRejectedNeverMisdecoded) {
  Frame Outgoing;
  Outgoing.Kind = FrameKind::Data;
  Outgoing.A = 1;
  Outgoing.B = 0;
  Outgoing.C = 7;
  Outgoing.Payload = {0x10, 0x20, 0x30, 0x40, 0x55, 0xaa};
  const std::vector<uint8_t> Clean = encodeFrame(Outgoing);

  for (size_t Byte = 0; Byte < Clean.size(); ++Byte) {
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::vector<uint8_t> Flipped = Clean;
      Flipped[Byte] = uint8_t(Flipped[Byte] ^ (1u << Bit));
      FrameDecoder Decoder;
      Decoder.feed(Flipped.data(), Flipped.size());
      Result<std::optional<Frame>> Next = Decoder.next();
      // A flip in the length field may legitimately stall the decoder
      // (the header now promises more bytes); anything else must be a
      // clean error. What may NEVER happen is a decoded frame — CRC-32
      // catches every single-bit error in the body, the magic guards the
      // header.
      if (Next) {
        EXPECT_FALSE(Next.value())
            << "bit flip at byte " << Byte << " bit " << Bit
            << " produced a frame";
      }
    }
  }
}

TEST(Wire, LengthLyingHeaderIsRejectedBeforeAllocation) {
  // Oversized claim: 256 MiB + 1 — rejected from the 12 header bytes
  // alone, long before any quarter-gigabyte buffer could be attempted.
  std::vector<uint8_t> Header;
  auto appendWord = [&Header](uint32_t Value) {
    for (int Byte = 0; Byte < 4; ++Byte)
      Header.push_back(uint8_t(Value >> (8 * Byte)));
  };
  appendWord(FrameMagic);
  appendWord(MaxFrameBodyBytes + 1);
  appendWord(0xdeadbeef);
  FrameDecoder Decoder;
  Decoder.feed(Header.data(), Header.size());
  Result<std::optional<Frame>> Next = Decoder.next();
  ASSERT_FALSE(Next);
  EXPECT_NE(Next.status().message().find("lying"), std::string::npos);

  // Undersized claim: a body shorter than its own fixed prefix.
  Header.clear();
  appendWord(FrameMagic);
  appendWord(5);
  appendWord(0);
  FrameDecoder Short;
  Short.feed(Header.data(), Header.size());
  EXPECT_FALSE(Short.next());
}

TEST(Wire, BadMagicPoisonsTheDecoderPermanently) {
  std::vector<uint8_t> Garbage(32, 0x5a);
  FrameDecoder Decoder;
  Decoder.feed(Garbage.data(), Garbage.size());
  Result<std::optional<Frame>> First = Decoder.next();
  ASSERT_FALSE(First);
  EXPECT_NE(First.status().message().find("magic"), std::string::npos);

  // A framing error leaves no resynchronization point: even a pristine
  // frame fed afterwards must keep returning the original error.
  Frame Valid;
  Valid.Kind = FrameKind::Hello;
  const std::vector<uint8_t> Encoded = encodeFrame(Valid);
  Decoder.feed(Encoded.data(), Encoded.size());
  Result<std::optional<Frame>> Second = Decoder.next();
  ASSERT_FALSE(Second);
  EXPECT_EQ(Second.status().message(), First.status().message());
}

TEST(Wire, UnknownFrameKindIsRejected) {
  // Hand-build a frame whose CRC is honest but whose kind byte (99) names
  // no protocol message: framing is fine, content is not — still fatal.
  std::vector<uint8_t> Encoded = encodeFrame(Frame{});
  Encoded[12] = 99; // the kind byte, first of the body
  const uint32_t HonestCrc = crc32(std::string_view(
      reinterpret_cast<const char *>(Encoded.data() + 12),
      Encoded.size() - 12));
  for (int Byte = 0; Byte < 4; ++Byte)
    Encoded[size_t(8 + Byte)] = uint8_t(HonestCrc >> (8 * Byte));
  FrameDecoder Decoder;
  Decoder.feed(Encoded.data(), Encoded.size());
  Result<std::optional<Frame>> Next = Decoder.next();
  ASSERT_FALSE(Next);
  EXPECT_NE(Next.status().message().find("unknown frame kind"),
            std::string::npos);
}

/// Rewrites the CRC of an encoded frame so it matches its (edited) body.
void resealCrc(std::vector<uint8_t> &Encoded) {
  const uint32_t HonestCrc = crc32(std::string_view(
      reinterpret_cast<const char *>(Encoded.data() + 12),
      Encoded.size() - 12));
  for (int Byte = 0; Byte < 4; ++Byte)
    Encoded[size_t(8 + Byte)] = uint8_t(HonestCrc >> (8 * Byte));
}

TEST(Wire, FirstUnknownFrameKindIsTen) {
  // LatestReady (9) is the newest kind; 10 is the first byte that names
  // nothing, and is rejected under an honest CRC.
  for (const uint8_t Kind : {uint8_t(9), uint8_t(10)}) {
    Frame Hello;
    Hello.Kind = FrameKind::Hello;
    std::vector<uint8_t> Encoded = encodeFrame(Hello);
    Encoded[12] = Kind;
    resealCrc(Encoded);
    FrameDecoder Decoder;
    Decoder.feed(Encoded.data(), Encoded.size());
    Result<std::optional<Frame>> Next = Decoder.next();
    EXPECT_EQ(bool(Next), Kind == uint8_t(FrameKind::LatestReady))
        << "kind " << int(Kind);
  }
}

TEST(Wire, LatestReadyDoorbellRoundTrips) {
  Frame Doorbell;
  Doorbell.Kind = FrameKind::LatestReady;
  Doorbell.A = 3;
  const std::vector<uint8_t> Encoded = encodeFrame(Doorbell);
  EXPECT_EQ(Encoded.size(), 12u + 13u); // header and body prefix only
  FrameDecoder Decoder;
  Decoder.feed(Encoded.data(), Encoded.size());
  Result<std::optional<Frame>> Next = Decoder.next();
  ASSERT_TRUE(Next) << Next.status().message();
  ASSERT_TRUE(Next.value());
  EXPECT_TRUE(sameFrame(*Next.value(), Doorbell));
  EXPECT_FALSE(Next.value()->Supersedes);
}

TEST(Wire, LatestReadyWithAPayloadIsRejected) {
  // The doorbell's message waits in the worker's slot; a doorbell that
  // carries bytes is not one the protocol can produce.
  Frame Doorbell;
  Doorbell.Kind = FrameKind::LatestReady;
  Doorbell.Payload = {1, 2, 3};
  const std::vector<uint8_t> Encoded = encodeFrame(Doorbell);
  FrameDecoder Decoder;
  Decoder.feed(Encoded.data(), Encoded.size());
  Result<std::optional<Frame>> Next = Decoder.next();
  ASSERT_FALSE(Next);
  EXPECT_NE(Next.status().message().find("LatestReady"), std::string::npos);
}

TEST(Wire, LatestReadyWithTheSupersedingMarkerIsRejected) {
  Frame Doorbell;
  Doorbell.Kind = FrameKind::LatestReady;
  Doorbell.Supersedes = true; // ignored by the encoder on non-Data frames
  std::vector<uint8_t> Encoded = encodeFrame(Doorbell);
  EXPECT_EQ(Encoded[12], uint8_t(FrameKind::LatestReady));
  Encoded[12] |= 0x80;
  resealCrc(Encoded);
  FrameDecoder Decoder;
  Decoder.feed(Encoded.data(), Encoded.size());
  EXPECT_FALSE(Decoder.next());
}

TEST(Wire, SupersedingMarkerRoundTripsOnDataFrames) {
  Frame Outgoing;
  Outgoing.Kind = FrameKind::Data;
  Outgoing.A = 2;
  Outgoing.C = 1;
  Outgoing.Payload = {7, 8, 9};
  const std::vector<uint8_t> Plain = encodeFrame(Outgoing);
  EXPECT_EQ(Plain[12], uint8_t(FrameKind::Data)); // unmarked: old bytes
  Outgoing.Supersedes = true;
  const std::vector<uint8_t> Marked = encodeFrame(Outgoing);
  EXPECT_EQ(Marked[12], uint8_t(0x80 | uint8_t(FrameKind::Data)));

  FrameDecoder Decoder;
  Decoder.feed(Plain.data(), Plain.size());
  Decoder.feed(Marked.data(), Marked.size());
  for (const bool Expected : {false, true}) {
    Result<std::optional<Frame>> Next = Decoder.next();
    ASSERT_TRUE(Next) << Next.status().message();
    ASSERT_TRUE(Next.value());
    EXPECT_EQ(Next.value()->Kind, FrameKind::Data);
    EXPECT_EQ(Next.value()->Supersedes, Expected);
    EXPECT_TRUE(sameFrame(*Next.value(), Outgoing));
  }
}

TEST(Wire, SupersedingMarkerOnAControlFrameIsRejected) {
  // The marker means something only to a mailbox; on any other kind it
  // is a corrupt kind byte, even under an honest CRC.
  Frame Stop;
  Stop.Kind = FrameKind::Stop;
  Stop.Supersedes = true; // ignored by the encoder on non-Data frames
  std::vector<uint8_t> Encoded = encodeFrame(Stop);
  EXPECT_EQ(Encoded[12], uint8_t(FrameKind::Stop));
  Encoded[12] |= 0x80;
  const uint32_t HonestCrc = crc32(std::string_view(
      reinterpret_cast<const char *>(Encoded.data() + 12),
      Encoded.size() - 12));
  for (int Byte = 0; Byte < 4; ++Byte)
    Encoded[size_t(8 + Byte)] = uint8_t(HonestCrc >> (8 * Byte));
  FrameDecoder Decoder;
  Decoder.feed(Encoded.data(), Encoded.size());
  EXPECT_FALSE(Decoder.next());
}

TEST(Wire, DecoderReclaimsConsumedBuffer) {
  Frame Outgoing;
  Outgoing.Kind = FrameKind::Data;
  Outgoing.Payload.assign(3000, 0x42);
  const std::vector<uint8_t> Encoded = encodeFrame(Outgoing);
  FrameDecoder Decoder;
  for (int Round = 0; Round < 50; ++Round) {
    Decoder.feed(Encoded.data(), Encoded.size());
    Result<std::optional<Frame>> Next = Decoder.next();
    ASSERT_TRUE(Next);
    ASSERT_TRUE(Next.value());
    // Everything consumed: the next feed() starts from a reclaimed
    // buffer, so a long-lived stream cannot accumulate its history.
    EXPECT_EQ(Decoder.bufferedBytes(), 0u);
  }
}

} // namespace
} // namespace parmonc
