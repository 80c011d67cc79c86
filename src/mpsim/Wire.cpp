//===- mpsim/Wire.cpp - CRC-framed socket message codec ------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Wire.h"

#include "parmonc/support/Checksum.h"

#include <string>

namespace parmonc {

namespace {

constexpr size_t HeaderBytes = 12; // magic + bodyLen + bodyCrc
constexpr size_t BodyPrefixBytes = 13; // kind + 3 x i32
constexpr uint8_t SupersedesBit = 0x80; // in the kind byte, Data only

void storeU32(uint8_t *Out, uint32_t Value) {
  for (int Byte = 0; Byte < 4; ++Byte)
    Out[Byte] = uint8_t(Value >> (8 * Byte));
}

uint32_t readU32(const uint8_t *Data) {
  uint32_t Value = 0;
  for (int Byte = 0; Byte < 4; ++Byte)
    Value |= uint32_t(Data[Byte]) << (8 * Byte);
  return Value;
}

bool knownFrameKind(uint8_t Kind) {
  return Kind >= uint8_t(FrameKind::Hello) &&
         Kind <= uint8_t(FrameKind::LatestReady);
}

} // namespace

std::vector<uint8_t> encodeFrame(const Frame &Outgoing) {
  // Header and body go into one buffer; the CRC slot is patched once the
  // body is in place.
  const size_t BodyBytes = BodyPrefixBytes + Outgoing.Payload.size();
  std::vector<uint8_t> Encoded;
  Encoded.reserve(HeaderBytes + BodyBytes);
  Encoded.resize(HeaderBytes + BodyPrefixBytes);
  Encoded.insert(Encoded.end(), Outgoing.Payload.begin(),
                 Outgoing.Payload.end());
  uint8_t *Body = Encoded.data() + HeaderBytes;
  Body[0] = uint8_t(Outgoing.Kind);
  if (Outgoing.Supersedes && Outgoing.Kind == FrameKind::Data)
    Body[0] |= SupersedesBit;
  storeU32(Body + 1, uint32_t(Outgoing.A));
  storeU32(Body + 5, uint32_t(Outgoing.B));
  storeU32(Body + 9, uint32_t(Outgoing.C));
  storeU32(Encoded.data(), FrameMagic);
  storeU32(Encoded.data() + 4, uint32_t(BodyBytes));
  storeU32(Encoded.data() + 8,
           crc32(std::string_view(reinterpret_cast<const char *>(Body),
                                  BodyBytes)));
  return Encoded;
}

void FrameDecoder::feed(const uint8_t *Data, size_t Size) {
  // Reclaim consumed prefix before growing, so a long-lived stream does
  // not accumulate every frame it ever carried.
  if (Consumed > 0 && Consumed == Buffer.size()) {
    Buffer.clear();
    Consumed = 0;
  } else if (Consumed > 4096) {
    Buffer.erase(Buffer.begin(), Buffer.begin() + std::ptrdiff_t(Consumed));
    Consumed = 0;
  }
  Buffer.insert(Buffer.end(), Data, Data + Size);
}

Result<std::optional<Frame>> FrameDecoder::next() {
  if (!Poisoned.isOk())
    return Poisoned;
  const size_t Available = Buffer.size() - Consumed;
  if (Available < HeaderBytes)
    return std::optional<Frame>{};
  const uint8_t *Header = Buffer.data() + Consumed;
  const uint32_t Magic = readU32(Header);
  if (Magic != FrameMagic) {
    Poisoned = parseError("frame header magic mismatch; socket stream is "
                          "corrupt or desynchronized");
    return Poisoned;
  }
  const uint32_t BodyLen = readU32(Header + 4);
  if (BodyLen < BodyPrefixBytes || BodyLen > MaxFrameBodyBytes) {
    Poisoned = parseError("frame body length " + std::to_string(BodyLen) +
                          " outside [" + std::to_string(BodyPrefixBytes) +
                          ", " + std::to_string(MaxFrameBodyBytes) +
                          "]; header is lying");
    return Poisoned;
  }
  if (Available < HeaderBytes + BodyLen)
    return std::optional<Frame>{}; // wait for the rest of the body
  const uint8_t *Body = Header + HeaderBytes;
  const uint32_t WireCrc = readU32(Header + 8);
  const uint32_t ComputedCrc = crc32(std::string_view(
      reinterpret_cast<const char *>(Body), BodyLen));
  if (WireCrc != ComputedCrc) {
    Poisoned = parseError("frame body CRC mismatch; message corrupted in "
                          "transit");
    return Poisoned;
  }
  const bool Supersedes = (Body[0] & SupersedesBit) != 0;
  const uint8_t Kind = Body[0] & uint8_t(~SupersedesBit);
  if (!knownFrameKind(Kind) ||
      (Supersedes && Kind != uint8_t(FrameKind::Data))) {
    Poisoned = parseError("unknown frame kind " + std::to_string(Body[0]));
    return Poisoned;
  }
  if (Kind == uint8_t(FrameKind::LatestReady) && BodyLen != BodyPrefixBytes) {
    Poisoned = parseError("LatestReady doorbell carries a payload");
    return Poisoned;
  }

  Frame Decoded;
  Decoded.Kind = FrameKind(Kind);
  Decoded.Supersedes = Supersedes;
  Decoded.A = int32_t(readU32(Body + 1));
  Decoded.B = int32_t(readU32(Body + 5));
  Decoded.C = int32_t(readU32(Body + 9));
  Decoded.Payload.assign(Body + BodyPrefixBytes, Body + BodyLen);
  Consumed += HeaderBytes + BodyLen;
  return std::optional<Frame>(std::move(Decoded));
}

} // namespace parmonc
