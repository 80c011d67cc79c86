//===- support/Checksum.cpp - CRC32 file seals ---------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/support/Checksum.h"

#include "parmonc/support/Text.h"

#include <array>
#include <cstdio>

namespace parmonc {

namespace {

constexpr std::string_view SealPrefix = "#%parmonc-seal v1 crc32 ";

/// Slicing-by-8 tables. Tables[0] is the classic byte-at-a-time table;
/// Tables[K][I] is the register after byte I is followed by K zero bytes,
/// so eight lookups advance the register by eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() {
  CrcTables Tables{};
  for (uint32_t Index = 0; Index < 256; ++Index) {
    uint32_t Value = Index;
    for (int Bit = 0; Bit < 8; ++Bit)
      Value = (Value >> 1) ^ ((Value & 1u) ? 0xEDB88320u : 0u);
    Tables[0][Index] = Value;
  }
  for (size_t Slice = 1; Slice < Tables.size(); ++Slice)
    for (size_t Index = 0; Index < 256; ++Index) {
      const uint32_t Previous = Tables[Slice - 1][Index];
      Tables[Slice][Index] = (Previous >> 8) ^ Tables[0][Previous & 0xFFu];
    }
  return Tables;
}

constexpr CrcTables Tables = makeCrcTables();

/// Little-endian 32-bit load at any alignment and on any host byte order;
/// compilers fold it into one load on little-endian hosts.
uint32_t loadLittleEndian32(const uint8_t *Data) {
  return uint32_t(Data[0]) | uint32_t(Data[1]) << 8 |
         uint32_t(Data[2]) << 16 | uint32_t(Data[3]) << 24;
}

} // namespace

uint32_t crc32(std::string_view Bytes) {
  const uint8_t *Data = reinterpret_cast<const uint8_t *>(Bytes.data());
  size_t Left = Bytes.size();
  uint32_t Value = 0xFFFFFFFFu;
  for (; Left >= 8; Data += 8, Left -= 8) {
    const uint32_t Low = loadLittleEndian32(Data) ^ Value;
    const uint32_t High = loadLittleEndian32(Data + 4);
    Value = Tables[7][Low & 0xFFu] ^ Tables[6][(Low >> 8) & 0xFFu] ^
            Tables[5][(Low >> 16) & 0xFFu] ^ Tables[4][Low >> 24] ^
            Tables[3][High & 0xFFu] ^ Tables[2][(High >> 8) & 0xFFu] ^
            Tables[1][(High >> 16) & 0xFFu] ^ Tables[0][High >> 24];
  }
  for (; Left > 0; ++Data, --Left)
    Value = (Value >> 8) ^ Tables[0][(Value ^ *Data) & 0xFFu];
  return Value ^ 0xFFFFFFFFu;
}

std::string sealFileContents(std::string_view Body) {
  char Header[64];
  std::snprintf(Header, sizeof(Header),
                "#%%parmonc-seal v1 crc32 %08x bytes %zu\n", crc32(Body),
                Body.size());
  return std::string(Header) + std::string(Body);
}

bool hasFileSeal(std::string_view Contents) {
  return startsWith(Contents, SealPrefix);
}

Result<std::string> unsealFileContents(const std::string &Path,
                                       std::string_view Contents) {
  if (!hasFileSeal(Contents))
    return parseError("'" + Path + "' has no PARMONC seal line");
  const size_t LineEnd = Contents.find('\n');
  if (LineEnd == std::string_view::npos)
    return ioError("'" + Path + "' is truncated inside its seal line");
  const std::string_view SealLine = Contents.substr(0, LineEnd);
  const std::string_view Rest = SealLine.substr(SealPrefix.size());
  // Rest is "<hex8> bytes <n>".
  const auto Fields = splitWhitespace(Rest);
  if (Fields.size() != 3 || Fields[1] != "bytes" || Fields[0].size() != 8)
    return parseError("'" + Path + "' has a malformed seal line");
  uint32_t DeclaredCrc = 0;
  for (char Digit : Fields[0]) {
    uint32_t Nibble = 0;
    if (Digit >= '0' && Digit <= '9')
      Nibble = uint32_t(Digit - '0');
    else if (Digit >= 'a' && Digit <= 'f')
      Nibble = uint32_t(Digit - 'a' + 10);
    else
      return parseError("'" + Path + "' has a malformed seal checksum");
    DeclaredCrc = (DeclaredCrc << 4) | Nibble;
  }
  Result<uint64_t> DeclaredBytes = parseUInt64(Fields[2]);
  if (!DeclaredBytes)
    return parseError("'" + Path + "' has a malformed seal byte count");

  const std::string_view Body = Contents.substr(LineEnd + 1);
  if (Body.size() != DeclaredBytes.value())
    return ioError("'" + Path + "' is a short read: seal declares " +
                   std::to_string(DeclaredBytes.value()) +
                   " body bytes, found " + std::to_string(Body.size()));
  if (crc32(Body) != DeclaredCrc)
    return ioError("'" + Path +
                   "' failed its CRC32 check: the file is corrupted");
  return std::string(Body);
}

} // namespace parmonc
