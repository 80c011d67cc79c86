//===- support/Checksum.cpp - CRC32 file seals ---------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/support/Checksum.h"

#include "parmonc/support/Text.h"

#include <array>

// The carry-less-multiply fold is x86-only and compiled out of
// PARMONC_SIMD=SCALAR builds, leaving slicing-by-8 as the only path.
#if (defined(__x86_64__) || defined(__i386__)) &&                              \
    !defined(PARMONC_SIMD_FORCE_SCALAR)
#define PARMONC_CRC32_CLMUL 1
#include <immintrin.h>
#endif

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

/// Slicing-by-8 over \p Size bytes, continuing the (pre-inverted) CRC
/// register \p Value.
uint32_t crc32Sliced(uint32_t Value, const uint8_t *Data, size_t Size) {
  for (; Size >= 8; Data += 8, Size -= 8) {
    const uint32_t Low = loadLittleEndian32(Data) ^ Value;
    const uint32_t High = loadLittleEndian32(Data + 4);
    Value = Tables[7][Low & 0xFFu] ^ Tables[6][(Low >> 8) & 0xFFu] ^
            Tables[5][(Low >> 16) & 0xFFu] ^ Tables[4][Low >> 24] ^
            Tables[3][High & 0xFFu] ^ Tables[2][(High >> 8) & 0xFFu] ^
            Tables[1][(High >> 16) & 0xFFu] ^ Tables[0][High >> 24];
  }
  for (; Size > 0; ++Data, --Size)
    Value = (Value >> 8) ^ Tables[0][(Value ^ *Data) & 0xFFu];
  return Value;
}

#if defined(PARMONC_CRC32_CLMUL)

/// Folding constants for the bit-reflected polynomial 0xEDB88320, from
/// Intel's "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
/// (Gopal et al., 2009), in the bit-reflected form the reflected
/// carry-less products need: powers of x mod P(x) for folding across 512
/// bits (four accumulators), 128 bits and 64 bits, then P(x) itself and
/// the Barrett quotient mu = floor(x^64 / P(x)).
constexpr uint64_t Fold512Lo = 0x0154442bd4;
constexpr uint64_t Fold512Hi = 0x01c6e41596;
constexpr uint64_t Fold128Lo = 0x01751997d0;
constexpr uint64_t Fold128Hi = 0x00ccaa009e;
constexpr uint64_t Fold64 = 0x0163cd6124;
constexpr uint64_t PolyP = 0x01db710641;
constexpr uint64_t BarrettMu = 0x01f7011641;

/// One fold step: carry-less multiplies of \p Accumulator's two halves
/// by the matching halves of \p Constants, added to \p Next.
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold128(__m128i Accumulator, __m128i Constants, __m128i Next) {
  const __m128i Low = _mm_clmulepi64_si128(Accumulator, Constants, 0x00);
  const __m128i High = _mm_clmulepi64_si128(Accumulator, Constants, 0x11);
  return _mm_xor_si128(_mm_xor_si128(Low, High), Next);
}

/// Advances the pre-inverted CRC register \p Value over \p Size bytes,
/// a multiple of 16 and at least 64: four 128-bit accumulators fold 64
/// bytes per step, then merge into one, which folds the remaining 16-byte
/// blocks; a 128-to-64-bit fold and a Barrett reduction give the register.
__attribute__((target("pclmul,sse4.1"))) uint32_t
crc32Folded(uint32_t Value, const uint8_t *Data, size_t Size) {
  const auto Load = [](const uint8_t *At) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(At));
  };
  __m128i Acc0 = _mm_xor_si128(
      Load(Data), _mm_cvtsi32_si128(static_cast<int>(Value)));
  __m128i Acc1 = Load(Data + 16);
  __m128i Acc2 = Load(Data + 32);
  __m128i Acc3 = Load(Data + 48);
  Data += 64;
  Size -= 64;

  const __m128i By512 = _mm_set_epi64x(static_cast<long long>(Fold512Hi),
                                       static_cast<long long>(Fold512Lo));
  for (; Size >= 64; Data += 64, Size -= 64) {
    Acc0 = fold128(Acc0, By512, Load(Data));
    Acc1 = fold128(Acc1, By512, Load(Data + 16));
    Acc2 = fold128(Acc2, By512, Load(Data + 32));
    Acc3 = fold128(Acc3, By512, Load(Data + 48));
  }

  const __m128i By128 = _mm_set_epi64x(static_cast<long long>(Fold128Hi),
                                       static_cast<long long>(Fold128Lo));
  __m128i Acc = fold128(Acc0, By128, Acc1);
  Acc = fold128(Acc, By128, Acc2);
  Acc = fold128(Acc, By128, Acc3);
  for (; Size >= 16; Data += 16, Size -= 16)
    Acc = fold128(Acc, By128, Load(Data));

  // 128 -> 64 bits: fold the low half onto the high half, then the low
  // 32 bits of that onto the rest.
  const __m128i Low32 = _mm_setr_epi32(-1, 0, -1, 0);
  Acc = _mm_xor_si128(_mm_clmulepi64_si128(Acc, By128, 0x10),
                      _mm_srli_si128(Acc, 8));
  const __m128i By64 = _mm_set_epi64x(0, static_cast<long long>(Fold64));
  Acc = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(Acc, Low32), By64, 0x00),
      _mm_srli_si128(Acc, 4));

  // Barrett reduction of the 64-bit remainder to the 32-bit register.
  const __m128i Barrett = _mm_set_epi64x(static_cast<long long>(BarrettMu),
                                         static_cast<long long>(PolyP));
  __m128i Quotient =
      _mm_clmulepi64_si128(_mm_and_si128(Acc, Low32), Barrett, 0x10);
  Quotient = _mm_clmulepi64_si128(_mm_and_si128(Quotient, Low32), Barrett,
                                  0x00);
  return static_cast<uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(Acc, Quotient), 1));
}

/// True when this CPU can run crc32Folded; probed once per process.
bool clmulEngaged() {
  static const bool Engaged = __builtin_cpu_supports("pclmul") != 0 &&
                              __builtin_cpu_supports("sse4.1") != 0;
  return Engaged;
}

#endif // PARMONC_CRC32_CLMUL

} // namespace

uint32_t crc32Portable(std::string_view Bytes) {
  return crc32Sliced(0xFFFFFFFFu,
                     reinterpret_cast<const uint8_t *>(Bytes.data()),
                     Bytes.size()) ^
         0xFFFFFFFFu;
}

uint32_t crc32(std::string_view Bytes) {
#if defined(PARMONC_CRC32_CLMUL)
  if (Bytes.size() >= 64 && clmulEngaged()) {
    const uint8_t *Data = reinterpret_cast<const uint8_t *>(Bytes.data());
    const size_t Folded = Bytes.size() & ~size_t(15);
    const uint32_t Value = crc32Folded(0xFFFFFFFFu, Data, Folded);
    return crc32Sliced(Value, Data + Folded, Bytes.size() - Folded) ^
           0xFFFFFFFFu;
  }
#endif
  return crc32Portable(Bytes);
}

std::string formatCrc32Hex(uint32_t Crc) {
  static const char Digits[] = "0123456789abcdef";
  std::string Text(8, '0');
  for (int Nibble = 0; Nibble < 8; ++Nibble)
    Text[size_t(7 - Nibble)] = Digits[(Crc >> (4 * Nibble)) & 0xF];
  return Text;
}

std::string sealFileContents(std::string_view Body) {
  std::string Sealed;
  Sealed.reserve(Body.size() + 64);
  Sealed += SealPrefix;
  Sealed += formatCrc32Hex(crc32(Body));
  Sealed += " bytes ";
  Sealed += std::to_string(Body.size());
  Sealed += '\n';
  Sealed += Body;
  return Sealed;
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
