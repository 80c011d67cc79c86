//===- tests/rng/PhiloxWideTest.cpp - Wide Philox fill vs scalar draws ----===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Philox::fillUniforms sends whole blocks through the multi-block kernel
// (rngsimd::philoxFillWide: AVX-512, AVX2 or the scalar block loop,
// whichever this build compiled). Its contract is bit-equality with a
// per-draw nextUniform() loop: same output bytes, same position() after,
// and the same next draw. The cases straddle the kernel's sixteen-block
// groups, its scalar carry groups (block counters whose low word carries
// across 2^32 or 2^64), the top of the usable range at 2^126 and the
// position wrap at 2^128. Golden raw words pin the stream itself, so a
// change that moved the scalar and wide paths together still fails.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Philox.h"

#include "parmonc/rng/SimdKernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace parmonc {
namespace {

const uint64_t Keys[] = {0, 0x853c49e6748fea9bull, 0xffffffff00000001ull};

const size_t Counts[] = {0,  1,  2,  3,  31, 32,   33,  34,
                         63, 64, 65, 2000, 4099};

/// Draw positions (not block indices) the fills start from, odd and even.
std::vector<UInt128> startPositions() {
  const UInt128 Two(2);
  const UInt128 Block32 = UInt128::powerOfTwo(32) - UInt128(3);
  const UInt128 Block64 = UInt128::powerOfTwo(64) - UInt128(5);
  const UInt128 Top = UInt128::powerOfTwo(126);
  const UInt128 Wrap = UInt128(0) - UInt128(1); // 2^128 - 1
  return {UInt128(0),
          UInt128(1),
          UInt128(2 * 16 * 3 + 5),
          Block32 * Two,
          Block32 * Two + UInt128(1),
          (UInt128::powerOfTwo(32) - UInt128(40)) * Two,
          // The last sixteen-block group that fits below the carry, and
          // the first that does not.
          (UInt128::powerOfTwo(32) - UInt128(16)) * Two,
          (UInt128::powerOfTwo(32) - UInt128(15)) * Two,
          Block64 * Two,
          Block64 * Two + UInt128(1),
          Top - UInt128(7),
          Top - UInt128(64),
          Top + UInt128(3),
          Wrap - UInt128(8),
          Wrap - UInt128(40)};
}

TEST(PhiloxWide, FillMatchesPerDrawScalarLoop) {
  for (uint64_t Key : Keys)
    for (const UInt128 &Start : startPositions())
      for (size_t Count : Counts) {
        Philox Batched(Key), Scalar(Key);
        Batched.seek(Start);
        Scalar.seek(Start);
        std::vector<double> Got(Count + 1, -1.0), Want(Count + 1, -1.0);
        Batched.fillUniforms(Got.data(), Count);
        for (size_t Index = 0; Index < Count; ++Index)
          Want[Index] = Scalar.nextUniform();
        const std::string Where = "key " + std::to_string(Key) + " start " +
                                  std::to_string(Start.high()) + ":" +
                                  std::to_string(Start.low()) + " count " +
                                  std::to_string(Count);
        ASSERT_EQ(0, std::memcmp(Got.data(), Want.data(),
                                 (Count + 1) * sizeof(double)))
            << Where;
        ASSERT_EQ(Batched.position(), Scalar.position()) << Where;
        ASSERT_EQ(Batched.nextBits64(), Scalar.nextBits64()) << Where;
      }
}

TEST(PhiloxWide, KernelMatchesTheScalarBlockFunction) {
  // The kernel entry point itself, block by block against philox::block:
  // a vector group ending just below the low-word carry, the group that
  // starts one block later and so carries, and a short last group.
  const UInt128 First = UInt128::powerOfTwo(32) - UInt128(31);
  const size_t Blocks = 16 * 4 + 7;
  std::vector<double> Got(2 * Blocks + 1, -1.0);
  rngsimd::philoxFillWide(First, 0x12345678u, 0x9abcdef0u, Got.data(),
                          Blocks);
  for (size_t Block = 0; Block < Blocks; ++Block) {
    uint64_t Draws[Philox::DrawsPerBlock];
    philox::block(First + UInt128(Block), 0x12345678u, 0x9abcdef0u, Draws);
    ASSERT_EQ(Got[2 * Block], bitsToUnitOpen(Draws[0])) << "block " << Block;
    ASSERT_EQ(Got[2 * Block + 1], bitsToUnitOpen(Draws[1]))
        << "block " << Block;
  }
  EXPECT_EQ(Got[2 * Blocks], -1.0) << "overwrote past the last block";
}

/// Checks \p Golden both as raw nextBits64 words and through the fill path.
void expectGoldenWords(uint64_t Key, UInt128 Start,
                       const std::vector<uint64_t> &Golden) {
  Philox Scalar(Key);
  Scalar.seek(Start);
  for (size_t Index = 0; Index < Golden.size(); ++Index)
    EXPECT_EQ(Scalar.nextBits64(), Golden[Index]) << "word " << Index;
  Philox Batched(Key);
  Batched.seek(Start);
  std::vector<double> Filled(Golden.size());
  Batched.fillUniforms(Filled.data(), Filled.size());
  for (size_t Index = 0; Index < Golden.size(); ++Index)
    EXPECT_EQ(Filled[Index], bitsToUnitOpen(Golden[Index]))
        << "fill " << Index;
}

TEST(PhiloxWide, GoldenRawWordsAtPositionZero) {
  // The first word is the Random123 known-answer block for counter 0,
  // key 0 (6627e8d5 e169c58d bc57ac4c 9b00dbd8) read as two 64-bit draws.
  expectGoldenWords(0, UInt128(0),
                    {0xe169c58d6627e8d5ull, 0x9b00dbd8bc57ac4cull,
                     0x5cb200dbf8e4cca4ull, 0x097eff67b1a574ebull,
                     0x51c732a604faa329ull, 0x459135e4241513adull,
                     0x6a4474a6c990ef29ull, 0x6d413e049ac9134full});
}

TEST(PhiloxWide, GoldenRawWordsAtADeepPosition) {
  expectGoldenWords(0x853c49e6748fea9bull,
                    UInt128::powerOfTwo(100) + UInt128(0x1234567ull * 2 + 1),
                    {0x7091acad205eca0dull, 0x34d3dc94e7802c0aull,
                     0xfa3047d8d5888291ull, 0x059a18adaf97c49aull,
                     0xd3a0edc92160f642ull, 0xfbd7b763b36231b9ull,
                     0x0184da4a09bb8f1dull, 0xb5017f2e817743d6ull});
}

TEST(PhiloxWide, GoldenRawWordsAcrossTheTwoToTheSixtyFourCarry) {
  expectGoldenWords(0, (UInt128::powerOfTwo(64) - UInt128(3)) * UInt128(2),
                    {0x95db85f1471a1692ull, 0x346dabdbf18e7ad3ull,
                     0x57a31faa24edf6ebull, 0x10c15fb299bff053ull,
                     0xdfb9980ff3ce744dull, 0x25d142525a7caad1ull,
                     0xf08d6eaa844515e1ull, 0x83f875f00f19c053ull});
}

} // namespace
} // namespace parmonc
