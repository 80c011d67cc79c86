//===- tests/rng/PhiloxTest.cpp - Counter-based backend contract ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The production Philox backend (docs/RNG.md#philox-backend) promises the
// same stream discipline as the LCG hierarchy, realized with counter
// partitioning instead of leap multiplies. These tests pin the contract:
// determinism, O(1) seek agreeing with literal draws, batched fills
// bit-equal to scalar draws at unaligned edges, and streamFor() placing
// hierarchy coordinates at exactly e·2^ne + p·2^np + k·2^nr. Statistical
// quality is covered by the statest battery (tests/statest/BatteryTest).
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Philox.h"

#include "parmonc/rng/StreamHierarchy.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace parmonc {
namespace {

TEST(Philox, DeterministicPerKey) {
  Philox First(0x853c49e6748fea9bull);
  Philox Second(0x853c49e6748fea9bull);
  for (int Draw = 0; Draw < 100; ++Draw)
    ASSERT_EQ(First.nextBits64(), Second.nextBits64()) << "draw " << Draw;
  EXPECT_EQ(First.position(), UInt128(100));
}

TEST(Philox, KeysSelectDistinctSequences) {
  Philox KeyA(1), KeyB(2);
  int Collisions = 0;
  for (int Draw = 0; Draw < 64; ++Draw)
    Collisions += (KeyA.nextBits64() == KeyB.nextBits64());
  EXPECT_EQ(Collisions, 0);
}

TEST(Philox, SeekMatchesLiteralDrawing) {
  // seek(n) then draw must equal drawing the (n+1)-th output — including
  // odd positions that land mid-block.
  for (uint64_t Target : {0ull, 1ull, 2ull, 3ull, 17ull, 1000ull}) {
    Philox Walked(42);
    for (uint64_t Draw = 0; Draw < Target; ++Draw)
      Walked.nextBits64();
    Philox Jumped(42);
    Jumped.seek(UInt128(Target));
    EXPECT_EQ(Jumped.nextBits64(), Walked.nextBits64())
        << "position " << Target;
  }
}

TEST(Philox, SeekReachesDeepCounterPositions) {
  // Positions past 2^64 exercise the high counter limb; the generator must
  // keep producing and remain deterministic there.
  const UInt128 Deep = UInt128::powerOfTwo(100) + UInt128(5);
  Philox First(7), Second(7);
  First.seek(Deep);
  Second.seek(Deep);
  for (int Draw = 0; Draw < 16; ++Draw)
    ASSERT_EQ(First.nextBits64(), Second.nextBits64());
  EXPECT_EQ(First.position(), Deep + UInt128(16));
}

TEST(Philox, SkipIsPositionArithmetic) {
  Philox Skipped(9);
  Philox Walked(9);
  Skipped.skip(UInt128(37));
  for (int Draw = 0; Draw < 37; ++Draw)
    Walked.nextBits64();
  EXPECT_EQ(Skipped.position(), Walked.position());
  EXPECT_EQ(Skipped.nextBits64(), Walked.nextBits64());
}

TEST(Philox, FillUniformsBitEqualToScalarAtAwkwardShapes) {
  // Every (start offset, count) pair must give the same bytes as scalar
  // draws — especially odd offsets that force the one-draw block entry.
  for (uint64_t Offset : {0ull, 1ull, 2ull, 3ull}) {
    for (size_t Count : {size_t(0), size_t(1), size_t(2), size_t(3),
                         size_t(7), size_t(64), size_t(1001)}) {
      Philox Batched(1234);
      Philox Scalar(1234);
      Batched.seek(UInt128(Offset));
      Scalar.seek(UInt128(Offset));
      std::vector<double> Got(Count + 1, -1.0), Want(Count + 1, -1.0);
      Batched.fillUniforms(Got.data(), Count);
      for (size_t Index = 0; Index < Count; ++Index)
        Want[Index] = Scalar.nextUniform();
      ASSERT_EQ(0, std::memcmp(Got.data(), Want.data(),
                               (Count + 1) * sizeof(double)))
          << "offset " << Offset << " count " << Count;
      EXPECT_EQ(Batched.position(), Scalar.position());
    }
  }
}

TEST(Philox, StreamForPlacesCoordinatesByCounterPartition) {
  const LeapConfig Config;
  const StreamCoordinates Cases[] = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {3, 1000, 77},
  };
  for (const StreamCoordinates &Where : Cases) {
    const Philox Stream = Philox::streamFor(Where, Config, 0);
    const UInt128 Expected =
        (UInt128(Where.Experiment) << Config.ExperimentLog2) +
        (UInt128(Where.Processor) << Config.ProcessorLog2) +
        (UInt128(Where.Realization) << Config.RealizationLog2);
    EXPECT_EQ(Stream.position(), Expected)
        << "e=" << Where.Experiment << " p=" << Where.Processor
        << " k=" << Where.Realization;
  }
}

TEST(Philox, StreamForIntervalsAreDisjoint) {
  // Adjacent realizations own disjoint counter intervals of width 2^nr:
  // drawing a full realization's worth from one stream never enters the
  // next stream's interval, and the next stream reproduces the draw the
  // walked stream would make at that boundary.
  const LeapConfig Config;
  Philox Current = Philox::streamFor({2, 5, 9}, Config, 0);
  Philox Next = Philox::streamFor({2, 5, 10}, Config, 0);
  EXPECT_EQ(Next.position() - Current.position(),
            UInt128::powerOfTwo(Config.RealizationLog2));
  Current.skip(UInt128::powerOfTwo(Config.RealizationLog2));
  EXPECT_EQ(Current.position(), Next.position());
  EXPECT_EQ(Current.nextBits64(), Next.nextBits64());
}

TEST(Philox, StreamForHonorsTheKey) {
  const Philox KeyA = Philox::streamFor({1, 2, 3}, LeapConfig(), 0xabcdull);
  EXPECT_EQ(KeyA.key(), 0xabcdull);
  Philox SameSpot(0xabcdull);
  SameSpot.seek(KeyA.position());
  Philox Copy = KeyA;
  EXPECT_EQ(Copy.nextBits64(), SameSpot.nextBits64());
}

TEST(Philox, ReportsItsName) {
  Philox Stream;
  EXPECT_STREQ(Stream.name(), "philox");
}

TEST(Philox, BehavesAsRandomSource) {
  // Through the RandomSource seam — the polymorphic path the library's
  // consumers use.
  Philox Concrete(5);
  RandomSource &Source = Concrete;
  for (int Draw = 0; Draw < 100; ++Draw) {
    const double Value = Source.nextUniform();
    ASSERT_GT(Value, 0.0);
    ASSERT_LT(Value, 1.0);
  }
}

} // namespace
} // namespace parmonc
