//===- tests/rng/BaselinesTest.cpp - Comparison generator tests -----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Baselines.h"
#include "parmonc/rng/Philox.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

namespace parmonc {
namespace {

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference outputs for seed 1234567 from the public-domain reference
  // implementation (Vigna).
  SplitMix64 Generator(1234567);
  EXPECT_EQ(Generator.nextBits64(), 6457827717110365317ull);
  EXPECT_EQ(Generator.nextBits64(), 3203168211198807973ull);
  EXPECT_EQ(Generator.nextBits64(), 9817491932198370423ull);
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 A(1), B(2);
  EXPECT_NE(A.nextBits64(), B.nextBits64());
}

TEST(Xoshiro256StarStar, ProducesDistinctConsecutiveOutputs) {
  Xoshiro256StarStar Generator(7);
  uint64_t Previous = Generator.nextBits64();
  for (int Step = 0; Step < 1000; ++Step) {
    uint64_t Current = Generator.nextBits64();
    EXPECT_NE(Current, Previous);
    Previous = Current;
  }
}

TEST(Randu, MatchesClassicRecurrence) {
  // RANDU with seed 1: 65539, 393225, 1769499, ...
  Randu Generator(1);
  EXPECT_EQ(Generator.nextRaw(), 65539u);
  EXPECT_EQ(Generator.nextRaw(), 393225u);
  EXPECT_EQ(Generator.nextRaw(), 1769499u);
}

TEST(Randu, ExhibitsThePlanarDefect) {
  // Marsaglia's identity: x_{k+2} = 6 x_{k+1} - 9 x_k (mod 2^31). This is
  // the structure that makes RANDU fail 3-D tests; assert it holds so the
  // negative control really is defective.
  Randu Generator(1);
  uint32_t X0 = Generator.nextRaw();
  uint32_t X1 = Generator.nextRaw();
  for (int Step = 0; Step < 100; ++Step) {
    uint32_t X2 = Generator.nextRaw();
    uint64_t Predicted =
        (6ull * X1 + 9ull * (0x80000000ull - X0) * 1ull) & 0x7fffffffull;
    EXPECT_EQ(X2, uint32_t(Predicted)) << "step " << Step;
    X0 = X1;
    X1 = X2;
  }
}

// All baselines, and the production counter-based generator they are
// compared against, must honor the RandomSource contract.
class RandomSourceContract
    : public ::testing::TestWithParam<const char *> {
protected:
  static std::unique_ptr<RandomSource> makeNamed(const char *Name) {
    std::string Id(Name);
    if (Id == "splitmix64")
      return std::make_unique<SplitMix64>(123);
    if (Id == "xoshiro256**")
      return std::make_unique<Xoshiro256StarStar>(123);
    if (Id == "philox")
      return std::make_unique<Philox>(123);
    if (Id == "mcg64")
      return std::make_unique<Mcg64>(123);
    if (Id == "randu")
      return std::make_unique<Randu>(123);
    return nullptr;
  }
};

TEST_P(RandomSourceContract, UniformsStayInOpenInterval) {
  auto Generator = makeNamed(GetParam());
  ASSERT_NE(Generator, nullptr);
  for (int Step = 0; Step < 100000; ++Step) {
    double Value = Generator->nextUniform();
    ASSERT_GT(Value, 0.0);
    ASSERT_LT(Value, 1.0);
  }
}

TEST_P(RandomSourceContract, MeanIsNearHalf) {
  auto Generator = makeNamed(GetParam());
  ASSERT_NE(Generator, nullptr);
  double Sum = 0.0;
  const int Count = 200000;
  for (int Step = 0; Step < Count; ++Step)
    Sum += Generator->nextUniform();
  EXPECT_NEAR(Sum / Count, 0.5, 5e-3);
}

TEST_P(RandomSourceContract, NameMatchesParameter) {
  auto Generator = makeNamed(GetParam());
  ASSERT_NE(Generator, nullptr);
  EXPECT_STREQ(Generator->name(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, RandomSourceContract,
                         ::testing::Values("splitmix64", "xoshiro256**",
                                           "philox", "mcg64",
                                           "randu"));

} // namespace
} // namespace parmonc
