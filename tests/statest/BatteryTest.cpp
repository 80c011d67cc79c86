//===- tests/statest/BatteryTest.cpp - Test battery on real generators ----===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The battery's own validation: the paper's generator must pass every
// test, and the deliberately defective negative controls must fail on the
// tests that target their specific structure. These are deterministic
// checks — our generators are pure functions of their seeds.
//
//===----------------------------------------------------------------------===//

#include "parmonc/statest/Tests.h"

#include "parmonc/rng/Baselines.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/LcgPow2.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/StreamHierarchy.h"

#include <gtest/gtest.h>

// mclint: allow-file(R6): these tests exercise the raw generator
// deliberately, validating the stream algebra itself.

#include <algorithm>

namespace parmonc {
namespace {

constexpr int64_t Sample = 1 << 19;

TEST(Battery, Lcg128PassesEveryTest) {
  Lcg128 Generator;
  std::vector<TestResult> Results = runBattery(Generator, Sample);
  ASSERT_EQ(Results.size(), 12u);
  for (const TestResult &Result : Results)
    EXPECT_TRUE(Result.passesAt(1e-4))
        << Result.Name << " p=" << Result.PValue;
  EXPECT_TRUE(allPass(Results));
}

TEST(Battery, Lcg128PassesFromADeepStream) {
  // Statistical quality must hold inside the hierarchy, not only from u0.
  StreamHierarchy Hierarchy{LeapTable()};
  Lcg128 Generator = Hierarchy.makeStream({5, 1000, 12345});
  std::vector<TestResult> Results = runBattery(Generator, Sample);
  EXPECT_TRUE(allPass(Results));
}

TEST(Battery, ProductionPhiloxPassesEveryTest) {
  // The counter-based production backend (docs/RNG.md#philox-backend) must
  // clear the full battery like the LCG does. The lattice-sensitive tests
  // (serial pairs/triples, birthday spacings) stand in for the spectral
  // test, which measures LCG lattice structure and does not apply to a
  // counter-based bijection.
  Philox Generator;
  std::vector<TestResult> Results = runBattery(Generator, Sample);
  ASSERT_EQ(Results.size(), 12u);
  for (const TestResult &Result : Results)
    EXPECT_TRUE(Result.passesAt(1e-4))
        << Result.Name << " p=" << Result.PValue;
  EXPECT_TRUE(allPass(Results));
}

TEST(Battery, ProductionPhiloxPassesInsideTheHierarchyPartition) {
  // Quality must hold from a hierarchy stream's counter interval, not only
  // from position 0 — the analogue of the deep-stream LCG check above.
  Philox Generator = Philox::streamFor({5, 1000, 12345});
  std::vector<TestResult> Results = runBattery(Generator, Sample);
  EXPECT_TRUE(allPass(Results));
}

TEST(Battery, ProductionPhiloxPassesAtDeepCounterPositions) {
  // Past 2^64 the high counter limb drives the block input; the battery
  // must not notice the limb crossing.
  Philox Generator;
  Generator.seek(UInt128::powerOfTwo(64) - UInt128(Sample / 2));
  std::vector<TestResult> Results = runBattery(Generator, Sample);
  EXPECT_TRUE(allPass(Results));
}

TEST(Battery, ModernBaselinesPass) {
  {
    Xoshiro256StarStar Generator(42);
    EXPECT_TRUE(allPass(runBattery(Generator, Sample)));
  }
  {
    SplitMix64 Generator(42);
    EXPECT_TRUE(allPass(runBattery(Generator, Sample)));
  }
}

TEST(Battery, RanduFailsSerialTriples) {
  // RANDU's triples lie on 15 planes: the 3-D serial test must reject it
  // overwhelmingly.
  Randu Generator(1);
  TestResult Result = serialTriplesTest(Generator, Sample / 3);
  EXPECT_LT(Result.PValue, 1e-12) << "statistic " << Result.Statistic;
}

TEST(Battery, RanduStillPassesOneDimensionalUniformity) {
  // The classical trap: RANDU looks fine in 1-D. This is why a battery is
  // needed at all.
  Randu Generator(1);
  TestResult Result = chiSquareUniformityTest(Generator, Sample);
  EXPECT_GT(Result.PValue, 1e-4);
}

TEST(Battery, RanduFailsBirthdaySpacings) {
  Randu Generator(1);
  TestResult Result = birthdaySpacingsTest(Generator);
  EXPECT_LT(Result.PValue, 1e-6) << "duplicates " << Result.Statistic;
}

TEST(Battery, Lcg40PeriodIsExhaustible) {
  // The paper's actual argument against r=40 (§2.2): its period 2^38 is
  // comparable to a single realization's appetite. Demonstrate exhaustion
  // directly: leaping 2^38 steps returns the generator to its start, so a
  // consumer of more than 2^38 numbers replays the sequence.
  LcgPow2 Generator = LcgPow2::makeClassic40();
  const UInt128 Start = Generator.state();
  Generator.skip(UInt128::powerOfTwo(38));
  EXPECT_EQ(Generator.state(), Start);
  // The 128-bit generator does not wrap at any feasible leap.
  Lcg128 Wide;
  const UInt128 WideStart = Wide.state();
  Wide.skip(UInt128::powerOfTwo(64));
  EXPECT_NE(Wide.state(), WideStart);
  Wide.setState(WideStart);
  Wide.skip(UInt128::powerOfTwo(126)); // the full period does wrap
  EXPECT_EQ(Wide.state(), WideStart);
}

TEST(Battery, Lcg40LowBitsFailUniformity) {
  // The classical power-of-two-modulus trap: the *low* state bits have
  // tiny periods (bit b cycles with period <= 2^(b-2) beyond the fixed
  // ones). A consumer using `u % k` gets these bits; the battery must
  // reject them overwhelmingly.
  class LowBitsOfLcg40 final : public RandomSource {
  public:
    double nextUniform() override {
      // Low 16 bits of the state, scaled: a naive (and wrong) way to use
      // the generator that real code historically fell into.
      return (double(Generator.nextRaw().low() & 0xffffu) + 0.5) / 65536.0;
    }
    uint64_t nextBits64() override {
      return Generator.nextRaw().low() << 48;
    }
    const char *name() const override { return "lcg40-lowbits"; }

  private:
    LcgPow2 Generator = LcgPow2::makeClassic40();
  };
  LowBitsOfLcg40 Generator;
  EXPECT_LT(serialPairsTest(Generator, Sample / 4).PValue, 1e-12);
}

TEST(Battery, Lcg40PassesCoarseUniformity) {
  LcgPow2 Generator = LcgPow2::makeClassic40();
  TestResult Result = chiSquareUniformityTest(Generator, Sample);
  EXPECT_GT(Result.PValue, 1e-4);
}

TEST(Battery, ConstantSourceFailsEverythingChiSquare) {
  // A pathological "generator" returning a constant: sanity check that the
  // battery cannot be fooled by degenerate inputs.
  class ConstantSource final : public RandomSource {
  public:
    double nextUniform() override { return 0.123456; }
    uint64_t nextBits64() override { return 0x1f9add3739635f3bull; }
    const char *name() const override { return "constant"; }
  };
  ConstantSource Generator;
  EXPECT_LT(chiSquareUniformityTest(Generator, 10000).PValue, 1e-12);
  EXPECT_LT(kolmogorovSmirnovTest(Generator, 10000).PValue, 1e-12);
  EXPECT_LT(runsTest(Generator, 10000).PValue, 1e-12);
}

TEST(Battery, ResultsCarryNamesAndStatistics) {
  Lcg128 Generator;
  std::vector<TestResult> Results = runBattery(Generator, 1 << 16);
  for (const TestResult &Result : Results) {
    EXPECT_FALSE(Result.Name.empty());
    EXPECT_GE(Result.PValue, 0.0);
    EXPECT_LE(Result.PValue, 1.0);
  }
}

TEST(Battery, PassesAtHonorsAlpha) {
  TestResult Borderline{"x", 0.0, 0.01};
  EXPECT_TRUE(Borderline.passesAt(1e-4));
  EXPECT_TRUE(Borderline.passesAt(0.01));
  EXPECT_FALSE(Borderline.passesAt(0.05));
}

// p-value calibration: under the null, p-values must be roughly uniform.
// Run one test on many disjoint lcg128 streams and check that the
// fraction below 0.1 is near 10%.
TEST(Battery, PValuesAreCalibratedUnderTheNull) {
  StreamHierarchy Hierarchy{LeapTable()};
  int Below10Percent = 0;
  const int Repetitions = 100;
  for (int Repetition = 0; Repetition < Repetitions; ++Repetition) {
    Lcg128 Generator =
        Hierarchy.makeStream({1, uint64_t(Repetition), 0});
    TestResult Result = chiSquareUniformityTest(Generator, 1 << 14);
    Below10Percent += Result.PValue < 0.1;
  }
  // Binomial(100, 0.1): mean 10, sd 3; allow 5 sigma.
  EXPECT_GE(Below10Percent, 0);
  EXPECT_LE(Below10Percent, 25);
}

// Parameterized: every individual test must pass on lcg128 at several
// sample sizes (catches size-dependent bugs in the statistics).
class BatterySizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatterySizeSweep, Lcg128PassesAtThisSize) {
  const int64_t Size = int64_t(1) << GetParam();
  Lcg128 Generator;
  EXPECT_TRUE(chiSquareUniformityTest(Generator, Size).passesAt());
  EXPECT_TRUE(serialPairsTest(Generator, Size / 2).passesAt());
  EXPECT_TRUE(runsTest(Generator, Size).passesAt());
  EXPECT_TRUE(autocorrelationTest(Generator, Size).passesAt());
  EXPECT_TRUE(maximumOfTTest(Generator, Size / 5).passesAt());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatterySizeSweep,
                         ::testing::Values(16, 18, 20));

TEST(Battery, PokerPassesOnLcg128) {
  Lcg128 Generator;
  TestResult Result = pokerTest(Generator, 200000);
  EXPECT_TRUE(Result.passesAt()) << "p=" << Result.PValue;
}

TEST(Battery, PokerProbabilitiesAreClassical) {
  // Poker with base-10 five-digit hands: P(all distinct) = 0.3024,
  // P(4 distinct / one pair) = 0.504. Check empirically at scale.
  Lcg128 Generator;
  const int64_t Hands = 200000;
  int64_t Distinct5 = 0, Distinct4 = 0;
  for (int64_t Hand = 0; Hand < Hands; ++Hand) {
    bool Seen[10] = {};
    int Distinct = 0;
    for (int Draw = 0; Draw < 5; ++Draw) {
      int Digit = std::min(int(Generator.nextUniform() * 10), 9);
      if (!Seen[Digit]) {
        Seen[Digit] = true;
        ++Distinct;
      }
    }
    Distinct5 += Distinct == 5;
    Distinct4 += Distinct == 4;
  }
  EXPECT_NEAR(double(Distinct5) / double(Hands), 0.3024, 0.005);
  EXPECT_NEAR(double(Distinct4) / double(Hands), 0.5040, 0.005);
}

TEST(Battery, PokerFailsOnConstantDigits) {
  class StuckDigit final : public RandomSource {
  public:
    double nextUniform() override { return 0.35; }
    uint64_t nextBits64() override { return 0x5999999999999999ull; }
    const char *name() const override { return "stuck"; }
  };
  StuckDigit Generator;
  EXPECT_LT(pokerTest(Generator, 10000).PValue, 1e-12);
}

TEST(Battery, CouponCollectorPassesOnLcg128) {
  Lcg128 Generator;
  TestResult Result = couponCollectorTest(Generator, 50000);
  EXPECT_TRUE(Result.passesAt()) << "p=" << Result.PValue;
}

TEST(Battery, CouponCollectorMinimumSegmentLengthIsBase) {
  // A perfectly rotating "generator" collects all 5 digits in exactly 5
  // draws every time — wildly non-random, must fail.
  class Rotor final : public RandomSource {
  public:
    double nextUniform() override {
      Step = (Step + 1) % 5;
      return (double(Step) + 0.5) / 5.0;
    }
    uint64_t nextBits64() override {
      return uint64_t(nextUniform() * 9007199254740992.0) << 11;
    }
    const char *name() const override { return "rotor"; }

  private:
    int Step = 4;
  };
  Rotor Generator;
  EXPECT_LT(couponCollectorTest(Generator, 50000).PValue, 1e-12);
}

} // namespace
} // namespace parmonc
