//===- bench/bench_rng_quality.cpp - Statistical quality table ------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// §2.4 claims the generator was "verified ... using rigorous statistical
// testing". This bench regenerates that evidence as a table: battery
// p-values for rnd128 (from the sequence head and from a deep hierarchy
// stream) against the modern baselines and the two negative controls
// (RANDU and the low bits of the r=40 LCG). PASS at alpha = 1e-4.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Baselines.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/LcgPow2.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/statest/Tests.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

using namespace parmonc;

namespace {

/// The historical misuse baseline: low 16 bits of the r=40 LCG.
class LowBitsOfLcg40 final : public RandomSource {
public:
  double nextUniform() override {
    return (double(Generator.nextRaw().low() & 0xffffu) + 0.5) / 65536.0;
  }
  uint64_t nextBits64() override { return Generator.nextRaw().low() << 48; }
  const char *name() const override { return "lcg40-lowbits"; }

private:
  LcgPow2 Generator = LcgPow2::makeClassic40();
};

std::unique_ptr<RandomSource> makeDeepLcg128() {
  StreamHierarchy Hierarchy{LeapTable()};
  return std::make_unique<Lcg128>(Hierarchy.makeStream({9, 77777, 123456}));
}

} // namespace

int main() {
  constexpr int64_t Sample = 1 << 20;
  constexpr double Alpha = 1e-4;

  struct Row {
    const char *Label;
    std::function<std::unique_ptr<RandomSource>()> Make;
  };
  const std::vector<Row> Generators = {
      {"lcg128 (rnd128)", [] { return std::make_unique<Lcg128>(); }},
      {"lcg128 deep stream", [] { return makeDeepLcg128(); }},
      {"lcg40 top bits",
       [] {
         return std::make_unique<LcgPow2>(LcgPow2::makeClassic40());
       }},
      {"splitmix64", [] { return std::make_unique<SplitMix64>(7); }},
      {"xoshiro256**",
       [] { return std::make_unique<Xoshiro256StarStar>(7); }},
      {"philox", [] { return std::make_unique<Philox>(7); }},
      {"mcg64", [] { return std::make_unique<Mcg64>(7); }},
      {"randu (control)", [] { return std::make_unique<Randu>(1); }},
      {"lcg40 low bits (control)",
       [] { return std::make_unique<LowBitsOfLcg40>(); }},
  };

  std::printf("=== RNG statistical quality: battery p-values "
              "(n = 2^20 per test, PASS at alpha = %g) ===\n\n",
              Alpha);

  bool PrintedHeader = false;
  for (const Row &Generator : Generators) {
    std::unique_ptr<RandomSource> Source = Generator.Make();
    std::vector<TestResult> Results = runBattery(*Source, Sample);

    if (!PrintedHeader) {
      std::printf("%-26s", "generator");
      for (const TestResult &Result : Results)
        std::printf(" %-10.10s", Result.Name.c_str());
      std::printf(" %s\n", "verdict");
      PrintedHeader = true;
    }

    std::printf("%-26s", Generator.Label);
    for (const TestResult &Result : Results)
      std::printf(" %-10.2g", Result.PValue);
    std::printf(" %s\n", allPass(Results, Alpha) ? "PASS" : "FAIL");
  }

  std::printf("\n(rnd128 and the modern baselines must PASS; the two "
              "controls must FAIL — RANDU on the multidimensional tests, "
              "the LCG low bits on nearly everything)\n");
  return 0;
}
