//===- rng/Baselines.cpp - Comparison generators --------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Baselines.h"

namespace parmonc {

Xoshiro256StarStar::Xoshiro256StarStar(uint64_t Seed) {
  SplitMix64 Seeder(Seed);
  for (uint64_t &Word : State)
    Word = Seeder.nextBits64();
}

} // namespace parmonc
