//===- parmonc/rng/Baselines.h - Comparison generators --------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference generators the benches compare rnd128 against, mirroring the
/// related work the paper cites (§1: SPRNG-style leapfrog LCGs, JAPARA,
/// counter-based designs):
///
///  - SplitMix64        — fast 64-bit mixing generator (speed baseline),
///  - Xoshiro256**      — modern general-purpose generator,
///  - Mcg64             — 64-bit multiplicative congruential (Knuth M_61'),
///  - Randu             — IBM's infamous RANDU; *deliberately bad*, used as
///                        the negative control in the statistical-quality
///                        bench and tests.
///
/// All implement RandomSource so workloads and tests are generator-blind.
/// The counter-based comparator is the production `Philox` (Philox.h).
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_RNG_BASELINES_H
#define PARMONC_RNG_BASELINES_H

#include "parmonc/rng/RandomSource.h"

#include <cassert>
#include <cstdint>

namespace parmonc {

/// Steele, Lea & Flood's SplitMix64. One 64-bit Weyl step plus a finalizer;
/// period 2^64.
class SplitMix64 final : public RandomSource {
public:
  explicit SplitMix64(uint64_t Seed = 0x9e3779b97f4a7c15ull) : State(Seed) {}

  uint64_t nextBits64() override {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Mixed = State;
    Mixed = (Mixed ^ (Mixed >> 30)) * 0xbf58476d1ce4e5b9ull;
    Mixed = (Mixed ^ (Mixed >> 27)) * 0x94d049bb133111ebull;
    return Mixed ^ (Mixed >> 31);
  }

  double nextUniform() override { return bitsToUnitOpen(nextBits64()); }

  const char *name() const override { return "splitmix64"; }

private:
  uint64_t State;
};

/// Blackman & Vigna's xoshiro256**; period 2^256 - 1.
class Xoshiro256StarStar final : public RandomSource {
public:
  /// Seeds the four state words from a SplitMix64 stream, the seeding the
  /// authors recommend (the all-zero state is thereby unreachable).
  explicit Xoshiro256StarStar(uint64_t Seed = 1);

  uint64_t nextBits64() override {
    const uint64_t Scrambled = rotateLeft(State[1] * 5, 7) * 9;
    const uint64_t Shifted = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= Shifted;
    State[3] = rotateLeft(State[3], 45);
    return Scrambled;
  }

  double nextUniform() override { return bitsToUnitOpen(nextBits64()); }

  const char *name() const override { return "xoshiro256**"; }

private:
  static uint64_t rotateLeft(uint64_t Value, unsigned Amount) {
    return (Value << Amount) | (Value >> (64 - Amount));
  }

  uint64_t State[4];
};

/// 64-bit multiplicative congruential generator modulo 2^64 with the
/// spectral-test-selected multiplier from Steele & Vigna's "Computationally
/// easy, spectrally good multipliers" (2022). Period 2^62. The "one machine
/// word" classical design, i.e. the paper's generator family at r = 64.
class Mcg64 final : public RandomSource {
public:
  explicit Mcg64(uint64_t Seed = 1) : State(Seed | 1) {}

  uint64_t nextBits64() override {
    State *= 0xd1342543de82ef95ull; // ≡ 5 (mod 8): maximal period 2^62.
    return State;
  }

  double nextUniform() override { return bitsToUnitOpen(nextBits64()); }

  const char *name() const override { return "mcg64"; }

private:
  uint64_t State;
};

/// IBM RANDU: u <- 65539*u (mod 2^31). Triples fall on 15 planes — the
/// canonical example of a generator that passes 1-D uniformity but fails
/// multidimensional tests. Kept as the negative control.
class Randu final : public RandomSource {
public:
  explicit Randu(uint32_t Seed = 1) : State(Seed | 1) {
    assert((Seed & 1u) != 0 && "RANDU state must be odd");
  }

  /// One RANDU step; the state stays in (0, 2^31).
  uint32_t nextRaw() {
    State = (65539u * State) & 0x7fffffffu;
    return State;
  }

  /// Concatenates two 31-bit outputs and pads; preserves the generator's
  /// (bad) structure in the high bits where the tests look.
  uint64_t nextBits64() override {
    uint64_t High = uint64_t(nextRaw()) << 33;
    uint64_t Low = uint64_t(nextRaw()) << 2;
    return High | Low;
  }

  double nextUniform() override {
    // The classical way RANDU was consumed: u * 2^-31, one output per call.
    return (double(nextRaw()) + 0.5) * 0x1p-31;
  }

  const char *name() const override { return "randu"; }

private:
  uint32_t State;
};

} // namespace parmonc

#endif // PARMONC_RNG_BASELINES_H
