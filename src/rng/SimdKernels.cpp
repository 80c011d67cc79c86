//===- rng/SimdKernels.cpp - Wide-interleave batch kernels ----------------===//
//
// Part of the PARMONC reproduction library.
//
// This is the ONLY translation unit compiled with the instruction-set
// flags chosen by the PARMONC_SIMD CMake option. Everything callable from
// arbitrary hosts (backendName, runtimeSupportsCompiledBackend) lives in
// SimdDispatch.cpp instead; the single symbol exported from here besides
// the kernels is `CompiledBackend`, whose initializer is a constant — no
// code from this TU executes just to *read* which backend was built.
//
// All three backends share one decomposition of the recurrence step
// u <- u * M (mod 2^128) over 64-bit limbs (u = Hi·2^64 + Lo,
// M = mH·2^64 + mL):
//
//   newLo = lo64(Lo·mL)
//   newHi = hi64(Lo·mL) + lo64(Lo·mH) + lo64(Hi·mL)
//
// hi64/lo64 of a 64x64 product are in turn decomposed over 32-bit halves
// so every vector product fits the 32x32->64 multiply (vpmuludq); the
// carry discipline is the classic no-overflow mulhi schoolbook (every
// partial sum stays < 2^64). See docs/RNG.md#kernel-paths for the proof
// sketch and the bit-equality contract these kernels are tested against.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/SimdKernels.h"

#include "parmonc/rng/Philox.h"
#include "parmonc/rng/RandomSource.h"

#include <algorithm>
#include <array>

#if !defined(PARMONC_SIMD_FORCE_SCALAR) && defined(__AVX512F__) &&             \
    defined(__AVX512DQ__)
#define PARMONC_SIMD_BACKEND_AVX512 1
#elif !defined(PARMONC_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define PARMONC_SIMD_BACKEND_AVX2 1
#else
#define PARMONC_SIMD_BACKEND_SCALAR 1
#endif

#if defined(PARMONC_SIMD_BACKEND_AVX512) || defined(PARMONC_SIMD_BACKEND_AVX2)
#include <immintrin.h>
#endif

namespace parmonc {
namespace rngsimd {

const Backend CompiledBackend =
#if defined(PARMONC_SIMD_BACKEND_AVX512)
    Backend::Avx512;
#elif defined(PARMONC_SIMD_BACKEND_AVX2)
    Backend::Avx2;
#else
    Backend::Scalar;
#endif

namespace {

/// Lane starts for a \p Width-wide interleave — Lane[j] = State·M^(j+1) —
/// plus the per-iteration step M^Width. Scalar UInt128 setup, amortized
/// over the whole batch. \p Width may exceed the exported LaneCount: the
/// interleave width is internal to each kernel (outputs are emitted in
/// sequence order whatever the width), and the AVX-512 batch kernels run
/// extra register groups to hide vector-multiply latency.
template <size_t Width> struct LaneSetup {
  std::array<UInt128, Width> Lane;
  UInt128 Step;
};

template <size_t Width>
LaneSetup<Width> makeLaneSetup(UInt128 State, UInt128 Multiplier) {
  static_assert(Width >= 8 && (Width & (Width - 1)) == 0,
                "lane widths are powers of two");
  LaneSetup<Width> Setup;
  const UInt128 Squared = Multiplier * Multiplier;
  const UInt128 Fourth = Squared * Squared;
  // Tree-shaped lane derivation: critical path of log2(Width) serial
  // multiplies instead of Width.
  Setup.Lane[0] = State * Multiplier;
  Setup.Lane[1] = State * Squared;
  Setup.Lane[2] = Setup.Lane[0] * Squared;
  Setup.Lane[3] = State * Fourth;
  Setup.Lane[4] = Setup.Lane[0] * Fourth;
  Setup.Lane[5] = Setup.Lane[1] * Fourth;
  Setup.Lane[6] = Setup.Lane[2] * Fourth;
  Setup.Lane[7] = Setup.Lane[3] * Fourth;
  UInt128 Power = Fourth * Fourth; // M^8
  for (size_t Filled = 8; Filled < Width; Filled *= 2) {
    for (size_t J = 0; J < Filled; ++J)
      Setup.Lane[Filled + J] = Setup.Lane[J] * Power;
    Power = Power * Power;
  }
  Setup.Step = Power;
  return Setup;
}

/// Serial tail shared by every backend: runs the plain recurrence for the
/// draws past the last full lane group.
inline void serialTail(UInt128 &State, UInt128 Multiplier, double *Out,
                       size_t Index, size_t Count) {
  for (; Index < Count; ++Index) {
    State = State * Multiplier;
    Out[Index] = bitsToUnitOpen(State.high());
  }
}

inline void serialTailBits64(UInt128 &State, UInt128 Multiplier,
                             uint64_t *Out, size_t Index, size_t Count) {
  for (; Index < Count; ++Index) {
    State = State * Multiplier;
    Out[Index] = State.high();
  }
}

/// Philox blocks per wide group: sixteen independent counters, split into
/// register groups by each vector backend.
constexpr size_t PhiloxGroupBlocks = 16;

/// Philox blocks through the shared scalar block function: the SCALAR
/// backend's whole kernel and the vector backends' carry groups.
inline void philoxScalarBlocks(UInt128 Block, uint32_t KeyLo, uint32_t KeyHi,
                               double *Out, size_t Count) {
  uint64_t Draws[Philox::DrawsPerBlock];
  for (size_t Index = 0; Index < Count; ++Index) {
    philox::block(Block + UInt128(Index), KeyLo, KeyHi, Draws);
    Out[2 * Index] = bitsToUnitOpen(Draws[0]);
    Out[2 * Index + 1] = bitsToUnitOpen(Draws[1]);
  }
}

/// The vector backends' Philox group loop. \p Group(Block, Out) writes the
/// draws of the sixteen blocks Block..Block+15 to Out[0..32), holding the
/// low counter word as lane offsets from a broadcast base; a group whose
/// low word would carry into the next one runs the scalar blocks instead.
/// A short last group goes through a scratch buffer.
template <typename GroupFn>
inline void philoxFillGroups(UInt128 Block, uint32_t KeyLo, uint32_t KeyHi,
                             double *Out, size_t BlockCount, GroupFn Group) {
  constexpr uint32_t LastCarryFree = ~uint32_t(0) - (PhiloxGroupBlocks - 1);
  alignas(64) double Scratch[2 * PhiloxGroupBlocks];
  for (size_t Done = 0; Done < BlockCount;) {
    const size_t Take = std::min(PhiloxGroupBlocks, BlockCount - Done);
    double *Dest = Out + 2 * Done;
    if (uint32_t(Block.low()) > LastCarryFree) {
      philoxScalarBlocks(Block, KeyLo, KeyHi, Dest, Take);
    } else if (Take == PhiloxGroupBlocks) {
      Group(Block, Dest);
    } else {
      Group(Block, Scratch);
      std::copy(Scratch, Scratch + 2 * Take, Dest);
    }
    Block += UInt128(Take);
    Done += Take;
  }
}

} // namespace

#if defined(PARMONC_SIMD_BACKEND_AVX2)

namespace {

constexpr uint64_t Mask32 = 0xffffffffu;

/// A multiplier broadcast into the four 32-bit halves vpmuludq needs.
struct VecMultiplier {
  __m256i LoLo; ///< mL & 0xffffffff in every 64-bit lane
  __m256i LoHi; ///< mL >> 32
  __m256i HiLo; ///< mH & 0xffffffff
  __m256i HiHi; ///< mH >> 32
};

inline VecMultiplier broadcastMultiplier(UInt128 M) {
  return {_mm256_set1_epi64x(static_cast<long long>(M.low() & Mask32)),
          _mm256_set1_epi64x(static_cast<long long>(M.low() >> 32)),
          _mm256_set1_epi64x(static_cast<long long>(M.high() & Mask32)),
          _mm256_set1_epi64x(static_cast<long long>(M.high() >> 32))};
}

/// One recurrence step for four lanes held as {Lo, Hi} 64-bit limb
/// vectors: {Lo, Hi} <- {Lo, Hi}·M (mod 2^128). Ten vpmuludq per call —
/// the carry chains follow the no-overflow mulhi schoolbook, so every
/// 64-bit partial sum is exact.
inline void step4(__m256i &Lo, __m256i &Hi, const VecMultiplier &M) {
  const __m256i MaskV = _mm256_set1_epi64x(static_cast<long long>(Mask32));
  const __m256i U1 = _mm256_srli_epi64(Lo, 32);
  const __m256i H1 = _mm256_srli_epi64(Hi, 32);
  // hi64/lo64 of Lo·mL.
  const __m256i T = _mm256_mul_epu32(Lo, M.LoLo);
  const __m256i T1 =
      _mm256_add_epi64(_mm256_mul_epu32(U1, M.LoLo), _mm256_srli_epi64(T, 32));
  const __m256i T2 =
      _mm256_add_epi64(_mm256_mul_epu32(Lo, M.LoHi), _mm256_and_si256(T1, MaskV));
  const __m256i HiWide = _mm256_add_epi64(
      _mm256_mul_epu32(U1, M.LoHi),
      _mm256_add_epi64(_mm256_srli_epi64(T1, 32), _mm256_srli_epi64(T2, 32)));
  const __m256i LoWide =
      _mm256_or_si256(_mm256_slli_epi64(T2, 32), _mm256_and_si256(T, MaskV));
  // Cross terms, low 64 bits only: lo64(Lo·mH) + lo64(Hi·mL).
  const __m256i Cross1 = _mm256_add_epi64(
      _mm256_mul_epu32(Lo, M.HiLo),
      _mm256_slli_epi64(_mm256_add_epi64(_mm256_mul_epu32(Lo, M.HiHi),
                                         _mm256_mul_epu32(U1, M.HiLo)),
                        32));
  const __m256i Cross2 = _mm256_add_epi64(
      _mm256_mul_epu32(Hi, M.LoLo),
      _mm256_slli_epi64(_mm256_add_epi64(_mm256_mul_epu32(Hi, M.LoHi),
                                         _mm256_mul_epu32(H1, M.LoLo)),
                        32));
  Hi = _mm256_add_epi64(HiWide, _mm256_add_epi64(Cross1, Cross2));
  Lo = LoWide;
}

/// bitsToUnitOpen over four lanes, bit-exact against the scalar mapping:
/// v = Hi >> 12 < 2^52 converts exactly via the 2^52 exponent-bias trick,
/// then the identical (v + 0.5)·2^-52 IEEE operations run per lane.
inline __m256d toUnitOpen4(__m256i Hi) {
  const __m256i ExpBits = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256i V = _mm256_or_si256(_mm256_srli_epi64(Hi, 12), ExpBits);
  const __m256d D =
      _mm256_sub_pd(_mm256_castsi256_pd(V), _mm256_set1_pd(0x1p52));
  return _mm256_mul_pd(_mm256_add_pd(D, _mm256_set1_pd(0.5)),
                       _mm256_set1_pd(0x1p-52));
}

inline __m256i loadLow4(const UInt128 *Lanes, size_t Base) {
  return _mm256_set_epi64x(static_cast<long long>(Lanes[Base + 3].low()),
                           static_cast<long long>(Lanes[Base + 2].low()),
                           static_cast<long long>(Lanes[Base + 1].low()),
                           static_cast<long long>(Lanes[Base + 0].low()));
}

inline __m256i loadHigh4(const UInt128 *Lanes, size_t Base) {
  return _mm256_set_epi64x(static_cast<long long>(Lanes[Base + 3].high()),
                           static_cast<long long>(Lanes[Base + 2].high()),
                           static_cast<long long>(Lanes[Base + 1].high()),
                           static_cast<long long>(Lanes[Base + 0].high()));
}

} // namespace

void fillBatchWide(UInt128 &State, UInt128 Multiplier, double *Out,
                   size_t Count) {
  size_t Index = 0;
  if (Count >= LaneCount) {
    const LaneSetup<LaneCount> Setup =
        makeLaneSetup<LaneCount>(State, Multiplier);
    const VecMultiplier Step = broadcastMultiplier(Setup.Step);
    // Four independent register groups: one group's step4 depends on its
    // own previous step4, so a lone group is latency-bound; four in
    // flight keep the vector multipliers saturated.
    __m256i Lo0 = loadLow4(Setup.Lane.data(), 0), Hi0 = loadHigh4(Setup.Lane.data(), 0);
    __m256i Lo1 = loadLow4(Setup.Lane.data(), 4), Hi1 = loadHigh4(Setup.Lane.data(), 4);
    __m256i Lo2 = loadLow4(Setup.Lane.data(), 8), Hi2 = loadHigh4(Setup.Lane.data(), 8);
    __m256i Lo3 = loadLow4(Setup.Lane.data(), 12), Hi3 = loadHigh4(Setup.Lane.data(), 12);
    for (;;) {
      _mm256_storeu_pd(Out + Index, toUnitOpen4(Hi0));
      _mm256_storeu_pd(Out + Index + 4, toUnitOpen4(Hi1));
      _mm256_storeu_pd(Out + Index + 8, toUnitOpen4(Hi2));
      _mm256_storeu_pd(Out + Index + 12, toUnitOpen4(Hi3));
      Index += LaneCount;
      if (Index + LaneCount > Count)
        break;
      step4(Lo0, Hi0, Step);
      step4(Lo1, Hi1, Step);
      step4(Lo2, Hi2, Step);
      step4(Lo3, Hi3, Step);
    }
    // Lane 15's last emitted value is u_{k+Index}.
    State = UInt128(static_cast<uint64_t>(_mm256_extract_epi64(Hi3, 3)),
                    static_cast<uint64_t>(_mm256_extract_epi64(Lo3, 3)));
  }
  serialTail(State, Multiplier, Out, Index, Count);
}

void fillBatchBits64Wide(UInt128 &State, UInt128 Multiplier, uint64_t *Out,
                         size_t Count) {
  size_t Index = 0;
  if (Count >= LaneCount) {
    const LaneSetup<LaneCount> Setup =
        makeLaneSetup<LaneCount>(State, Multiplier);
    const VecMultiplier Step = broadcastMultiplier(Setup.Step);
    __m256i Lo0 = loadLow4(Setup.Lane.data(), 0), Hi0 = loadHigh4(Setup.Lane.data(), 0);
    __m256i Lo1 = loadLow4(Setup.Lane.data(), 4), Hi1 = loadHigh4(Setup.Lane.data(), 4);
    __m256i Lo2 = loadLow4(Setup.Lane.data(), 8), Hi2 = loadHigh4(Setup.Lane.data(), 8);
    __m256i Lo3 = loadLow4(Setup.Lane.data(), 12), Hi3 = loadHigh4(Setup.Lane.data(), 12);
    for (;;) {
      _mm256_storeu_si256(reinterpret_cast<__m256i *>(Out + Index), Hi0);
      _mm256_storeu_si256(reinterpret_cast<__m256i *>(Out + Index + 4), Hi1);
      _mm256_storeu_si256(reinterpret_cast<__m256i *>(Out + Index + 8), Hi2);
      _mm256_storeu_si256(reinterpret_cast<__m256i *>(Out + Index + 12), Hi3);
      Index += LaneCount;
      if (Index + LaneCount > Count)
        break;
      step4(Lo0, Hi0, Step);
      step4(Lo1, Hi1, Step);
      step4(Lo2, Hi2, Step);
      step4(Lo3, Hi3, Step);
    }
    State = UInt128(static_cast<uint64_t>(_mm256_extract_epi64(Hi3, 3)),
                    static_cast<uint64_t>(_mm256_extract_epi64(Lo3, 3)));
  }
  serialTailBits64(State, Multiplier, Out, Index, Count);
}

void fillBlockLeapWide(UInt128 &State, UInt128 Multiplier, double *Out,
                       size_t BlockCount, size_t DrawsPerBlock,
                       UInt128 LeapMultiplier) {
  const VecMultiplier Step = broadcastMultiplier(Multiplier);
  size_t Block = 0;
  if (DrawsPerBlock > 0) {
    while (Block + LaneCount <= BlockCount) {
      // Lane j runs block Block+j from its own start State·Leap^j; each
      // lane steps by the *base* multiplier, so there is no per-block
      // re-interleave — the leap walk happens once per lane group.
      std::array<UInt128, LaneCount> Start;
      UInt128 Walk = State;
      for (size_t J = 0; J < LaneCount; ++J) {
        Start[J] = Walk;
        Walk = Walk * LeapMultiplier;
      }
      State = Walk; // start of block Block+LaneCount
      __m256i Lo0 = loadLow4(Start.data(), 0), Hi0 = loadHigh4(Start.data(), 0);
      __m256i Lo1 = loadLow4(Start.data(), 4), Hi1 = loadHigh4(Start.data(), 4);
      __m256i Lo2 = loadLow4(Start.data(), 8), Hi2 = loadHigh4(Start.data(), 8);
      __m256i Lo3 = loadLow4(Start.data(), 12), Hi3 = loadHigh4(Start.data(), 12);
      double *Base = Out + Block * DrawsPerBlock;
      alignas(32) double Tmp[LaneCount];
      for (size_t Draw = 0; Draw < DrawsPerBlock; ++Draw) {
        step4(Lo0, Hi0, Step);
        step4(Lo1, Hi1, Step);
        step4(Lo2, Hi2, Step);
        step4(Lo3, Hi3, Step);
        _mm256_store_pd(Tmp, toUnitOpen4(Hi0));
        _mm256_store_pd(Tmp + 4, toUnitOpen4(Hi1));
        _mm256_store_pd(Tmp + 8, toUnitOpen4(Hi2));
        _mm256_store_pd(Tmp + 12, toUnitOpen4(Hi3));
        for (size_t J = 0; J < LaneCount; ++J)
          Base[J * DrawsPerBlock + Draw] = Tmp[J];
      }
      Block += LaneCount;
    }
  }
  // Remainder blocks (and the DrawsPerBlock == 0 degenerate case) run the
  // serial recurrence per block.
  for (; Block < BlockCount; ++Block) {
    UInt128 Current = State;
    double *Base = Out + Block * DrawsPerBlock;
    for (size_t Draw = 0; Draw < DrawsPerBlock; ++Draw) {
      Current = Current * Multiplier;
      Base[Draw] = bitsToUnitOpen(Current.high());
    }
    State = State * LeapMultiplier;
  }
}

namespace {

/// A 32-bit word in the low half of each 64-bit lane.
inline __m256i broadcastWord4(uint32_t Word) {
  return _mm256_set1_epi64x(static_cast<long long>(Word));
}

/// The per-round Philox keys of one call, broadcast once.
struct PhiloxKeys4 {
  __m256i K0[philox::Rounds];
  __m256i K1[philox::Rounds];
};

PhiloxKeys4 broadcastPhiloxKeys(uint32_t KeyLo, uint32_t KeyHi) {
  PhiloxKeys4 Keys;
  for (unsigned Round = 0; Round < philox::Rounds; ++Round) {
    Keys.K0[Round] = broadcastWord4(KeyLo);
    Keys.K1[Round] = broadcastWord4(KeyHi);
    KeyLo += philox::KeyBumpA;
    KeyHi += philox::KeyBumpB;
  }
  return Keys;
}

/// Four Philox blocks, one 32-bit counter word per 64-bit lane. Only the
/// low halves are meaningful: vpmuludq reads just those, so the stale
/// upper halves the round leaves behind never reach an output.
struct PhiloxLanes4 {
  __m256i X0, X1, X2, X3;
};

inline void philoxRound4(PhiloxLanes4 &X, __m256i K0, __m256i K1,
                         __m256i MultA, __m256i MultB) {
  const __m256i ProductA = _mm256_mul_epu32(X.X0, MultA);
  const __m256i ProductB = _mm256_mul_epu32(X.X2, MultB);
  const __m256i HighA = _mm256_srli_epi64(ProductA, 32);
  const __m256i HighB = _mm256_srli_epi64(ProductB, 32);
  X.X0 = _mm256_xor_si256(_mm256_xor_si256(HighB, X.X1), K0);
  X.X1 = ProductB;
  X.X2 = _mm256_xor_si256(_mm256_xor_si256(HighA, X.X3), K1);
  X.X3 = ProductA;
}

/// The 64-bit draws High:Low from two lanes' low 32-bit words.
inline __m256i joinWords4(__m256i Low, __m256i High) {
  const __m256i Low32 = _mm256_set1_epi64x(static_cast<long long>(Mask32));
  return _mm256_or_si256(_mm256_slli_epi64(High, 32),
                         _mm256_and_si256(Low, Low32));
}

/// Maps each block's two draws X1:X0 and X3:X2 to the unit interval and
/// stores them in block order.
inline void storePhiloxDraws4(const PhiloxLanes4 &X, double *Out) {
  const __m256d First = toUnitOpen4(joinWords4(X.X0, X.X1));
  const __m256d Second = toUnitOpen4(joinWords4(X.X2, X.X3));
  const __m256d Even = _mm256_unpacklo_pd(First, Second); // blocks 0, 2
  const __m256d Odd = _mm256_unpackhi_pd(First, Second);  // blocks 1, 3
  _mm256_storeu_pd(Out, _mm256_permute2f128_pd(Even, Odd, 0x20));
  _mm256_storeu_pd(Out + 4, _mm256_permute2f128_pd(Even, Odd, 0x31));
}

/// Sixteen blocks as four independent ymm groups, so one group's
/// multiply latency overlaps the others' rounds.
inline void philoxGroup16(UInt128 Block, const PhiloxKeys4 &Keys,
                          double *Out) {
  const __m256i MultA = broadcastWord4(philox::MultiplierA);
  const __m256i MultB = broadcastWord4(philox::MultiplierB);
  const __m256i Word1 = broadcastWord4(uint32_t(Block.low() >> 32));
  const __m256i Word2 = broadcastWord4(uint32_t(Block.high()));
  const __m256i Word3 = broadcastWord4(uint32_t(Block.high() >> 32));
  __m256i Counter = _mm256_add_epi64(broadcastWord4(uint32_t(Block.low())),
                                     _mm256_setr_epi64x(0, 1, 2, 3));
  PhiloxLanes4 Lanes[4];
  for (PhiloxLanes4 &Group : Lanes) {
    Group = {Counter, Word1, Word2, Word3};
    Counter = _mm256_add_epi64(Counter, broadcastWord4(4));
  }
  for (unsigned Round = 0; Round < philox::Rounds; ++Round)
    for (PhiloxLanes4 &Group : Lanes)
      philoxRound4(Group, Keys.K0[Round], Keys.K1[Round], MultA, MultB);
  for (int G = 0; G < 4; ++G)
    storePhiloxDraws4(Lanes[G], Out + 8 * G);
}

} // namespace

void philoxFillWide(UInt128 FirstBlock, uint32_t KeyLo, uint32_t KeyHi,
                    double *Out, size_t BlockCount) {
  const PhiloxKeys4 Keys = broadcastPhiloxKeys(KeyLo, KeyHi);
  philoxFillGroups(FirstBlock, KeyLo, KeyHi, Out, BlockCount,
                   [&Keys](UInt128 Block, double *Dest) {
                     philoxGroup16(Block, Keys, Dest);
                   });
}

#elif defined(PARMONC_SIMD_BACKEND_AVX512)

namespace {

constexpr uint64_t Mask32 = 0xffffffffu;

/// Multiplier broadcasts: 32-bit halves of mL for the hi64 decomposition
/// plus full 64-bit mL/mH for the vpmullq cross terms.
struct VecMultiplier {
  __m512i LoLo; ///< mL & 0xffffffff in every lane
  __m512i LoHi; ///< mL >> 32
  __m512i MLo;  ///< mL (full 64 bits, for vpmullq)
  __m512i MHi;  ///< mH (full 64 bits, for vpmullq)
};

inline VecMultiplier broadcastMultiplier(UInt128 M) {
  return {_mm512_set1_epi64(static_cast<long long>(M.low() & Mask32)),
          _mm512_set1_epi64(static_cast<long long>(M.low() >> 32)),
          _mm512_set1_epi64(static_cast<long long>(M.low())),
          _mm512_set1_epi64(static_cast<long long>(M.high()))};
}

/// One recurrence step for all eight lanes in one register pair. AVX-512DQ
/// vpmullq covers the three lo64 products; only hi64(Lo·mL) needs the
/// 32-bit schoolbook (four vpmuludq).
inline void step8(__m512i &Lo, __m512i &Hi, const VecMultiplier &M) {
  const __m512i MaskV = _mm512_set1_epi64(static_cast<long long>(Mask32));
  const __m512i U1 = _mm512_srli_epi64(Lo, 32);
  const __m512i T = _mm512_mul_epu32(Lo, M.LoLo);
  const __m512i T1 =
      _mm512_add_epi64(_mm512_mul_epu32(U1, M.LoLo), _mm512_srli_epi64(T, 32));
  const __m512i T2 = _mm512_add_epi64(_mm512_mul_epu32(Lo, M.LoHi),
                                      _mm512_and_si512(T1, MaskV));
  const __m512i HiWide = _mm512_add_epi64(
      _mm512_mul_epu32(U1, M.LoHi),
      _mm512_add_epi64(_mm512_srli_epi64(T1, 32), _mm512_srli_epi64(T2, 32)));
  const __m512i NewHi = _mm512_add_epi64(
      HiWide, _mm512_add_epi64(_mm512_mullo_epi64(Lo, M.MHi),
                               _mm512_mullo_epi64(Hi, M.MLo)));
  Lo = _mm512_mullo_epi64(Lo, M.MLo);
  Hi = NewHi;
}

/// bitsToUnitOpen over eight lanes; vcvtuqq2pd is exact below 2^53, then
/// the scalar mapping's own (v + 0.5)·2^-52 runs per lane.
inline __m512d toUnitOpen8(__m512i Hi) {
  const __m512d D = _mm512_cvtepu64_pd(_mm512_srli_epi64(Hi, 12));
  return _mm512_mul_pd(_mm512_add_pd(D, _mm512_set1_pd(0.5)),
                       _mm512_set1_pd(0x1p-52));
}

inline __m512i loadLow8(const UInt128 *Lanes, size_t Base) {
  alignas(64) long long Limbs[8];
  for (size_t J = 0; J < 8; ++J)
    Limbs[J] = static_cast<long long>(Lanes[Base + J].low());
  return _mm512_load_si512(Limbs);
}

inline __m512i loadHigh8(const UInt128 *Lanes, size_t Base) {
  alignas(64) long long Limbs[8];
  for (size_t J = 0; J < 8; ++J)
    Limbs[J] = static_cast<long long>(Lanes[Base + J].high());
  return _mm512_load_si512(Limbs);
}

/// The AVX-512 batch kernels run four register groups (32 lanes) even
/// though LaneCount is 16: vpmullq has double-digit cycle latency, and
/// with only two groups in flight the loop is still latency-bound. The
/// interleave width is invisible to callers — outputs are in sequence
/// order either way — so the batch paths widen internally while the
/// block-leap kernel keeps the 16-block granularity.
constexpr size_t BatchWidth = 32;

inline UInt128 extractLastLane(__m512i Lo, __m512i Hi) {
  alignas(64) uint64_t LoLimbs[8];
  alignas(64) uint64_t HiLimbs[8];
  _mm512_store_si512(LoLimbs, Lo);
  _mm512_store_si512(HiLimbs, Hi);
  return UInt128(HiLimbs[7], LoLimbs[7]);
}

} // namespace

void fillBatchWide(UInt128 &State, UInt128 Multiplier, double *Out,
                   size_t Count) {
  size_t Index = 0;
  if (Count >= BatchWidth) {
    const LaneSetup<BatchWidth> Setup =
        makeLaneSetup<BatchWidth>(State, Multiplier);
    const VecMultiplier Step = broadcastMultiplier(Setup.Step);
    const UInt128 *Lanes = Setup.Lane.data();
    __m512i LoA = loadLow8(Lanes, 0), HiA = loadHigh8(Lanes, 0);
    __m512i LoB = loadLow8(Lanes, 8), HiB = loadHigh8(Lanes, 8);
    __m512i LoC = loadLow8(Lanes, 16), HiC = loadHigh8(Lanes, 16);
    __m512i LoD = loadLow8(Lanes, 24), HiD = loadHigh8(Lanes, 24);
    for (;;) {
      _mm512_storeu_pd(Out + Index, toUnitOpen8(HiA));
      _mm512_storeu_pd(Out + Index + 8, toUnitOpen8(HiB));
      _mm512_storeu_pd(Out + Index + 16, toUnitOpen8(HiC));
      _mm512_storeu_pd(Out + Index + 24, toUnitOpen8(HiD));
      Index += BatchWidth;
      if (Index + BatchWidth > Count)
        break;
      step8(LoA, HiA, Step);
      step8(LoB, HiB, Step);
      step8(LoC, HiC, Step);
      step8(LoD, HiD, Step);
    }
    State = extractLastLane(LoD, HiD);
  }
  serialTail(State, Multiplier, Out, Index, Count);
}

void fillBatchBits64Wide(UInt128 &State, UInt128 Multiplier, uint64_t *Out,
                         size_t Count) {
  size_t Index = 0;
  if (Count >= BatchWidth) {
    const LaneSetup<BatchWidth> Setup =
        makeLaneSetup<BatchWidth>(State, Multiplier);
    const VecMultiplier Step = broadcastMultiplier(Setup.Step);
    const UInt128 *Lanes = Setup.Lane.data();
    __m512i LoA = loadLow8(Lanes, 0), HiA = loadHigh8(Lanes, 0);
    __m512i LoB = loadLow8(Lanes, 8), HiB = loadHigh8(Lanes, 8);
    __m512i LoC = loadLow8(Lanes, 16), HiC = loadHigh8(Lanes, 16);
    __m512i LoD = loadLow8(Lanes, 24), HiD = loadHigh8(Lanes, 24);
    for (;;) {
      _mm512_storeu_si512(Out + Index, HiA);
      _mm512_storeu_si512(Out + Index + 8, HiB);
      _mm512_storeu_si512(Out + Index + 16, HiC);
      _mm512_storeu_si512(Out + Index + 24, HiD);
      Index += BatchWidth;
      if (Index + BatchWidth > Count)
        break;
      step8(LoA, HiA, Step);
      step8(LoB, HiB, Step);
      step8(LoC, HiC, Step);
      step8(LoD, HiD, Step);
    }
    State = extractLastLane(LoD, HiD);
  }
  serialTailBits64(State, Multiplier, Out, Index, Count);
}

void fillBlockLeapWide(UInt128 &State, UInt128 Multiplier, double *Out,
                       size_t BlockCount, size_t DrawsPerBlock,
                       UInt128 LeapMultiplier) {
  const VecMultiplier Step = broadcastMultiplier(Multiplier);
  size_t Block = 0;
  if (DrawsPerBlock > 0) {
    while (Block + LaneCount <= BlockCount) {
      std::array<UInt128, LaneCount> Start;
      UInt128 Walk = State;
      for (size_t J = 0; J < LaneCount; ++J) {
        Start[J] = Walk;
        Walk = Walk * LeapMultiplier;
      }
      State = Walk;
      __m512i LoA = loadLow8(Start.data(), 0), HiA = loadHigh8(Start.data(), 0);
      __m512i LoB = loadLow8(Start.data(), 8), HiB = loadHigh8(Start.data(), 8);
      double *Base = Out + Block * DrawsPerBlock;
      alignas(64) double Tmp[LaneCount];
      for (size_t Draw = 0; Draw < DrawsPerBlock; ++Draw) {
        step8(LoA, HiA, Step);
        step8(LoB, HiB, Step);
        _mm512_store_pd(Tmp, toUnitOpen8(HiA));
        _mm512_store_pd(Tmp + 8, toUnitOpen8(HiB));
        for (size_t J = 0; J < LaneCount; ++J)
          Base[J * DrawsPerBlock + Draw] = Tmp[J];
      }
      Block += LaneCount;
    }
  }
  for (; Block < BlockCount; ++Block) {
    UInt128 Current = State;
    double *Base = Out + Block * DrawsPerBlock;
    for (size_t Draw = 0; Draw < DrawsPerBlock; ++Draw) {
      Current = Current * Multiplier;
      Base[Draw] = bitsToUnitOpen(Current.high());
    }
    State = State * LeapMultiplier;
  }
}

namespace {

/// A 32-bit word in the low half of each 64-bit lane.
inline __m512i broadcastWord8(uint32_t Word) {
  return _mm512_set1_epi64(static_cast<long long>(Word));
}

/// The per-round Philox keys of one call, broadcast once.
struct PhiloxKeys8 {
  __m512i K0[philox::Rounds];
  __m512i K1[philox::Rounds];
};

PhiloxKeys8 broadcastPhiloxKeys(uint32_t KeyLo, uint32_t KeyHi) {
  PhiloxKeys8 Keys;
  for (unsigned Round = 0; Round < philox::Rounds; ++Round) {
    Keys.K0[Round] = broadcastWord8(KeyLo);
    Keys.K1[Round] = broadcastWord8(KeyHi);
    KeyLo += philox::KeyBumpA;
    KeyHi += philox::KeyBumpB;
  }
  return Keys;
}

/// Eight Philox blocks, one 32-bit counter word per 64-bit lane. Only the
/// low halves are meaningful: vpmuludq reads just those, so the stale
/// upper halves the round leaves behind never reach an output.
struct PhiloxLanes8 {
  __m512i X0, X1, X2, X3;
};

/// 0x96 is the truth table of a three-way XOR for vpternlogq.
constexpr int Xor3 = 0x96;

inline void philoxRound8(PhiloxLanes8 &X, __m512i K0, __m512i K1,
                         __m512i MultA, __m512i MultB) {
  const __m512i ProductA = _mm512_mul_epu32(X.X0, MultA);
  const __m512i ProductB = _mm512_mul_epu32(X.X2, MultB);
  const __m512i HighA = _mm512_srli_epi64(ProductA, 32);
  const __m512i HighB = _mm512_srli_epi64(ProductB, 32);
  X.X0 = _mm512_ternarylogic_epi64(HighB, X.X1, K0, Xor3);
  X.X1 = ProductB;
  X.X2 = _mm512_ternarylogic_epi64(HighA, X.X3, K1, Xor3);
  X.X3 = ProductA;
}

/// The 64-bit draws High:Low from two lanes' low 32-bit words.
inline __m512i joinWords8(__m512i Low, __m512i High) {
  const __m512i Low32 = _mm512_set1_epi64(static_cast<long long>(Mask32));
  return _mm512_or_si512(_mm512_slli_epi64(High, 32),
                         _mm512_and_si512(Low, Low32));
}

/// Maps each block's two draws X1:X0 and X3:X2 to the unit interval and
/// stores them in block order.
inline void storePhiloxDraws8(const PhiloxLanes8 &X, double *Out) {
  const __m512d First = toUnitOpen8(joinWords8(X.X0, X.X1));
  const __m512d Second = toUnitOpen8(joinWords8(X.X2, X.X3));
  // Lane j of First/Second holds block j's first/second draw.
  const __m512i Blocks0To3 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i Blocks4To7 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  _mm512_storeu_pd(Out, _mm512_permutex2var_pd(First, Blocks0To3, Second));
  _mm512_storeu_pd(Out + 8, _mm512_permutex2var_pd(First, Blocks4To7, Second));
}

/// Sixteen blocks as two independent zmm groups of eight.
inline void philoxGroup16(UInt128 Block, const PhiloxKeys8 &Keys,
                          double *Out) {
  const __m512i MultA = broadcastWord8(philox::MultiplierA);
  const __m512i MultB = broadcastWord8(philox::MultiplierB);
  const __m512i Word1 = broadcastWord8(uint32_t(Block.low() >> 32));
  const __m512i Word2 = broadcastWord8(uint32_t(Block.high()));
  const __m512i Word3 = broadcastWord8(uint32_t(Block.high() >> 32));
  const __m512i CounterA =
      _mm512_add_epi64(broadcastWord8(uint32_t(Block.low())),
                       _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  const __m512i CounterB = _mm512_add_epi64(CounterA, broadcastWord8(8));
  PhiloxLanes8 A = {CounterA, Word1, Word2, Word3};
  PhiloxLanes8 B = {CounterB, Word1, Word2, Word3};
  for (unsigned Round = 0; Round < philox::Rounds; ++Round) {
    philoxRound8(A, Keys.K0[Round], Keys.K1[Round], MultA, MultB);
    philoxRound8(B, Keys.K0[Round], Keys.K1[Round], MultA, MultB);
  }
  storePhiloxDraws8(A, Out);
  storePhiloxDraws8(B, Out + 16);
}

} // namespace

void philoxFillWide(UInt128 FirstBlock, uint32_t KeyLo, uint32_t KeyHi,
                    double *Out, size_t BlockCount) {
  const PhiloxKeys8 Keys = broadcastPhiloxKeys(KeyLo, KeyHi);
  philoxFillGroups(FirstBlock, KeyLo, KeyHi, Out, BlockCount,
                   [&Keys](UInt128 Block, double *Dest) {
                     philoxGroup16(Block, Keys, Dest);
                   });
}

#else // PARMONC_SIMD_BACKEND_SCALAR

void fillBatchWide(UInt128 &State, UInt128 Multiplier, double *Out,
                   size_t Count) {
  size_t Index = 0;
  if (Count >= LaneCount) {
    LaneSetup<LaneCount> Setup = makeLaneSetup<LaneCount>(State, Multiplier);
    for (;;) {
      for (size_t J = 0; J < LaneCount; ++J)
        Out[Index + J] = bitsToUnitOpen(Setup.Lane[J].high());
      Index += LaneCount;
      if (Index + LaneCount > Count)
        break;
      for (size_t J = 0; J < LaneCount; ++J)
        Setup.Lane[J] = Setup.Lane[J] * Setup.Step;
    }
    State = Setup.Lane[LaneCount - 1];
  }
  serialTail(State, Multiplier, Out, Index, Count);
}

void fillBatchBits64Wide(UInt128 &State, UInt128 Multiplier, uint64_t *Out,
                         size_t Count) {
  size_t Index = 0;
  if (Count >= LaneCount) {
    LaneSetup<LaneCount> Setup = makeLaneSetup<LaneCount>(State, Multiplier);
    for (;;) {
      for (size_t J = 0; J < LaneCount; ++J)
        Out[Index + J] = Setup.Lane[J].high();
      Index += LaneCount;
      if (Index + LaneCount > Count)
        break;
      for (size_t J = 0; J < LaneCount; ++J)
        Setup.Lane[J] = Setup.Lane[J] * Setup.Step;
    }
    State = Setup.Lane[LaneCount - 1];
  }
  serialTailBits64(State, Multiplier, Out, Index, Count);
}

void fillBlockLeapWide(UInt128 &State, UInt128 Multiplier, double *Out,
                       size_t BlockCount, size_t DrawsPerBlock,
                       UInt128 LeapMultiplier) {
  size_t Block = 0;
  if (DrawsPerBlock > 0) {
    while (Block + LaneCount <= BlockCount) {
      // Lane j runs block Block+j; each lane steps by the base multiplier,
      // so the leap walk is once per lane group, not once per block.
      std::array<UInt128, LaneCount> Lane;
      UInt128 Walk = State;
      for (size_t J = 0; J < LaneCount; ++J) {
        Lane[J] = Walk;
        Walk = Walk * LeapMultiplier;
      }
      State = Walk;
      double *Base = Out + Block * DrawsPerBlock;
      for (size_t Draw = 0; Draw < DrawsPerBlock; ++Draw)
        for (size_t J = 0; J < LaneCount; ++J) {
          Lane[J] = Lane[J] * Multiplier;
          Base[J * DrawsPerBlock + Draw] = bitsToUnitOpen(Lane[J].high());
        }
      Block += LaneCount;
    }
  }
  for (; Block < BlockCount; ++Block) {
    UInt128 Current = State;
    double *Base = Out + Block * DrawsPerBlock;
    for (size_t Draw = 0; Draw < DrawsPerBlock; ++Draw) {
      Current = Current * Multiplier;
      Base[Draw] = bitsToUnitOpen(Current.high());
    }
    State = State * LeapMultiplier;
  }
}

void philoxFillWide(UInt128 FirstBlock, uint32_t KeyLo, uint32_t KeyHi,
                    double *Out, size_t BlockCount) {
  philoxScalarBlocks(FirstBlock, KeyLo, KeyHi, Out, BlockCount);
}

#endif // backend selection

} // namespace rngsimd
} // namespace parmonc
