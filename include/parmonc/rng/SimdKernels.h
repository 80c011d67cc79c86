//===- parmonc/rng/SimdKernels.h - Wide-interleave batch kernels ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wide (16-lane) interleaved batch kernels behind `Lcg128::fillBatch`
/// and friends, compiled in exactly one translation unit
/// (src/rng/SimdKernels.cpp) with the instruction-set flags selected by
/// the `PARMONC_SIMD` CMake option:
///
///   - `AUTO`    — `-march=native` on the kernel TU; the best backend the
///                 host supports is selected at compile time,
///   - `AVX2`    — explicit AVX2 (4x64-bit lanes per register, four
///                 register groups),
///   - `AVX512`  — explicit AVX-512F/DQ (8x64-bit lanes per register,
///                 two register groups),
///   - `SCALAR`  — the portable 16-lane scalar interleave, the fallback
///                 for targets without x86 vector units (NEON hosts get
///                 this path today).
///
/// Every backend runs the same recurrence shape: lane j carries
/// u_{k+1+16t+j} and steps by the precomputed A^16, so sixteen 128-bit
/// multiply chains are independent. Sixteen lanes — not one register's
/// worth — is deliberate: a single vector group's step depends on its own
/// previous step, so one group is bound by vector-multiply *latency*;
/// splitting the lanes across independent register groups lets
/// consecutive steps overlap and moves the kernel to the multiplier's
/// *throughput* limit. Outputs are emitted in sequence order and are
/// **bit-identical** to the scalar recurrence — including the
/// unit-interval mapping, which each vector backend computes with
/// exact-by-construction double arithmetic (see docs/RNG.md#kernel-paths).
/// The four-lane kernel in Lcg128.cpp is kept as the differential oracle
/// for these paths, the same way `mul128Portable` oracles the `__int128`
/// fast path.
///
/// The same TU carries the multi-block Philox4x32-10 kernel behind
/// `Philox::fillUniforms`. A Philox block depends only on its own counter,
/// so sixteen consecutive blocks run as independent vector lanes (two zmm
/// groups of eight, or four ymm groups of four); each 32-bit counter word
/// sits in its own 64-bit lane so one vpmuludq yields both halves of a
/// round's product. Its oracle is the scalar block function
/// `philox::block` (rng/Philox.h), which the kernel also runs for the
/// rare sixteen-block group whose low counter word carries.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_RNG_SIMDKERNELS_H
#define PARMONC_RNG_SIMDKERNELS_H

#include "parmonc/int128/UInt128.h"

#include <cstddef>
#include <cstdint>

namespace parmonc {
namespace rngsimd {

/// Which instruction set the kernel translation unit was compiled for.
enum class Backend {
  Scalar, ///< portable 16-lane interleave, no vector intrinsics
  Avx2,   ///< explicit AVX2, 4x64-bit lanes per ymm register
  Avx512, ///< explicit AVX-512F/DQ, 8x64-bit lanes per zmm register
};

/// The backend baked into this build's kernel TU. Data, not code: safe to
/// read on any host, including one that cannot execute the kernels.
extern const Backend CompiledBackend;

/// Stable lower-case name of \p Which for reports ("scalar", "avx2",
/// "avx512"). Compiled without target flags (SimdDispatch.cpp), safe on
/// any host.
const char *backendName(Backend Which);

/// True when the executing CPU can run `CompiledBackend`'s kernels (always
/// true for the scalar backend). Compiled without target flags
/// (SimdDispatch.cpp), so probing is safe even on hosts that cannot
/// execute the kernel TU; `Lcg128` falls back to the four-lane path when
/// this is false.
bool runtimeSupportsCompiledBackend();

/// Number of interleaved recurrence lanes every backend runs, split
/// across independent register groups so vector steps overlap.
inline constexpr size_t LaneCount = 16;

/// Fills \p Out[0..Count) with unit-interval draws u_{k+1}..u_{k+Count},
/// advancing \p State from u_k to u_{k+Count}. Bit-equal to the scalar
/// recurrence for every \p Count, including the sub-lane tail (which runs
/// the plain serial recurrence).
void fillBatchWide(UInt128 &State, UInt128 Multiplier, double *Out,
                   size_t Count);

/// Same kernel emitting the raw top-64-bit outputs.
void fillBatchBits64Wide(UInt128 &State, UInt128 Multiplier, uint64_t *Out,
                         size_t Count);

/// Block-leap kernel: lanes are *blocks*, not interleaved positions — the
/// sixteen subsequences started by consecutive leap multiplies are
/// independent streams, so each lane steps by the base multiplier A and
/// emits its own block's draws with no per-block re-interleave setup.
/// Emits \p DrawsPerBlock draws for each of \p BlockCount blocks into
/// \p Out (block-major), advancing \p State by LeapMultiplier^BlockCount.
/// Trailing blocks beyond the last full lane group run serially.
void fillBlockLeapWide(UInt128 &State, UInt128 Multiplier, double *Out,
                       size_t BlockCount, size_t DrawsPerBlock,
                       UInt128 LeapMultiplier);

/// Philox4x32-10 over the \p BlockCount consecutive counter blocks
/// FirstBlock, FirstBlock+1, ... (mod 2^128) under the key
/// (\p KeyLo, \p KeyHi): writes each block's two draws, mapped by
/// bitsToUnitOpen, to \p Out[0..2·BlockCount) in block order — bit-equal
/// to `philox::block` per block.
void philoxFillWide(UInt128 FirstBlock, uint32_t KeyLo, uint32_t KeyHi,
                    double *Out, size_t BlockCount);

} // namespace rngsimd
} // namespace parmonc

#endif // PARMONC_RNG_SIMDKERNELS_H
