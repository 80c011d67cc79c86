//===- parmonc/rng/Philox.h - Counter-based production generator ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A counter-based alternative to the 128-bit LCG, registered behind the
/// same `RandomSource` seam: Philox4x32-10 (Salmon et al., SC'11) driven
/// by a 128-bit draw position. Where the LCG realizes the paper's
/// three-level hierarchy with leap *multiplies*, this backend realizes it
/// with counter *partitioning* — experiment e / processor p /
/// realization k simply owns draw positions
///
///   D = e·2^ne + p·2^np + k·2^nr + d,   d in [0, 2^nr)
///
/// of the keyed sequence, the very same interval arithmetic the leap
/// hierarchy guarantees (2^10 experiments × 2^17 processors × 2^55
/// realizations at the defaults). Because a block is a keyed bijection of
/// its counter, "leaping" to any position is free: no power table, no
/// squaring chain, no state walk. See docs/RNG.md#philox-backend for the
/// partitioning math and the validation story (full statest battery;
/// the exact lattice spectral test is LCG-specific and does not apply).
///
/// The block function below is the library's one scalar Philox round
/// loop: `Philox::computeBlock` and the edge blocks of the wide fill
/// kernel (rng/SimdKernels.h) both call it, and it is the differential
/// oracle the vector rounds are tested against.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_RNG_PHILOX_H
#define PARMONC_RNG_PHILOX_H

#include "parmonc/int128/UInt128.h"
#include "parmonc/rng/RandomSource.h"
#include "parmonc/rng/StreamHierarchy.h"

namespace parmonc {

/// Philox4x32-10 round constants (Salmon et al., SC'11, the Random123
/// reference), shared by the scalar block function and the vector rounds.
namespace philox {
inline constexpr uint32_t MultiplierA = 0xD2511F53u;
inline constexpr uint32_t MultiplierB = 0xCD9E8D57u;
inline constexpr uint32_t KeyBumpA = 0x9E3779B9u; // golden ratio
inline constexpr uint32_t KeyBumpB = 0xBB67AE85u; // sqrt(3) - 1
inline constexpr unsigned Rounds = 10;

/// Bijects the 128-bit counter \p Block under key (\p KeyLo, \p KeyHi)
/// through the ten rounds into its two 64-bit draws: Draws[0] = X1:X0,
/// Draws[1] = X3:X2. Always inlined, so no out-of-line copy is emitted
/// from the SIMD kernel TU, whose ISA flags other objects must not pick
/// up.
[[gnu::always_inline]] inline void block(UInt128 Block, uint32_t KeyLo,
                                         uint32_t KeyHi, uint64_t *Draws) {
  uint32_t X0 = uint32_t(Block.low());
  uint32_t X1 = uint32_t(Block.low() >> 32);
  uint32_t X2 = uint32_t(Block.high());
  uint32_t X3 = uint32_t(Block.high() >> 32);
  uint32_t K0 = KeyLo, K1 = KeyHi;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    const uint64_t ProductA = uint64_t(MultiplierA) * X0;
    const uint64_t ProductB = uint64_t(MultiplierB) * X2;
    X0 = uint32_t(ProductB >> 32) ^ X1 ^ K0;
    X1 = uint32_t(ProductB);
    X2 = uint32_t(ProductA >> 32) ^ X3 ^ K1;
    X3 = uint32_t(ProductA);
    K0 += KeyBumpA;
    K1 += KeyBumpB;
  }
  Draws[0] = (uint64_t(X1) << 32) | X0;
  Draws[1] = (uint64_t(X3) << 32) | X2;
}
} // namespace philox

/// Counter-based generator: Philox4x32-10 over a 128-bit block counter.
/// Each 128-bit counter value is bijected through ten keyed rounds into
/// 128 output bits, consumed as two 64-bit draws; the stream is the
/// sequence of draws at positions 0, 1, 2, ... and `seek()` jumps to any
/// position in constant time.
class Philox final : public RandomSource {
public:
  /// Draws per counter block: each block's 128 output bits yield two
  /// 64-bit draws.
  static constexpr unsigned DrawsPerBlock = 2;

  /// log2 of the usable stream length per key. The counter spans 2^128
  /// blocks = 2^129 draws; capping hierarchy use at 2^126 draws mirrors
  /// the LCG's usable-half discipline and keeps every partition interval
  /// comfortably inside one period.
  static constexpr unsigned UsableLog2 = 126;

  /// A stream at draw position 0 under \p Key (the key is the "which
  /// sequence" selector — independent keys give independent sequences).
  explicit Philox(uint64_t Key = 0) : KeyLo(uint32_t(Key)),
                                      KeyHi(uint32_t(Key >> 32)) {}

  /// The stream positioned where the hierarchy places \p Where: draw
  /// position e·2^ne + p·2^np + k·2^nr of the sequence keyed by \p Key.
  /// Asserts the same per-level capacity bounds as
  /// StreamHierarchy::initialNumber, so LCG and Philox deployments share
  /// one coordinate discipline. \p Config must validate().
  static Philox streamFor(const StreamCoordinates &Where,
                          const LeapConfig &Config = LeapConfig(),
                          uint64_t Key = 0);

  double nextUniform() override { return bitsToUnitOpen(nextBits64()); }

  uint64_t nextBits64() override;

  /// Batched generation, bit-equal to \p Count nextBits64()-backed
  /// nextUniform() calls: whole blocks go through the wide kernel
  /// (rngsimd::philoxFillWide), with scalar draws only at the unaligned
  /// edges — or every draw, on a CPU that cannot run the kernel TU.
  void fillUniforms(double *Out, size_t Count) override;

  const char *name() const override { return "philox"; }

  /// The absolute draw position the next output will come from.
  UInt128 position() const { return Position; }

  /// Jumps to absolute draw position \p DrawIndex in constant time — the
  /// counter-based equivalent of the LCG's leap multiply.
  void seek(UInt128 DrawIndex);

  /// Advances by \p Draws positions without generating output.
  void skip(UInt128 Draws) { seek(Position + Draws); }

  /// The 64-bit key this stream was built with.
  uint64_t key() const { return (uint64_t(KeyHi) << 32) | KeyLo; }

private:
  /// Bijects block \p BlockIndex through the ten Philox rounds into
  /// Cached[0..1] and records the index in CachedBlock.
  void computeBlock(UInt128 BlockIndex);

  uint32_t KeyLo;
  uint32_t KeyHi;
  UInt128 Position;              ///< next draw index
  UInt128 CachedBlock;           ///< which block Cached[] holds
  bool CacheValid = false;       ///< Cached[]/CachedBlock populated
  uint64_t Cached[DrawsPerBlock] = {0, 0};
};

} // namespace parmonc

#endif // PARMONC_RNG_PHILOX_H
