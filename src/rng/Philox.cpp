//===- rng/Philox.cpp - Counter-based production generator ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Philox.h"

#include "parmonc/rng/SimdKernels.h"
#include "parmonc/support/Contract.h"

#include <algorithm>

namespace parmonc {

namespace {

/// True when the wide kernel TU is executable on this CPU; probed once.
/// When false, fillUniforms draws one at a time.
bool wideKernelEngaged() {
  static const bool Engaged = rngsimd::runtimeSupportsCompiledBackend();
  return Engaged;
}

} // namespace

void Philox::computeBlock(UInt128 BlockIndex) {
  philox::block(BlockIndex, KeyLo, KeyHi, Cached);
  CachedBlock = BlockIndex;
  CacheValid = true;
}

uint64_t Philox::nextBits64() {
  const UInt128 Block = Position >> 1;
  const unsigned Word = unsigned(Position.low() & 1);
  if (!CacheValid || CachedBlock != Block)
    computeBlock(Block);
  Position += UInt128(1);
  return Cached[Word];
}

void Philox::fillUniforms(double *Out, size_t Count) {
  size_t Index = 0;
  if (wideKernelEngaged()) {
    // Enter at a block boundary: at most one scalar draw.
    if (Count > 0 && (Position.low() & 1) != 0)
      Out[Index++] = nextUniform();
    // Whole blocks straight into the output; the kernel runs the same
    // bijection per counter, so the stream is bit-identical.
    size_t Blocks = (Count - Index) / DrawsPerBlock;
    while (Blocks > 0) {
      // The draw position wraps mod 2^128, so the block index wraps at
      // 2^127; a kernel call never crosses that wrap.
      const UInt128 First = Position >> 1;
      const UInt128 UntilWrap = UInt128::powerOfTwo(127) - First;
      const size_t Run = UntilWrap < UInt128(Blocks)
                             ? size_t(UntilWrap.low())
                             : Blocks;
      rngsimd::philoxFillWide(First, KeyLo, KeyHi, Out + Index, Run);
      Position += UInt128(Run * DrawsPerBlock);
      Index += Run * DrawsPerBlock;
      Blocks -= Run;
    }
  }
  while (Index < Count)
    Out[Index++] = nextUniform();
}

void Philox::seek(UInt128 DrawIndex) {
  Position = DrawIndex;
  // The cache stays valid: nextBits64 re-derives block/word from the
  // position and recomputes on mismatch.
}

Philox Philox::streamFor(const StreamCoordinates &Where,
                         const LeapConfig &Config, uint64_t Key) {
  PARMONC_ASSERT(Config.validate().isOk(), "invalid leap configuration");
  // The same always-on capacity contracts as StreamHierarchy: an index
  // past its level's capacity would land inside a sibling's counter
  // interval, silently correlating "independent" streams.
  PARMONC_ASSERT(Where.Experiment <
                     (uint64_t(1)
                      << std::min(Config.maxExperimentsLog2(), 63u)),
                 "experiment index exceeds hierarchy capacity");
  PARMONC_ASSERT(Where.Processor <
                     (uint64_t(1)
                      << std::min(Config.maxProcessorsLog2(), 63u)),
                 "processor index exceeds hierarchy capacity");
  PARMONC_ASSERT(Where.Realization <
                     (uint64_t(1)
                      << std::min(Config.maxRealizationsLog2(), 63u)),
                 "realization index exceeds hierarchy capacity");
  Philox Stream(Key);
  Stream.seek((UInt128(Where.Experiment) << Config.ExperimentLog2) +
              (UInt128(Where.Processor) << Config.ProcessorLog2) +
              (UInt128(Where.Realization) << Config.RealizationLog2));
  return Stream;
}

} // namespace parmonc
