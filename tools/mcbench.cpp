//===- tools/mcbench.cpp - RNG kernel benchmark ---------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//
//   $ mcbench [--smoke] [--out DIR]
//
// Measures the draw, leap and multiply kernels and records the numbers as
// machine-readable JSON:
//
//   DIR/BENCH_rng.json     ns per 128-bit multiply (native vs portable),
//                          ns per draw for scalar nextUniform(), the
//                          four-lane fillBatch() kernel, fillBatchBits64()
//                          and the block-leap kernel, plus the derived
//                          speedup ratios and the "simd_bit_equal" verdict
//                          of the in-band kernel oracles.
//
// mcbench writes the report, then exits 1 if the verdict is false, so a
// broken wide kernel fails the run that measured it. The engine itself is
// measured end to end by perfbench/ (docs/PERFORMANCE.md).
//
// --smoke shrinks the draw count so the run finishes in well under a
// second; that is what the bench-smoke CI job and the ctest smoke test run.
//
//===----------------------------------------------------------------------===//

#include "parmonc/int128/UInt128.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/LeapWindow.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/SimdKernels.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/support/Checksum.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Text.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace parmonc;

// mclint: allow-file(R6): the benchmark drives the raw generator on
// purpose — that is the kernel under measurement.
namespace {

/// All timing goes through the library's own clock abstraction.
WallClock Timer;

/// Folded into every benchmark result so the optimizer cannot delete the
/// measured loops; reported in the JSON for reproducibility spot-checks.
uint64_t Checksum = 0;

struct Options {
  bool Smoke = false;
  std::string OutDir = ".";
};

double nsPerOp(int64_t Nanos, uint64_t Ops) {
  return Ops > 0 ? double(Nanos) / double(Ops) : 0.0;
}

std::string formatDouble(double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof Buffer, "%.4f", Value);
  return Buffer;
}

// --- RNG suite -------------------------------------------------------------

struct RngNumbers {
  double FastMulNs = 0.0;
  double PortableMulNs = 0.0;
  double ScalarNs = 0.0;
  double BatchNs = 0.0;
  double FourLaneNs = 0.0;
  double BatchBitsNs = 0.0;
  double BlockLeapNs = 0.0;
  double PhiloxScalarNs = 0.0;
  double PhiloxBatchNs = 0.0;
  double LeapWindowNs = 0.0;
  double LeapSquareMultiplyNs = 0.0;
  bool SimdBitEqual = false;
  uint64_t Draws = 0;
};

RngNumbers runRngSuite(uint64_t Draws) {
  RngNumbers Numbers;
  Numbers.Draws = Draws;
  const UInt128 Multiplier = Lcg128::defaultMultiplier();

  // The generator recurrence is one dependent 128-bit multiply per draw, so
  // "ns per multiply on a serial dependency chain" IS the generator's
  // scalar speed limit. The same chain through the portable reference
  // (mul128Portable) gives the honest cross-platform baseline — on this
  // build the fast path is what operator* itself compiles to.
  {
    UInt128 State(1);
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Step = 0; Step < Draws; ++Step)
      State = State * Multiplier;
    Numbers.FastMulNs = nsPerOp(Timer.nowNanos() - Start, Draws);
    Checksum ^= State.high() ^ State.low();
  }
  {
    UInt128 State(1);
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Step = 0; Step < Draws; ++Step)
      State = mul128Portable(State, Multiplier);
    Numbers.PortableMulNs = nsPerOp(Timer.nowNanos() - Start, Draws);
    Checksum ^= State.high() ^ State.low();
  }

  // Scalar virtual-call-free draw loop: what a realization routine pays
  // when it calls nextUniform() directly on a concrete Lcg128.
  {
    Lcg128 Generator;
    double Sink = 0.0;
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Step = 0; Step < Draws; ++Step)
      Sink += Generator.nextUniform();
    Numbers.ScalarNs = nsPerOp(Timer.nowNanos() - Start, Draws);
    Checksum ^= uint64_t(Sink) ^ Generator.state().high();
  }

  // Four-lane batch kernel, 4096 draws per refill.
  {
    Lcg128 Generator;
    std::vector<double> Buffer(4096);
    double Sink = 0.0;
    const uint64_t Calls = Draws / Buffer.size();
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Call = 0; Call < Calls; ++Call) {
      Generator.fillBatch(Buffer.data(), Buffer.size());
      Sink += Buffer.front() + Buffer.back();
    }
    Numbers.BatchNs =
        nsPerOp(Timer.nowNanos() - Start, Calls * Buffer.size());
    Checksum ^= uint64_t(Sink * 4096.0) ^ Generator.state().high();
  }
  // The four-lane differential oracle on the same shape, so the JSON shows
  // what the wide SIMD dispatch buys over the portable interleave.
  {
    Lcg128 Generator;
    std::vector<double> Buffer(4096);
    double Sink = 0.0;
    const uint64_t Calls = Draws / Buffer.size();
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Call = 0; Call < Calls; ++Call) {
      Generator.fillBatchFourLane(Buffer.data(), Buffer.size());
      Sink += Buffer.front() + Buffer.back();
    }
    Numbers.FourLaneNs =
        nsPerOp(Timer.nowNanos() - Start, Calls * Buffer.size());
    Checksum ^= uint64_t(Sink * 4096.0) ^ Generator.state().high();
  }

  // In-bench bit-equality oracle, reported as "simd_bit_equal" so a
  // checked-in BENCH_rng.json certifies the speedups were measured on
  // correct kernels. At awkward lengths: the dispatched LCG batch path
  // must emit the four-lane kernel's exact bytes and final state, the
  // dispatched Philox fill must emit the scalar block function's draws,
  // and the dispatched crc32 must equal its slicing-by-8 oracle.
  {
    constexpr size_t Count = 4096 + 17;
    Lcg128 Dispatched;
    Lcg128 Oracle;
    std::vector<double> Got(Count), Want(Count);
    Dispatched.fillBatch(Got.data(), Count);
    Oracle.fillBatchFourLane(Want.data(), Count);
    const bool LcgEqual =
        std::memcmp(Got.data(), Want.data(), Count * sizeof(double)) == 0 &&
        Dispatched.state() == Oracle.state();

    constexpr uint64_t Key = 0x853c49e6748fea9bull;
    Philox Filled(Key);
    Filled.fillUniforms(Got.data(), Count);
    for (size_t Index = 0; Index < Count; ++Index) {
      uint64_t Draws[Philox::DrawsPerBlock];
      philox::block(UInt128(Index / 2), uint32_t(Key), uint32_t(Key >> 32),
                    Draws);
      Want[Index] = bitsToUnitOpen(Draws[Index % 2]);
    }
    const bool PhiloxEqual =
        std::memcmp(Got.data(), Want.data(), Count * sizeof(double)) == 0 &&
        Filled.position() == UInt128(Count);

    std::string Frame(32 * 1024 + 13, '\0');
    for (size_t Index = 0; Index < Frame.size(); ++Index)
      Frame[Index] = char(Index * 131 + (Index >> 8));
    const bool CrcEqual = crc32(Frame) == crc32Portable(Frame);

    Numbers.SimdBitEqual = LcgEqual && PhiloxEqual && CrcEqual;
  }

  {
    Lcg128 Generator;
    std::vector<uint64_t> Buffer(4096);
    uint64_t Sink = 0;
    const uint64_t Calls = Draws / Buffer.size();
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Call = 0; Call < Calls; ++Call) {
      Generator.fillBatchBits64(Buffer.data(), Buffer.size());
      Sink ^= Buffer.front() ^ Buffer.back();
    }
    Numbers.BatchBitsNs =
        nsPerOp(Timer.nowNanos() - Start, Calls * Buffer.size());
    Checksum ^= Sink;
  }

  // Block-leap kernel: 64 realization-subsequence prefixes of 256 draws
  // per call, block starts advanced by the §2.4 auxiliary generator.
  {
    const UInt128 Leap = LeapTable().realizationLeap();
    Lcg128 Generator;
    const size_t BlockCount = 64, DrawsPerBlock = 256;
    std::vector<double> Buffer(BlockCount * DrawsPerBlock);
    double Sink = 0.0;
    const uint64_t Calls = Draws / Buffer.size();
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Call = 0; Call < Calls; ++Call) {
      Generator.fillBlockLeap(Buffer.data(), BlockCount, DrawsPerBlock, Leap);
      Sink += Buffer.front() + Buffer.back();
    }
    Numbers.BlockLeapNs =
        nsPerOp(Timer.nowNanos() - Start, Calls * Buffer.size());
    Checksum ^= uint64_t(Sink * 4096.0) ^ Generator.state().high();
  }

  // The counter-based Philox backend, scalar and batched, on the same
  // shapes as the LCG loops above so the columns are directly comparable.
  {
    Philox Generator;
    double Sink = 0.0;
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Step = 0; Step < Draws; ++Step)
      Sink += Generator.nextUniform();
    Numbers.PhiloxScalarNs = nsPerOp(Timer.nowNanos() - Start, Draws);
    Checksum ^= uint64_t(Sink) ^ Generator.position().low();
  }
  {
    Philox Generator;
    std::vector<double> Buffer(4096);
    double Sink = 0.0;
    const uint64_t Calls = Draws / Buffer.size();
    const int64_t Start = Timer.nowNanos();
    for (uint64_t Call = 0; Call < Calls; ++Call) {
      Generator.fillUniforms(Buffer.data(), Buffer.size());
      Sink += Buffer.front() + Buffer.back();
    }
    Numbers.PhiloxBatchNs =
        nsPerOp(Timer.nowNanos() - Start, Calls * Buffer.size());
    Checksum ^= uint64_t(Sink * 4096.0) ^ Generator.position().low();
  }

  // Leap-ahead: the windowed power table against square-and-multiply, over
  // a spread of hierarchy-scale exponents. Stream creation and cursor
  // striding pay exactly this cost per leap.
  {
    const uint64_t Leaps = Draws / 1024 > 0 ? Draws / 1024 : 1;
    const PowerWindow Window(Multiplier);
    Lcg128 Entropy;
    std::vector<UInt128> Exponents(256);
    for (UInt128 &Exponent : Exponents)
      Exponent = UInt128(Entropy.nextBits64(), Entropy.nextBits64());
    UInt128 Sink(0);
    int64_t Start = Timer.nowNanos();
    for (uint64_t Leap = 0; Leap < Leaps; ++Leap)
      Sink += Window.pow(Exponents[Leap % Exponents.size()]);
    Numbers.LeapWindowNs = nsPerOp(Timer.nowNanos() - Start, Leaps);
    Checksum ^= Sink.low();
    Sink = UInt128(0);
    Start = Timer.nowNanos();
    for (uint64_t Leap = 0; Leap < Leaps; ++Leap)
      Sink += UInt128::powModPow2(Multiplier,
                                  Exponents[Leap % Exponents.size()], 128);
    Numbers.LeapSquareMultiplyNs = nsPerOp(Timer.nowNanos() - Start, Leaps);
    Checksum ^= Sink.low();
  }
  return Numbers;
}

std::string rngJson(const RngNumbers &Numbers, bool Smoke) {
  std::string Json = "{\n";
  Json += "  \"suite\": \"rng\",\n";
  Json += std::string("  \"smoke\": ") + (Smoke ? "true" : "false") + ",\n";
  Json += std::string("  \"native_int128\": ") +
          (UInt128::hasNativeMultiply() ? "true" : "false") + ",\n";
  Json += std::string("  \"simd_backend\": \"") +
          rngsimd::backendName(rngsimd::CompiledBackend) + "\",\n";
  Json += std::string("  \"batch_kernel\": \"") + Lcg128::batchKernelName() +
          "\",\n";
  Json += std::string("  \"simd_bit_equal\": ") +
          (Numbers.SimdBitEqual ? "true" : "false") + ",\n";
  Json += "  \"draws\": " + std::to_string(Numbers.Draws) + ",\n";
  Json += "  \"results\": {\n";
  Json += "    \"mul128_fast_ns_per_op\": " +
          formatDouble(Numbers.FastMulNs) + ",\n";
  Json += "    \"mul128_portable_ns_per_op\": " +
          formatDouble(Numbers.PortableMulNs) + ",\n";
  Json += "    \"next_uniform_ns_per_draw\": " +
          formatDouble(Numbers.ScalarNs) + ",\n";
  Json += "    \"fill_batch_ns_per_draw\": " +
          formatDouble(Numbers.BatchNs) + ",\n";
  Json += "    \"fill_batch_four_lane_ns_per_draw\": " +
          formatDouble(Numbers.FourLaneNs) + ",\n";
  Json += "    \"fill_batch_bits64_ns_per_draw\": " +
          formatDouble(Numbers.BatchBitsNs) + ",\n";
  Json += "    \"fill_block_leap_ns_per_draw\": " +
          formatDouble(Numbers.BlockLeapNs) + ",\n";
  Json += "    \"philox_next_uniform_ns_per_draw\": " +
          formatDouble(Numbers.PhiloxScalarNs) + ",\n";
  Json += "    \"philox_fill_ns_per_draw\": " +
          formatDouble(Numbers.PhiloxBatchNs) + ",\n";
  Json += "    \"leap_window_ns_per_leap\": " +
          formatDouble(Numbers.LeapWindowNs) + ",\n";
  Json += "    \"leap_square_multiply_ns_per_leap\": " +
          formatDouble(Numbers.LeapSquareMultiplyNs) + "\n";
  Json += "  },\n";
  Json += "  \"speedups\": {\n";
  Json += "    \"fast_vs_portable_multiply\": " +
          formatDouble(Numbers.FastMulNs > 0.0
                           ? Numbers.PortableMulNs / Numbers.FastMulNs
                           : 0.0) +
          ",\n";
  Json += "    \"batch_vs_scalar_uniform\": " +
          formatDouble(Numbers.BatchNs > 0.0
                           ? Numbers.ScalarNs / Numbers.BatchNs
                           : 0.0) +
          ",\n";
  Json += "    \"wide_vs_four_lane_batch\": " +
          formatDouble(Numbers.BatchNs > 0.0
                           ? Numbers.FourLaneNs / Numbers.BatchNs
                           : 0.0) +
          ",\n";
  Json += "    \"philox_batch_vs_scalar\": " +
          formatDouble(Numbers.PhiloxBatchNs > 0.0
                           ? Numbers.PhiloxScalarNs / Numbers.PhiloxBatchNs
                           : 0.0) +
          ",\n";
  Json += "    \"window_vs_square_multiply_leap\": " +
          formatDouble(Numbers.LeapWindowNs > 0.0
                           ? Numbers.LeapSquareMultiplyNs /
                                 Numbers.LeapWindowNs
                           : 0.0) +
          "\n";
  Json += "  },\n";
  char Hex[32];
  std::snprintf(Hex, sizeof Hex, "0x%016" PRIx64, Checksum);
  Json += std::string("  \"checksum\": \"") + Hex + "\"\n";
  Json += "}\n";
  return Json;
}

int usage(const char *Program) {
  std::fprintf(stderr, "usage: %s [--smoke] [--out DIR]\n", Program);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int Index = 1; Index < Argc; ++Index) {
    if (std::strcmp(Argv[Index], "--smoke") == 0) {
      Opts.Smoke = true;
    } else if (std::strcmp(Argv[Index], "--out") == 0 && Index + 1 < Argc) {
      Opts.OutDir = Argv[++Index];
    } else {
      return usage(Argv[0]);
    }
  }
  if (Status Created = createDirectories(Opts.OutDir); !Created) {
    std::fprintf(stderr, "mcbench: cannot create %s: %s\n",
                 Opts.OutDir.c_str(), Created.toString().c_str());
    return 1;
  }

  const uint64_t Draws = Opts.Smoke ? (uint64_t(1) << 16)
                                    : (uint64_t(1) << 24);
  const RngNumbers Numbers = runRngSuite(Draws);
  const std::string Path = Opts.OutDir + "/BENCH_rng.json";
  if (Status Written = writeFileAtomic(Path, rngJson(Numbers, Opts.Smoke));
      !Written) {
    std::fprintf(stderr, "mcbench: %s\n", Written.toString().c_str());
    return 1;
  }
  std::printf("mcbench: wrote %s (fast multiply %.2f ns, portable %.2f "
              "ns, batch %.2f ns/draw)\n",
              Path.c_str(), Numbers.FastMulNs, Numbers.PortableMulNs,
              Numbers.BatchNs);
  if (!Numbers.SimdBitEqual) {
    std::fprintf(stderr, "mcbench: simd_bit_equal is false: a dispatched "
                         "kernel disagrees with its oracle\n");
    return 1;
  }
  return 0;
}
