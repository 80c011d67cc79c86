//===- tools/mcbench.cpp - Performance benchmark harness ------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//
//   $ mcbench [--smoke] [--out DIR] [--rng-only] [--runner-only]
//             [--ckpt-only] [--transport threads|processes]
//
// Measures the performance layer end to end and records the numbers as
// machine-readable JSON:
//
//   DIR/BENCH_rng.json     ns per 128-bit multiply (native vs portable),
//                          ns per draw for scalar nextUniform(), the
//                          four-lane fillBatch() kernel, fillBatchBits64()
//                          and the block-leap kernel, plus the derived
//                          speedup ratios.
//   DIR/BENCH_runner.json  realizations/sec of the run engine at 1, 2 and
//                          4 worker threads per rank, with speedup and
//                          parallel efficiency relative to the serial
//                          engine, for a latency-bound and a CPU-bound
//                          workload. With --transport processes the sweep
//                          scales forked worker PROCESSES over the socket
//                          transport instead of threads, measuring the
//                          wire's overhead against the in-process fabric.
//   DIR/BENCH_ckpt.json    save-point stall (the collector time spent
//                          inside its checkpoint save) for the sharded
//                          synchronous commit path versus the background
//                          writer, at an aggressive save-every-poll
//                          cadence — plus the coalescing count and a
//                          bit-equality check of the final means, since
//                          the writer may drop generations but must never
//                          change results.
//
// --smoke shrinks every size so the whole harness finishes in well under a
// second — that is what the bench-smoke CI job and the ctest smoke test
// run. Interpretation guidance lives in docs/PERFORMANCE.md.
//
// The engine runs write their parmonc_data/ tree under DIR/mcbench_work.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"
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
#include <unistd.h>
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
  bool RngOnly = false;
  bool RunnerOnly = false;
  bool CkptOnly = false;
  std::string OutDir = ".";
  TransportKind Transport = TransportKind::Threads;
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

// --- Runner suite ----------------------------------------------------------

struct SeriesPoint {
  int Threads = 1;
  double Seconds = 0.0;
  double RealizationsPerSec = 0.0;
  double Mean = 0.0;
  int64_t Volume = 0;
};

/// One engine run at \p Threads parallel lanes: worker threads on one
/// simulated processor under the thread transport, or that many forked
/// rank processes over the socket transport.
SeriesPoint runEngineOnce(const RealizationFn &Realization,
                          int64_t Realizations, int Threads,
                          TransportKind Transport,
                          const std::string &WorkDir) {
  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 1;
  Config.MaxSampleVolume = Realizations;
  Config.Transport = Transport;
  if (Transport == TransportKind::Processes) {
    Config.ProcessorCount = Threads;
    Config.WorkerThreadsPerRank = 1;
  } else {
    Config.ProcessorCount = 1;
    Config.WorkerThreadsPerRank = Threads;
  }
  Config.DeterministicSchedule = true;
  Config.PassPeriodNanos = 50'000'000;
  Config.AveragePeriodNanos = 200'000'000;
  Config.WorkDir = WorkDir;

  Result<RunReport> Outcome = runSimulation(Realization, Config);
  if (!Outcome) {
    std::fprintf(stderr, "mcbench: engine run failed: %s\n",
                 Outcome.status().toString().c_str());
    std::exit(1);
  }
  SeriesPoint Point;
  Point.Threads = Threads;
  Point.Seconds = Outcome.value().ElapsedSeconds;
  Point.Volume = Outcome.value().NewSampleVolume;
  Point.RealizationsPerSec =
      Point.Seconds > 0.0 ? double(Point.Volume) / Point.Seconds : 0.0;
  ResultsStore Store(WorkDir);
  if (Result<std::vector<double>> Means = Store.readMeans(1, 1))
    Point.Mean = Means.value()[0];
  return Point;
}

std::string seriesJson(const std::vector<SeriesPoint> &Series) {
  const double SerialSeconds = Series.empty() ? 0.0 : Series.front().Seconds;
  std::string Json = "[\n";
  for (size_t Index = 0; Index < Series.size(); ++Index) {
    const SeriesPoint &Point = Series[Index];
    const double Speedup =
        Point.Seconds > 0.0 ? SerialSeconds / Point.Seconds : 0.0;
    Json += "      {\"threads\": " + std::to_string(Point.Threads) +
            ", \"seconds\": " + formatDouble(Point.Seconds) +
            ", \"realizations_per_sec\": " +
            formatDouble(Point.RealizationsPerSec) +
            ", \"speedup\": " + formatDouble(Speedup) +
            ", \"efficiency\": " +
            formatDouble(Speedup / double(Point.Threads)) +
            ", \"volume\": " + std::to_string(Point.Volume) +
            ", \"mean\": " + formatDouble(Point.Mean) + "}";
    Json += Index + 1 < Series.size() ? ",\n" : "\n";
  }
  Json += "    ]";
  return Json;
}

std::string runRunnerSuite(bool Smoke, const std::string &OutDir,
                           TransportKind Transport) {
  const std::string WorkDir = OutDir + "/mcbench_work";
  if (Status Created = createDirectories(WorkDir); !Created) {
    std::fprintf(stderr, "mcbench: cannot create %s: %s\n", WorkDir.c_str(),
                 Created.toString().c_str());
    std::exit(1);
  }
  const std::vector<int> ThreadCounts = {1, 2, 4};

  // Latency-bound workload: each realization is dominated by waiting (the
  // shape of simulations bound by I/O, device latency or a co-model), so
  // threads overlap wall-clock even on a single core. The observable is an
  // integer-valued indicator, which keeps the moment sums exactly summable
  // — so the per-thread-count means must agree exactly.
  const int64_t SleepNanos = Smoke ? 50'000 : 200'000;
  const int64_t LatencyRealizations = Smoke ? 64 : 2000;
  RealizationFn LatencyBound = [SleepNanos](RandomSource &Source,
                                            double *Out) {
    const double Draw = Source.nextUniform();
    Timer.sleepNanos(SleepNanos);
    Out[0] = Draw < 0.5 ? 1.0 : 0.0;
  };
  std::vector<SeriesPoint> Latency;
  for (int Threads : ThreadCounts)
    Latency.push_back(runEngineOnce(LatencyBound, LatencyRealizations,
                                    Threads, Transport, WorkDir));

  // CPU-bound workload: pure arithmetic through the batched RNG kernel.
  // On a single-core host this series cannot scale (documented in
  // docs/PERFORMANCE.md); on a multi-core host it shows the compute
  // speedup directly.
  const size_t DrawsPerRealization = Smoke ? 256 : 2048;
  const int64_t CpuRealizations = Smoke ? 128 : 20000;
  RealizationFn CpuBound = [DrawsPerRealization](RandomSource &Source,
                                                 double *Out) {
    std::vector<double> Buffer(DrawsPerRealization);
    Source.fillUniforms(Buffer.data(), Buffer.size());
    double Below = 0.0;
    for (double Draw : Buffer)
      Below += Draw < 0.5 ? 1.0 : 0.0;
    Out[0] = Below;
  };
  std::vector<SeriesPoint> Cpu;
  for (int Threads : ThreadCounts)
    Cpu.push_back(
        runEngineOnce(CpuBound, CpuRealizations, Threads, Transport, WorkDir));

  std::string Json = "{\n";
  Json += "  \"suite\": \"runner\",\n";
  Json += std::string("  \"transport\": \"") + transportName(Transport) +
          "\",\n";
  Json += std::string("  \"smoke\": ") + (Smoke ? "true" : "false") + ",\n";
  Json += "  \"host_cpus\": " +
          std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ",\n";
  Json += "  \"latency_bound\": {\n";
  Json += "    \"realizations\": " + std::to_string(LatencyRealizations) +
          ",\n";
  Json += "    \"sleep_us_per_realization\": " +
          std::to_string(SleepNanos / 1000) + ",\n";
  Json += "    \"series\": " + seriesJson(Latency) + "\n";
  Json += "  },\n";
  Json += "  \"cpu_bound\": {\n";
  Json += "    \"realizations\": " + std::to_string(CpuRealizations) + ",\n";
  Json += "    \"draws_per_realization\": " +
          std::to_string(DrawsPerRealization) + ",\n";
  Json += "    \"series\": " + seriesJson(Cpu) + "\n";
  Json += "  }\n";
  Json += "}\n";
  return Json;
}

// --- Checkpoint suite ------------------------------------------------------

struct CkptPoint {
  double Seconds = 0.0;
  int64_t SavePoints = 0;
  int64_t Commits = 0;
  int64_t Coalesced = 0;
  double StallMeanUs = 0.0;
  double StallP90Us = 0.0;
  double StallMaxUs = 0.0;
  double Mean = 0.0;
};

/// One sharded-checkpoint engine run on the real clock, saving at every
/// collector poll — the cadence that makes save-point stall dominate, so
/// the synchronous commit and the background writer separate cleanly.
CkptPoint runCkptOnce(bool Async, int64_t Realizations,
                      const std::string &WorkDir) {
  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 1;
  Config.MaxSampleVolume = Realizations;
  Config.ProcessorCount = 2;
  Config.DeterministicSchedule = true;
  Config.AveragePeriodNanos = 0; // a save point at every collector poll
  Config.WorkDir = WorkDir;
  Config.CheckpointShards = true;
  Config.CheckpointAsync = Async;
  Config.CheckpointQueueDepth = 4;
  RealizationFn Indicator = [](RandomSource &Source, double *Out) {
    Out[0] = Source.nextUniform() < 0.5 ? 1.0 : 0.0;
  };
  Result<RunReport> Outcome = runSimulation(Indicator, Config);
  if (!Outcome) {
    std::fprintf(stderr, "mcbench: ckpt run failed: %s\n",
                 Outcome.status().toString().c_str());
    std::exit(1);
  }
  const RunReport &Report = Outcome.value();
  CkptPoint Point;
  Point.Seconds = Report.ElapsedSeconds;
  Point.SavePoints = Report.SavePointCount;
  Point.Coalesced = Report.CoalescedCheckpoints;
  if (const int64_t *Commits = Report.Metrics.counterValue("ckpt.commits"))
    Point.Commits = *Commits;
  if (const obs::LatencySummary *Stall =
          Report.Metrics.latencySummary("ckpt.save_stall")) {
    Point.StallMeanUs = Stall->meanNanos() / 1000.0;
    Point.StallP90Us = double(Stall->quantileUpperNanos(0.9)) / 1000.0;
    Point.StallMaxUs = double(Stall->MaxNanos) / 1000.0;
  }
  ResultsStore Store(WorkDir);
  if (Result<std::vector<double>> Means = Store.readMeans(1, 1))
    Point.Mean = Means.value()[0];
  Checksum ^= uint64_t(Point.SavePoints) ^ uint64_t(Point.Commits);
  return Point;
}

std::string ckptPointJson(const CkptPoint &Point) {
  std::string Json = "{\n";
  Json += "    \"seconds\": " + formatDouble(Point.Seconds) + ",\n";
  Json += "    \"save_points\": " + std::to_string(Point.SavePoints) + ",\n";
  Json += "    \"committed_generations\": " + std::to_string(Point.Commits) +
          ",\n";
  Json += "    \"coalesced_saves\": " + std::to_string(Point.Coalesced) +
          ",\n";
  Json += "    \"save_stall_mean_us\": " + formatDouble(Point.StallMeanUs) +
          ",\n";
  Json += "    \"save_stall_p90_us\": " + formatDouble(Point.StallP90Us) +
          ",\n";
  Json += "    \"save_stall_max_us\": " + formatDouble(Point.StallMaxUs) +
          ",\n";
  Json += "    \"mean\": " + formatDouble(Point.Mean) + "\n";
  Json += "  }";
  return Json;
}

std::string runCkptSuite(bool Smoke, const std::string &OutDir) {
  const std::string WorkRoot = OutDir + "/mcbench_work";
  const int64_t Realizations = Smoke ? 128 : 1024;
  const CkptPoint Sync =
      runCkptOnce(/*Async=*/false, Realizations, WorkRoot + "/ckpt_sync");
  const CkptPoint Async =
      runCkptOnce(/*Async=*/true, Realizations, WorkRoot + "/ckpt_async");

  std::string Json = "{\n";
  Json += "  \"suite\": \"ckpt\",\n";
  Json += std::string("  \"smoke\": ") + (Smoke ? "true" : "false") + ",\n";
  Json += "  \"ranks\": 2,\n";
  Json += "  \"realizations\": " + std::to_string(Realizations) + ",\n";
  Json += "  \"queue_depth\": 4,\n";
  Json += "  \"sync\": " + ckptPointJson(Sync) + ",\n";
  Json += "  \"async\": " + ckptPointJson(Async) + ",\n";
  Json += "  \"stall_reduction_mean\": " +
          formatDouble(Async.StallMeanUs > 0.0
                           ? Sync.StallMeanUs / Async.StallMeanUs
                           : 0.0) +
          ",\n";
  // The background writer buys latency by SKIPPING generations, never by
  // changing state: the two runs must land on bit-identical estimates.
  Json += std::string("  \"means_bit_equal\": ") +
          (Sync.Mean == Async.Mean ? "true" : "false") + "\n";
  Json += "}\n";
  return Json;
}

int usage(const char *Program) {
  std::fprintf(stderr,
               "usage: %s [--smoke] [--out DIR] [--rng | --rng-only] "
               "[--runner-only] [--ckpt-only] "
               "[--transport threads|processes]\n",
               Program);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int Index = 1; Index < Argc; ++Index) {
    if (std::strcmp(Argv[Index], "--smoke") == 0) {
      Opts.Smoke = true;
    } else if (std::strcmp(Argv[Index], "--rng-only") == 0 ||
               std::strcmp(Argv[Index], "--rng") == 0) {
      Opts.RngOnly = true;
    } else if (std::strcmp(Argv[Index], "--runner-only") == 0) {
      Opts.RunnerOnly = true;
    } else if (std::strcmp(Argv[Index], "--ckpt-only") == 0) {
      Opts.CkptOnly = true;
    } else if (std::strcmp(Argv[Index], "--out") == 0 && Index + 1 < Argc) {
      Opts.OutDir = Argv[++Index];
    } else if (std::strcmp(Argv[Index], "--transport") == 0 &&
               Index + 1 < Argc) {
      std::optional<TransportKind> Parsed = parseTransport(Argv[++Index]);
      if (!Parsed)
        return usage(Argv[0]);
      Opts.Transport = *Parsed;
    } else {
      return usage(Argv[0]);
    }
  }
  if (int(Opts.RngOnly) + int(Opts.RunnerOnly) + int(Opts.CkptOnly) > 1)
    return usage(Argv[0]);
  if (Status Created = createDirectories(Opts.OutDir); !Created) {
    std::fprintf(stderr, "mcbench: cannot create %s: %s\n",
                 Opts.OutDir.c_str(), Created.toString().c_str());
    return 1;
  }

  if (!Opts.RunnerOnly && !Opts.CkptOnly) {
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
  }
  if (!Opts.RngOnly && !Opts.CkptOnly) {
    const std::string Json =
        runRunnerSuite(Opts.Smoke, Opts.OutDir, Opts.Transport);
    const std::string Path = Opts.OutDir + "/BENCH_runner.json";
    if (Status Written = writeFileAtomic(Path, Json); !Written) {
      std::fprintf(stderr, "mcbench: %s\n", Written.toString().c_str());
      return 1;
    }
    std::printf("mcbench: wrote %s\n", Path.c_str());
  }
  if (!Opts.RngOnly && !Opts.RunnerOnly) {
    const std::string Json = runCkptSuite(Opts.Smoke, Opts.OutDir);
    const std::string Path = Opts.OutDir + "/BENCH_ckpt.json";
    if (Status Written = writeFileAtomic(Path, Json); !Written) {
      std::fprintf(stderr, "mcbench: %s\n", Written.toString().c_str());
      return 1;
    }
    std::printf("mcbench: wrote %s\n", Path.c_str());
  }
  return 0;
}
