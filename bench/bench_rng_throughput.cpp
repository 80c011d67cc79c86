//===- bench/bench_rng_throughput.cpp - RNG speed comparison --------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// §2.4 calls the generator "fairly fast": ns per base random number for
// rnd128 (the 128-bit LCG) against the short-period LCG40, the modern
// 64-bit baselines, and std::mt19937_64. Google-benchmark binary.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Baselines.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/LcgPow2.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/StreamHierarchy.h"

#include "benchmark/benchmark.h"

#include <random>
#include <vector>

namespace {

using namespace parmonc;

void BM_Lcg128_Uniform(benchmark::State &State) {
  Lcg128 Generator;
  double Sink = 0.0;
  for (auto _ : State)
    Sink += Generator.nextUniform();
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Lcg128_Uniform);

void BM_Lcg128_Bits(benchmark::State &State) {
  Lcg128 Generator;
  uint64_t Sink = 0;
  for (auto _ : State)
    Sink ^= Generator.nextBits64();
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Lcg128_Bits);

// The four-lane batch kernel against the scalar loop above: same
// sequence, but the multiply dependency chain is broken across lanes.
void BM_Lcg128_FillBatch(benchmark::State &State) {
  Lcg128 Generator;
  std::vector<double> Buffer(size_t(State.range(0)));
  double Sink = 0.0;
  for (auto _ : State) {
    Generator.fillBatch(Buffer.data(), Buffer.size());
    Sink += Buffer.back();
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_Lcg128_FillBatch)->Arg(64)->Arg(1024)->Arg(16384);

// Portable reference multiply on the same serial recurrence: what the
// generator costs on targets without unsigned __int128.
void BM_Lcg128_PortableMultiplyChain(benchmark::State &State) {
  UInt128 Value(1);
  const UInt128 Multiplier = Lcg128::defaultMultiplier();
  for (auto _ : State)
    Value = mul128Portable(Value, Multiplier);
  benchmark::DoNotOptimize(Value);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Lcg128_PortableMultiplyChain);

// Block-leap kernel: 64 realization prefixes per call, block starts
// advanced by the §2.4 auxiliary generator.
void BM_Lcg128_FillBlockLeap(benchmark::State &State) {
  const UInt128 Leap = LeapTable().realizationLeap();
  Lcg128 Generator;
  const size_t DrawsPerBlock = size_t(State.range(0));
  std::vector<double> Buffer(64 * DrawsPerBlock);
  double Sink = 0.0;
  for (auto _ : State) {
    Generator.fillBlockLeap(Buffer.data(), 64, DrawsPerBlock, Leap);
    Sink += Buffer.back();
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations() * int64_t(Buffer.size()));
}
BENCHMARK(BM_Lcg128_FillBlockLeap)->Arg(64)->Arg(256);

void BM_Lcg40_Uniform(benchmark::State &State) {
  LcgPow2 Generator = LcgPow2::makeClassic40();
  double Sink = 0.0;
  for (auto _ : State)
    Sink += Generator.nextUniform();
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Lcg40_Uniform);

void BM_SplitMix64_Uniform(benchmark::State &State) {
  SplitMix64 Generator(1);
  double Sink = 0.0;
  for (auto _ : State)
    Sink += Generator.nextUniform();
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SplitMix64_Uniform);

void BM_Xoshiro256_Uniform(benchmark::State &State) {
  Xoshiro256StarStar Generator(1);
  double Sink = 0.0;
  for (auto _ : State)
    Sink += Generator.nextUniform();
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Xoshiro256_Uniform);

void BM_Philox_Uniform(benchmark::State &State) {
  Philox Generator(1);
  double Sink = 0.0;
  for (auto _ : State)
    Sink += Generator.nextUniform();
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Philox_Uniform);

void BM_Mcg64_Uniform(benchmark::State &State) {
  Mcg64 Generator(1);
  double Sink = 0.0;
  for (auto _ : State)
    Sink += Generator.nextUniform();
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Mcg64_Uniform);

void BM_StdMt19937_64_Uniform(benchmark::State &State) {
  std::mt19937_64 Generator(1);
  std::uniform_real_distribution<double> Uniform(0.0, 1.0);
  double Sink = 0.0;
  for (auto _ : State)
    Sink += Uniform(Generator);
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StdMt19937_64_Uniform);

// Stream creation cost: what the engine pays per realization boundary
// (one 128-bit multiply) — §2.4's point that leaping is effectively free.
void BM_RealizationCursor_Begin(benchmark::State &State) {
  StreamHierarchy Hierarchy{LeapTable()};
  RealizationCursor Cursor(Hierarchy, {0, 0, 0});
  for (auto _ : State) {
    Lcg128 Stream = Cursor.beginRealization();
    benchmark::DoNotOptimize(Stream);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RealizationCursor_Begin);

} // namespace

BENCHMARK_MAIN();
