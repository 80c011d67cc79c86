//===- bench/bench_rng_throughput.cpp - RNG speed comparison --------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// §2.4 calls the generator "fairly fast": ns per base random number for
// rnd128 (the 128-bit LCG) against the short-period LCG40, the modern
// 64-bit baselines, and std::mt19937_64. Google-benchmark binary. The
// batch, portable-multiply and block-leap kernels are measured by mcbench
// (BENCH_rng.json); stream creation by bench_leap_setup.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Baselines.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/LcgPow2.h"
#include "parmonc/rng/Philox.h"

#include "benchmark/benchmark.h"

#include <random>

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

} // namespace

BENCHMARK_MAIN();
