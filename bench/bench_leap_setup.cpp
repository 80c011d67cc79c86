//===- bench/bench_leap_setup.cpp - Leap / stream setup cost --------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// §2.4/§3.5 ablation: the stream hierarchy is practical only because
// computing A(n) = A^n (mod 2^128) is O(log n) 128-bit multiplies and
// per-realization leaping is a single multiply. This bench measures
// A(2^k) computation across the exponent range, full LeapTable and
// hierarchy initialization, and initialNumber() for deep coordinates.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/StreamHierarchy.h"

#include "benchmark/benchmark.h"

namespace {

using namespace parmonc;

void BM_PowMod_LeapMultiplier(benchmark::State &State) {
  const unsigned Exponent = unsigned(State.range(0));
  const UInt128 Base = Lcg128::defaultMultiplier();
  for (auto _ : State) {
    UInt128 Leap =
        UInt128::powModPow2(Base, UInt128::powerOfTwo(Exponent), 128);
    benchmark::DoNotOptimize(Leap);
  }
}
BENCHMARK(BM_PowMod_LeapMultiplier)
    ->Arg(10)
    ->Arg(43)
    ->Arg(64)
    ->Arg(98)
    ->Arg(115);

void BM_LeapTable_Construct(benchmark::State &State) {
  for (auto _ : State) {
    LeapTable Table;
    benchmark::DoNotOptimize(Table);
  }
}
BENCHMARK(BM_LeapTable_Construct);

void BM_Hierarchy_InitialNumber(benchmark::State &State) {
  StreamHierarchy Hierarchy{LeapTable()};
  StreamCoordinates Where{900, 130000, (uint64_t(1) << 54)};
  for (auto _ : State) {
    UInt128 Initial = Hierarchy.initialNumber(Where);
    benchmark::DoNotOptimize(Initial);
  }
}
BENCHMARK(BM_Hierarchy_InitialNumber);

// Stream creation cost: what the engine pays per realization boundary
// (one 128-bit multiply) — §2.4's point that leaping is effectively free.
void BM_Cursor_BeginRealization(benchmark::State &State) {
  StreamHierarchy Hierarchy{LeapTable()};
  RealizationCursor Cursor(Hierarchy, {0, 0, 0});
  for (auto _ : State) {
    Lcg128 Stream = Cursor.beginRealization();
    benchmark::DoNotOptimize(Stream);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Cursor_BeginRealization);

// The naive alternative the leap replaces: stepping the generator. Even
// 2^20 sequential steps dwarf one powmod; 2^43 would take hours.
void BM_SequentialStepping(benchmark::State &State) {
  const int64_t Steps = State.range(0);
  Lcg128 Generator;
  for (auto _ : State) {
    for (int64_t Step = 0; Step < Steps; ++Step)
      benchmark::DoNotOptimize(Generator.nextRaw());
  }
  State.SetItemsProcessed(State.iterations() * Steps);
}
BENCHMARK(BM_SequentialStepping)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

} // namespace

BENCHMARK_MAIN();
