//===- tests/core/TimerContractTest.cpp - The engine's routine timer ------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The engine times every routine call it makes ("runner.realization") and
// a traced benchmark checks its own in-routine spans against that timer.
// The check is only sound while the engine keeps three promises, pinned
// here under both transports:
//  - the timer counts exactly the calls made in the calling process: rank
//    0's under the process transport, every rank's under threads;
//  - each timed window contains the whole call, so the engine-timed sum is
//    at least the sum of the routine's own clock spans;
//  - every OnSavePoint callback runs on the thread that runs rank 0's
//    routine calls (the calling thread under the process transport), which
//    is how the benchmark finds rank 0's spans.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"

#include <gtest/gtest.h>

// mclint: allow-file(R8): the probe routine records which rank thread made
// each call and how long it took; that is test instrumentation observing
// the engine, not state shared between ranks.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_timer_" + Name + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// What the routine saw of itself in this process: every call (all four
/// rank threads under threads, rank 0 alone under processes, whose
/// children count in their own copies), the time inside it, and the
/// calls made on each thread.
std::atomic<int64_t> HostedCalls{0};
std::atomic<int64_t> HostedSelfNanos{0};
std::mutex CallsMutex;
std::map<std::thread::id, int64_t> CallsByThread;

int64_t steadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void timedRealization(RandomSource &Source, double *Out) {
  const int64_t Start = steadyNanos();
  double Sum = 0.0;
  for (int Draw = 0; Draw < 64; ++Draw)
    Sum += Source.nextUniform();
  Out[0] = Sum;
  HostedSelfNanos.fetch_add(steadyNanos() - Start, std::memory_order_relaxed);
  HostedCalls.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(CallsMutex);
  ++CallsByThread[std::this_thread::get_id()];
}

TEST(TimerContract, EngineTimerCoversTheRoutineCallsItHosts) {
  for (const TransportKind Kind :
       {TransportKind::Threads, TransportKind::Processes}) {
    SCOPED_TRACE(transportName(Kind));
    ScratchDir Work(transportName(Kind));
    RunConfig Config;
    Config.MaxSampleVolume = 400;
    Config.ProcessorCount = 4;
    Config.DeterministicSchedule = true;
    Config.Transport = Kind;
    Config.WorkDir = Work.path();
    Config.PassPeriodNanos = 0;
    Config.AveragePeriodNanos = 5'000'000;
    // Save-points are delivered one at a time, by the collector.
    std::vector<std::thread::id> SavePointThreads;
    Config.OnSavePoint = [&](const RunProgress &) {
      SavePointThreads.push_back(std::this_thread::get_id());
    };

    HostedCalls = 0;
    HostedSelfNanos = 0;
    CallsByThread.clear();
    Result<RunReport> Report = runSimulation(timedRealization, Config);
    ASSERT_TRUE(Report) << Report.status().message();
    const RunReport &Run = Report.value();
    ASSERT_EQ(Run.PerProcessorVolumes.size(), 4u);
    EXPECT_EQ(Run.NewSampleVolume, 400);

    // The timer counts exactly the calls made in this process ...
    const obs::LatencySummary *EngineTimed =
        Run.Metrics.latencySummary("runner.realization");
    ASSERT_NE(EngineTimed, nullptr);
    const int64_t Hosted = Kind == TransportKind::Processes
                               ? Run.PerProcessorVolumes[0]
                               : Run.NewSampleVolume;
    EXPECT_EQ(EngineTimed->Count, Hosted);
    EXPECT_EQ(HostedCalls.load(), Hosted);
    // ... its windows hold the routine's own spans ...
    EXPECT_GT(HostedSelfNanos.load(), 0);
    EXPECT_GE(EngineTimed->SumNanos, HostedSelfNanos.load());
    // ... and save-points are delivered on the thread that made rank 0's
    // calls: the calling thread itself under the process transport.
    ASSERT_FALSE(SavePointThreads.empty());
    const std::thread::id Collector = SavePointThreads.front();
    for (const std::thread::id Delivered : SavePointThreads)
      EXPECT_EQ(Delivered, Collector);
    EXPECT_EQ(CallsByThread[Collector], Run.PerProcessorVolumes[0]);
    if (Kind == TransportKind::Processes) {
      EXPECT_EQ(Collector, std::this_thread::get_id());
    }
  }
}

} // namespace
} // namespace parmonc
