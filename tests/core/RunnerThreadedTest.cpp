//===- tests/core/RunnerThreadedTest.cpp - Threaded engine equality -------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The threaded realization engine's contract: with a fixed stream
// assignment (DeterministicSchedule), running N worker threads per rank
// consumes exactly the substreams the serial engine would, and — because
// the workloads here produce integer-valued observables whose sums are
// exact in double precision — the merged moment sums are bit-identical to
// the serial run, thread count and scheduling notwithstanding.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"

#include "parmonc/fault/FaultPlan.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread> // mclint: allow(R8): sleep helper only
#include <vector>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_threaded_" + Name + "_" + std::to_string(Counter++)))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  const std::string &path() const { return Path; }

private:
  static inline int Counter = 0;
  std::string Path;
};

/// Integer-valued 1x2 realization: [indicator(u < 1/2), floor(16 u)].
/// Every accumulated sum (values and squares) is an integer well inside
/// 2^53, so floating-point addition over them is exact and associative —
/// merge order cannot change the sums.
void integerRealization(RandomSource &Source, double *Out) {
  const double Draw = Source.nextUniform();
  Out[0] = Draw < 0.5 ? 1.0 : 0.0;
  Out[1] = std::floor(Draw * 16.0);
}

RunConfig threadedConfig(const std::string &WorkDir, int Threads) {
  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 2;
  Config.MaxSampleVolume = 203; // odd on purpose: uneven quota remainders
  Config.ProcessorCount = 2;
  Config.WorkerThreadsPerRank = Threads;
  Config.DeterministicSchedule = true;
  Config.PassPeriodNanos = 1'000'000;
  Config.AveragePeriodNanos = 2'000'000;
  Config.WorkDir = WorkDir;
  return Config;
}

/// Runs to completion and returns the final checkpoint snapshot.
MomentSnapshot runAndLoad(const RunConfig &Config, RunReport *ReportOut,
                          const RealizationFn &Routine = integerRealization) {
  Result<RunReport> Outcome = runSimulation(Routine, Config);
  EXPECT_TRUE(Outcome.isOk()) << Outcome.status().toString();
  if (ReportOut)
    *ReportOut = Outcome.value();
  ResultsStore Store(Config.WorkDir);
  Result<MomentSnapshot> Snapshot =
      Store.readSnapshot(Store.checkpointPath()); // mclint: allow(R7): asserting on the sealed generation directly
  EXPECT_TRUE(Snapshot.isOk()) << Snapshot.status().toString();
  return std::move(Snapshot).value();
}

void expectIdenticalSums(const MomentSnapshot &A, const MomentSnapshot &B) {
  ASSERT_EQ(A.Moments.sampleVolume(), B.Moments.sampleVolume());
  ASSERT_EQ(A.Moments.valueSums().size(), B.Moments.valueSums().size());
  for (size_t Index = 0; Index < A.Moments.valueSums().size(); ++Index) {
    EXPECT_EQ(A.Moments.valueSums()[Index], B.Moments.valueSums()[Index])
        << "value sum " << Index;
    EXPECT_EQ(A.Moments.squareSums()[Index], B.Moments.squareSums()[Index])
        << "square sum " << Index;
  }
}

TEST(RunnerThreaded, FourThreadsMatchSerialMomentSumsBitExactly) {
  ScratchDir SerialDir("serial"), ThreadedDir("threads4");
  RunReport SerialReport, ThreadedReport;
  const MomentSnapshot Serial =
      runAndLoad(threadedConfig(SerialDir.path(), 1), &SerialReport);
  const MomentSnapshot Threaded =
      runAndLoad(threadedConfig(ThreadedDir.path(), 4), &ThreadedReport);

  expectIdenticalSums(Serial, Threaded);
  EXPECT_EQ(SerialReport.TotalSampleVolume, ThreadedReport.TotalSampleVolume);
  EXPECT_EQ(SerialReport.PerProcessorVolumes,
            ThreadedReport.PerProcessorVolumes);
  // Identical sums over identical volumes: the published errors match too.
  EXPECT_EQ(SerialReport.MaxAbsoluteError, ThreadedReport.MaxAbsoluteError);
}

TEST(RunnerThreaded, EveryThreadCountAgrees) {
  ScratchDir BaseDir("base");
  const MomentSnapshot Serial =
      runAndLoad(threadedConfig(BaseDir.path(), 1), nullptr);
  for (int Threads : {2, 3, 5, 8}) {
    ScratchDir Dir("t" + std::to_string(Threads));
    const MomentSnapshot Threaded =
        runAndLoad(threadedConfig(Dir.path(), Threads), nullptr);
    expectIdenticalSums(Serial, Threaded);
  }
}

TEST(RunnerThreaded, RepeatedThreadedRunsAreDeterministic) {
  ScratchDir FirstDir("rep1"), SecondDir("rep2");
  const MomentSnapshot First =
      runAndLoad(threadedConfig(FirstDir.path(), 4), nullptr);
  const MomentSnapshot Second =
      runAndLoad(threadedConfig(SecondDir.path(), 4), nullptr);
  expectIdenticalSums(First, Second);
}

TEST(RunnerThreaded, DynamicScheduleReachesFullVolume) {
  // Without the deterministic quota split, threads claim from the shared
  // counter; the total volume must still land exactly on maxsv.
  ScratchDir Dir("dynamic");
  RunConfig Config = threadedConfig(Dir.path(), 4);
  Config.DeterministicSchedule = false;
  RunReport Report;
  (void)runAndLoad(Config, &Report);
  EXPECT_EQ(Report.TotalSampleVolume, Config.MaxSampleVolume);
}

TEST(RunnerThreaded, ThreadedRunResumesLikeSerial) {
  // Checkpoint interop: a serial run can resume a threaded run's
  // checkpoint and vice versa — snapshots carry no thread-count imprint.
  ScratchDir Dir("resume");
  RunConfig First = threadedConfig(Dir.path(), 4);
  (void)runAndLoad(First, nullptr);

  RunConfig Second = threadedConfig(Dir.path(), 1);
  Second.Resume = true;
  Second.SequenceNumber = 1; // a resumed run must switch experiments
  RunReport Report;
  const MomentSnapshot Merged = runAndLoad(Second, &Report);
  EXPECT_EQ(Merged.Moments.sampleVolume(), 2 * First.MaxSampleVolume);
  EXPECT_EQ(Report.NewSampleVolume, Second.MaxSampleVolume);
}

TEST(RunnerThreaded, ValidateRejectsBadThreadCounts) {
  ScratchDir Dir("validate");
  RunConfig Config = threadedConfig(Dir.path(), 0);
  EXPECT_FALSE(Config.validate().isOk());
  Config.WorkerThreadsPerRank = -3;
  EXPECT_FALSE(Config.validate().isOk());
  Config.WorkerThreadsPerRank = 1;
  EXPECT_TRUE(Config.validate().isOk());
}

TEST(RunnerThreaded, ValidateRejectsWorkerCrashesWithThreads) {
  // Injected worker crashes model whole-rank death; combining them with
  // intra-rank threading is rejected up front rather than half-supported.
  ScratchDir Dir("faults");
  fault::FaultPlan Plan;
  fault::WorkerCrashSpec Crash;
  Crash.Rank = 1;
  Crash.AfterRealizations = 5;
  Plan.WorkerCrashes.push_back(Crash);

  RunConfig Config = threadedConfig(Dir.path(), 4);
  Config.Faults = &Plan;
  EXPECT_FALSE(Config.validate().isOk());
  Config.WorkerThreadsPerRank = 1;
  EXPECT_TRUE(Config.validate().isOk());
}

TEST(RunnerThreaded, MoreThreadsThanQuotaStillCompletes) {
  // 3 realizations over 8 threads on 1 rank: most threads have a zero
  // quota and must still hand in an (empty) final so the rank terminates.
  ScratchDir Dir("tiny");
  RunConfig Config = threadedConfig(Dir.path(), 8);
  Config.ProcessorCount = 1;
  Config.MaxSampleVolume = 3;
  RunReport Report;
  (void)runAndLoad(Config, &Report);
  EXPECT_EQ(Report.TotalSampleVolume, 3);
}

// --- Fan-out paths beyond the deterministic full-volume run -------------

/// A routine slow enough that a 50 ms limit stops the run long before its
/// "endless" sample volume, yet fast enough to hand in many subtotals.
void slowIntegerRealization(RandomSource &Source, double *Out) {
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  integerRealization(Source, Out);
}

RunConfig timeLimitedConfig(const std::string &WorkDir, int Threads) {
  RunConfig Config = threadedConfig(WorkDir, Threads);
  Config.MaxSampleVolume = 1'000'000'000;
  Config.TimeLimitNanos = 50'000'000;
  return Config;
}

int64_t volumeSum(const RunReport &Report) {
  int64_t Sum = 0;
  for (int64_t Volume : Report.PerProcessorVolumes)
    Sum += Volume;
  return Sum;
}

/// Runs \p Config to its time limit: every rank's final subtotal must
/// still arrive, so the per-processor volumes add up to the total.
void expectTimeLimitStop(const RunConfig &Config) {
  RunReport Report;
  (void)runAndLoad(Config, &Report, slowIntegerRealization);
  EXPECT_TRUE(Report.StoppedOnTimeLimit);
  EXPECT_GT(Report.TotalSampleVolume, 0);
  EXPECT_EQ(volumeSum(Report), Report.TotalSampleVolume);
}

TEST(RunnerThreaded, ProcessRanksMatchThreadRanksBitExactly) {
  // 2 forked ranks x 2 worker threads against the same fan-out over the
  // thread transport: the intra-rank merge must not depend on where the
  // rank lives.
  ScratchDir ThreadDir("xport_threads"), ProcessDir("xport_procs");
  RunReport ThreadReport, ProcessReport;
  RunConfig ThreadRun = threadedConfig(ThreadDir.path(), 2);
  RunConfig ProcessRun = threadedConfig(ProcessDir.path(), 2);
  ProcessRun.Transport = TransportKind::Processes;
  const MomentSnapshot OverThreads = runAndLoad(ThreadRun, &ThreadReport);
  const MomentSnapshot OverProcesses = runAndLoad(ProcessRun, &ProcessReport);
  expectIdenticalSums(OverThreads, OverProcesses);
  EXPECT_EQ(ThreadReport.PerProcessorVolumes,
            ProcessReport.PerProcessorVolumes);
  EXPECT_EQ(ProcessReport.TotalSampleVolume, ProcessRun.MaxSampleVolume);
}

TEST(RunnerThreaded, TimeLimitStopsDeterministicFanOut) {
  ScratchDir Dir("limit_det");
  expectTimeLimitStop(timeLimitedConfig(Dir.path(), 4));
}

TEST(RunnerThreaded, TimeLimitStopsDynamicFanOut) {
  ScratchDir Dir("limit_dyn");
  RunConfig Config = timeLimitedConfig(Dir.path(), 4);
  Config.DeterministicSchedule = false;
  expectTimeLimitStop(Config);
}

TEST(RunnerThreaded, TimeLimitStopsProcessFanOut) {
  ScratchDir Dir("limit_procs");
  RunConfig Config = timeLimitedConfig(Dir.path(), 2);
  Config.Transport = TransportKind::Processes;
  expectTimeLimitStop(Config);
}

TEST(RunnerThreaded, ErrorTargetStopsFourThreadsPerRank) {
  ScratchDir Dir("errtarget");
  RunConfig Config = threadedConfig(Dir.path(), 4);
  Config.MaxSampleVolume = 1'000'000'000;
  Config.TargetMaxAbsoluteError = 0.5; // floor(16 u) needs ~800 draws
  RunReport Report;
  (void)runAndLoad(Config, &Report);
  EXPECT_TRUE(Report.StoppedOnErrorTarget);
  EXPECT_LT(Report.TotalSampleVolume, Config.MaxSampleVolume);
  EXPECT_LE(Report.MaxAbsoluteError, 0.5);
  EXPECT_EQ(volumeSum(Report), Report.TotalSampleVolume);
}

TEST(RunnerThreaded, PhiloxDynamicScheduleReachesFullVolume) {
  ScratchDir Dir("philox_dynamic");
  RunConfig Config = threadedConfig(Dir.path(), 4);
  Config.DeterministicSchedule = false;
  Config.RngBackend = RngBackendKind::Philox;
  RunReport Report;
  (void)runAndLoad(Config, &Report);
  EXPECT_EQ(Report.TotalSampleVolume, Config.MaxSampleVolume);
  EXPECT_EQ(volumeSum(Report), Config.MaxSampleVolume);
  EXPECT_EQ(Report.RngBackendName, "philox");
}

} // namespace
} // namespace parmonc
