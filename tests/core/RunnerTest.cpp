//===- tests/core/RunnerTest.cpp - Engine integration tests ---------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"

#include "parmonc/sde/Distributions.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread> // mclint: allow(R8): sleep/yield helpers only

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_runner_" + Name + "_" + std::to_string(Counter++)))
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

/// Scalar U(0,1) realization: the simplest possible random object.
void uniformRealization(RandomSource &Source, double *Out) {
  Out[0] = Source.nextUniform();
}

/// 1x3 realization: [u, u², exp(u)] — known expectations 1/2, 1/3, e-1.
void momentsRealization(RandomSource &Source, double *Out) {
  const double U = Source.nextUniform();
  Out[0] = U;
  Out[1] = U * U;
  Out[2] = std::exp(U);
}

RunConfig baseConfig(const std::string &WorkDir) {
  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 1;
  Config.MaxSampleVolume = 5000;
  Config.ProcessorCount = 1;
  Config.WorkDir = WorkDir;
  return Config;
}

TEST(Runner, RejectsInvalidConfigurations) {
  ScratchDir Dir("invalid");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 0;
  EXPECT_FALSE(runSimulation(uniformRealization, Config).isOk());

  Config = baseConfig(Dir.path());
  Config.ProcessorCount = 0;
  EXPECT_FALSE(runSimulation(uniformRealization, Config).isOk());

  Config = baseConfig(Dir.path());
  Config.Rows = 0;
  EXPECT_FALSE(runSimulation(uniformRealization, Config).isOk());

  Config = baseConfig(Dir.path());
  EXPECT_FALSE(runSimulation(RealizationFn(), Config).isOk());

  Config = baseConfig(Dir.path());
  Config.SequenceNumber = uint64_t(1) << 20; // > 2^10 experiments
  EXPECT_FALSE(runSimulation(uniformRealization, Config).isOk());
}

TEST(Runner, SingleProcessorComputesExactVolume) {
  ScratchDir Dir("volume");
  RunConfig Config = baseConfig(Dir.path());
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk()) << Report.status().toString();
  EXPECT_EQ(Report.value().TotalSampleVolume, 5000);
  EXPECT_EQ(Report.value().NewSampleVolume, 5000);
  EXPECT_FALSE(Report.value().StoppedOnErrorTarget);
  EXPECT_FALSE(Report.value().StoppedOnTimeLimit);
  EXPECT_GE(Report.value().SavePointCount, 1);
}

TEST(Runner, EstimatesUniformMeanWithinReportedError) {
  ScratchDir Dir("mean");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 20000;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());

  ResultsStore Store(Dir.path());
  Result<std::vector<double>> Means = Store.readMeans(1, 1);
  ASSERT_TRUE(Means.isOk());
  EXPECT_NEAR(Means.value()[0], 0.5, Report.value().MaxAbsoluteError);
  // ε ≈ 3·0.2887/sqrt(20000) ≈ 6.1e-3.
  EXPECT_NEAR(Report.value().MaxAbsoluteError, 6.1e-3, 2e-3);
}

TEST(Runner, MatrixEstimatesAllEntries) {
  ScratchDir Dir("matrix");
  RunConfig Config = baseConfig(Dir.path());
  Config.Columns = 3;
  Config.MaxSampleVolume = 40000;
  Result<RunReport> Report = runSimulation(momentsRealization, Config);
  ASSERT_TRUE(Report.isOk());
  ResultsStore Store(Dir.path());
  Result<std::vector<double>> Means = Store.readMeans(1, 3);
  ASSERT_TRUE(Means.isOk());
  EXPECT_NEAR(Means.value()[0], 0.5, 0.01);
  EXPECT_NEAR(Means.value()[1], 1.0 / 3.0, 0.01);
  EXPECT_NEAR(Means.value()[2], std::exp(1.0) - 1.0, 0.02);
}

TEST(Runner, MultiProcessorVolumeIsExactAndDistributed) {
  ScratchDir Dir("multi");
  RunConfig Config = baseConfig(Dir.path());
  Config.ProcessorCount = 4;
  Config.MaxSampleVolume = 8000;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());
  EXPECT_EQ(Report.value().TotalSampleVolume, 8000);
  ASSERT_EQ(Report.value().PerProcessorVolumes.size(), 4u);
  // How evenly work spreads depends on the scheduler (on a single-core
  // host one thread may claim everything); what is guaranteed is that the
  // per-rank volumes are sane and add up exactly.
  int64_t Sum = 0;
  int RanksWithWork = 0;
  for (int64_t PerRank : Report.value().PerProcessorVolumes) {
    EXPECT_GE(PerRank, 0);
    RanksWithWork += PerRank > 0;
    Sum += PerRank;
  }
  EXPECT_EQ(Sum, 8000);
  EXPECT_GE(RanksWithWork, 1);
}

TEST(Runner, MultiProcessorMeanIsCorrect) {
  ScratchDir Dir("multimean");
  RunConfig Config = baseConfig(Dir.path());
  Config.ProcessorCount = 8;
  Config.MaxSampleVolume = 40000;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());
  ResultsStore Store(Dir.path());
  double Mean = Store.readMeans(1, 1).value()[0];
  EXPECT_NEAR(Mean, 0.5, Report.value().MaxAbsoluteError);
}

TEST(Runner, SingleProcessorRunsAreReproducible) {
  // With M=1 the realization-to-stream assignment is deterministic, so two
  // fresh runs must produce byte-identical means.
  ScratchDir DirA("reproA"), DirB("reproB");
  RunConfig ConfigA = baseConfig(DirA.path());
  RunConfig ConfigB = baseConfig(DirB.path());
  ASSERT_TRUE(runSimulation(uniformRealization, ConfigA).isOk());
  ASSERT_TRUE(runSimulation(uniformRealization, ConfigB).isOk());
  EXPECT_EQ(readFileToString(ResultsStore(DirA.path()).meansPath()).value(),
            readFileToString(ResultsStore(DirB.path()).meansPath()).value());
}

TEST(Runner, DifferentSequenceNumbersGiveIndependentResults) {
  ScratchDir DirA("seqA"), DirB("seqB");
  RunConfig ConfigA = baseConfig(DirA.path());
  ConfigA.SequenceNumber = 0;
  RunConfig ConfigB = baseConfig(DirB.path());
  ConfigB.SequenceNumber = 1;
  ASSERT_TRUE(runSimulation(uniformRealization, ConfigA).isOk());
  ASSERT_TRUE(runSimulation(uniformRealization, ConfigB).isOk());
  const double MeanA =
      ResultsStore(DirA.path()).readMeans(1, 1).value()[0];
  const double MeanB =
      ResultsStore(DirB.path()).readMeans(1, 1).value()[0];
  EXPECT_NE(MeanA, MeanB); // different subsequences, different samples
  EXPECT_NEAR(MeanA, MeanB, 0.05); // but both estimate 1/2
}

TEST(Runner, ResumeAccumulatesVolumeExactly) {
  ScratchDir Dir("resume");
  RunConfig First = baseConfig(Dir.path());
  First.MaxSampleVolume = 3000;
  First.SequenceNumber = 0;
  ASSERT_TRUE(runSimulation(uniformRealization, First).isOk());

  RunConfig Second = baseConfig(Dir.path());
  Second.MaxSampleVolume = 2000;
  Second.SequenceNumber = 1;
  Second.Resume = true;
  Result<RunReport> Report = runSimulation(uniformRealization, Second);
  ASSERT_TRUE(Report.isOk()) << Report.status().toString();
  EXPECT_EQ(Report.value().TotalSampleVolume, 5000);
  EXPECT_EQ(Report.value().NewSampleVolume, 2000);

  // The checkpoint reflects the accumulated state.
  ResultsStore Store(Dir.path());
  Result<MomentSnapshot> Checkpoint =
      Store.readSnapshot(Store.checkpointPath()); // mclint: allow(R7): asserting on the sealed generation directly
  ASSERT_TRUE(Checkpoint.isOk());
  EXPECT_EQ(Checkpoint.value().Moments.sampleVolume(), 5000);
}

TEST(Runner, ResumedMeanMatchesPooledSimulation) {
  // Resume(2000 after 3000) must equal one 5000-realization experiment in
  // distribution; with M=1 and disjoint subsequences the mean must land
  // within the pooled error bound.
  ScratchDir Dir("resumepool");
  RunConfig First = baseConfig(Dir.path());
  First.MaxSampleVolume = 3000;
  ASSERT_TRUE(runSimulation(uniformRealization, First).isOk());
  RunConfig Second = baseConfig(Dir.path());
  Second.MaxSampleVolume = 2000;
  Second.SequenceNumber = 1;
  Second.Resume = true;
  Result<RunReport> Report = runSimulation(uniformRealization, Second);
  ASSERT_TRUE(Report.isOk());
  const double Mean =
      ResultsStore(Dir.path()).readMeans(1, 1).value()[0];
  EXPECT_NEAR(Mean, 0.5, Report.value().MaxAbsoluteError);
}

TEST(Runner, ResumeRequiresExistingCheckpoint) {
  ScratchDir Dir("resume_missing");
  RunConfig Config = baseConfig(Dir.path());
  Config.Resume = true;
  Config.SequenceNumber = 1;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_FALSE(Report.isOk());
  EXPECT_EQ(Report.status().code(), StatusCode::FailedPrecondition);
}

TEST(Runner, ResumeRejectsSameSequenceNumber) {
  // §3.2: "this argument must be different from the same argument of the
  // previous use".
  ScratchDir Dir("resume_seq");
  RunConfig First = baseConfig(Dir.path());
  First.MaxSampleVolume = 100;
  ASSERT_TRUE(runSimulation(uniformRealization, First).isOk());
  RunConfig Second = baseConfig(Dir.path());
  Second.Resume = true;
  Second.SequenceNumber = First.SequenceNumber; // same -> reject
  Result<RunReport> Report = runSimulation(uniformRealization, Second);
  ASSERT_FALSE(Report.isOk());
  EXPECT_EQ(Report.status().code(), StatusCode::FailedPrecondition);
}

TEST(Runner, ResumeRejectsShapeMismatch) {
  ScratchDir Dir("resume_shape");
  RunConfig First = baseConfig(Dir.path());
  First.MaxSampleVolume = 100;
  ASSERT_TRUE(runSimulation(uniformRealization, First).isOk());
  RunConfig Second = baseConfig(Dir.path());
  Second.Columns = 3;
  Second.Resume = true;
  Second.SequenceNumber = 1;
  EXPECT_FALSE(runSimulation(momentsRealization, Second).isOk());
}

TEST(Runner, FreshRunDiscardsPreviousResults) {
  ScratchDir Dir("fresh");
  RunConfig First = baseConfig(Dir.path());
  First.MaxSampleVolume = 3000;
  ASSERT_TRUE(runSimulation(uniformRealization, First).isOk());
  // res = 0 again: volume starts over, not 3000 + 1000.
  RunConfig Second = baseConfig(Dir.path());
  Second.MaxSampleVolume = 1000;
  Result<RunReport> Report = runSimulation(uniformRealization, Second);
  ASSERT_TRUE(Report.isOk());
  EXPECT_EQ(Report.value().TotalSampleVolume, 1000);
}

TEST(Runner, ErrorTargetStopsEarly) {
  ScratchDir Dir("errtarget");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 100000000; // "endless"
  Config.TargetMaxAbsoluteError = 0.05; // reached after ~300 realizations
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());
  EXPECT_TRUE(Report.value().StoppedOnErrorTarget);
  EXPECT_LT(Report.value().TotalSampleVolume, 100000);
  EXPECT_LE(Report.value().MaxAbsoluteError, 0.05);
}

TEST(Runner, TimeLimitStopsEndlessRun) {
  ScratchDir Dir("timelimit");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 100000000;
  Config.TimeLimitNanos = 50'000'000; // 50 ms
  Config.AveragePeriodNanos = 10'000'000;
  auto SlowRealization = [](RandomSource &Source, double *Out) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    Out[0] = Source.nextUniform();
  };
  Result<RunReport> Report = runSimulation(SlowRealization, Config);
  ASSERT_TRUE(Report.isOk());
  EXPECT_TRUE(Report.value().StoppedOnTimeLimit);
  EXPECT_LT(Report.value().TotalSampleVolume, 100000000);
  EXPECT_GT(Report.value().TotalSampleVolume, 0);
}

TEST(Runner, ReportsMeanRealizationTime) {
  ScratchDir Dir("tau");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 50;
  auto SlowRealization = [](RandomSource &Source, double *Out) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Out[0] = Source.nextUniform();
  };
  Result<RunReport> Report = runSimulation(SlowRealization, Config);
  ASSERT_TRUE(Report.isOk());
  EXPECT_GT(Report.value().MeanRealizationSeconds, 0.0009);
  EXPECT_LT(Report.value().MeanRealizationSeconds, 0.05);
}

TEST(Runner, WritesSubtotalFilesForEveryRank) {
  ScratchDir Dir("subtotals");
  RunConfig Config = baseConfig(Dir.path());
  Config.ProcessorCount = 3;
  Config.MaxSampleVolume = 600;
  ASSERT_TRUE(runSimulation(uniformRealization, Config).isOk());
  ResultsStore Store(Dir.path());
  auto Files = Store.listSubtotalFiles();
  ASSERT_EQ(Files.size(), 3u);
  // manaver over those files must reproduce the checkpoint exactly.
  Result<MomentSnapshot> Merged = runManualAverage(Store);
  ASSERT_TRUE(Merged.isOk());
  EXPECT_EQ(Merged.value().Moments.sampleVolume(), 600);
}

TEST(Runner, ManaverAfterRunMatchesRunnerMeans) {
  ScratchDir Dir("manaver_match");
  RunConfig Config = baseConfig(Dir.path());
  Config.ProcessorCount = 2;
  Config.MaxSampleVolume = 2000;
  ASSERT_TRUE(runSimulation(uniformRealization, Config).isOk());
  ResultsStore Store(Dir.path());
  const std::string EngineMeans =
      readFileToString(Store.meansPath()).value();
  ASSERT_TRUE(runManualAverage(Store).isOk());
  const std::string ManaverMeans =
      readFileToString(Store.meansPath()).value();
  EXPECT_EQ(EngineMeans, ManaverMeans);
}

TEST(Runner, GenparamFileOverridesLeapConfig) {
  ScratchDir Dir("genparam");
  // Write a custom genparam with small leaps.
  LeapConfig Custom;
  Custom.ExperimentLog2 = 60;
  Custom.ProcessorLog2 = 40;
  Custom.RealizationLog2 = 20;
  LeapTable Table(Lcg128::defaultMultiplier(), Custom);
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(
      writeFileAtomic(Store.genparamPath(), Table.toFileContents()).isOk());

  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 100;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  EXPECT_TRUE(Report.isOk()) << Report.status().toString();

  // A corrupted genparam file must fail the run, not silently fall back.
  ASSERT_TRUE(writeFileAtomic(Store.genparamPath(), "garbage\n").isOk());
  EXPECT_FALSE(runSimulation(uniformRealization, Config).isOk());
}

TEST(Runner, PassPeriodZeroSendsEveryRealization) {
  // Strict mode: with 1 processor and pass period 0, every realization
  // produces a subtotal; the save count must be at least 1 and results
  // must exist.
  ScratchDir Dir("strict");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 200;
  Config.PassPeriodNanos = 0;
  Config.AveragePeriodNanos = 0;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());
  EXPECT_GE(Report.value().SavePointCount, 1);
  EXPECT_TRUE(fileExists(ResultsStore(Dir.path()).meansPath()));
}

TEST(Runner, LargePassPeriodStillDeliversFinalResults) {
  // With a pass period far longer than the run, only the final snapshots
  // matter — the totals must still be exact.
  ScratchDir Dir("lazypass");
  RunConfig Config = baseConfig(Dir.path());
  Config.ProcessorCount = 4;
  Config.MaxSampleVolume = 1000;
  Config.PassPeriodNanos = 3'600'000'000'000; // 1 hour
  Config.AveragePeriodNanos = 3'600'000'000'000;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());
  EXPECT_EQ(Report.value().TotalSampleVolume, 1000);
}

// Stream independence across processor counts: the *set* of realization
// subsequences is partitioned by rank, so for a fixed volume the merged
// mean depends on M only through which subsequences were used — every M
// must estimate the same quantity within errors.
class ProcessorCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProcessorCountSweep, MeanIsConsistentAcrossM) {
  ScratchDir Dir("sweep_m" + std::to_string(GetParam()));
  RunConfig Config = baseConfig(Dir.path());
  Config.ProcessorCount = GetParam();
  Config.MaxSampleVolume = 20000;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());
  EXPECT_EQ(Report.value().TotalSampleVolume, 20000);
  const double Mean =
      ResultsStore(Dir.path()).readMeans(1, 1).value()[0];
  EXPECT_NEAR(Mean, 0.5, 2.0 * Report.value().MaxAbsoluteError + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(ProcessorCounts, ProcessorCountSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Runner, PassPeriodIsHonoredInSimulatedTime) {
  // Deterministic periodicity check: a ManualClock advanced 1 simulated
  // second per realization, peraver = 10 s, M = 1. The collector must
  // save roughly once per 10 realizations — the paper's per-minute
  // perpass/peraver behaviour, compressed.
  ScratchDir Dir("period");
  ManualClock Clock;
  auto TickingRealization = [&Clock](RandomSource &Source, double *Out) {
    Clock.advanceSeconds(1.0);
    Out[0] = Source.nextUniform();
  };
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 100;
  Config.PassPeriodNanos = 10'000'000'000;    // 10 simulated seconds
  Config.AveragePeriodNanos = 10'000'000'000; // 10 simulated seconds
  Result<RunReport> Report =
      runSimulation(TickingRealization, Config, &Clock);
  ASSERT_TRUE(Report.isOk());
  EXPECT_EQ(Report.value().TotalSampleVolume, 100);
  // 100 simulated seconds / 10 s period: ~10 saves (+ final, boundary
  // effects allowed).
  EXPECT_GE(Report.value().SavePointCount, 8);
  EXPECT_LE(Report.value().SavePointCount, 13);
  // Elapsed is measured on the injected clock.
  EXPECT_NEAR(Report.value().ElapsedSeconds, 100.0, 1.0);
  EXPECT_NEAR(Report.value().MeanRealizationSeconds, 1.0, 1e-9);
}

TEST(Runner, ProgressObserverSeesMonotoneSavePoints) {
  ScratchDir Dir("progress");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 3000;
  std::vector<RunProgress> Reports;
  Config.OnSavePoint = [&Reports](const RunProgress &Progress) {
    Reports.push_back(Progress);
  };
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());
  ASSERT_FALSE(Reports.empty());
  EXPECT_EQ(size_t(Report.value().SavePointCount), Reports.size());
  int64_t PreviousVolume = 0;
  int PreviousIndex = 0;
  for (const RunProgress &Progress : Reports) {
    EXPECT_GE(Progress.TotalSampleVolume, PreviousVolume);
    EXPECT_EQ(Progress.SavePointCount, PreviousIndex + 1);
    PreviousVolume = Progress.TotalSampleVolume;
    PreviousIndex = Progress.SavePointCount;
  }
  EXPECT_EQ(Reports.back().TotalSampleVolume, 3000);
}

TEST(Runner, FanOutRankKeepsUpWithItsWorkers) {
  // 2 ranks x 4 threads handing in a subtotal every millisecond: the rank
  // thread must drain its mailbox as fast as the workers fill it, or it
  // keeps merging a backlog long after the time limit stopped them.
  ScratchDir Dir("fanout_limit");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 1'000'000'000'000;
  Config.ProcessorCount = 2;
  Config.WorkerThreadsPerRank = 4;
  Config.PassPeriodNanos = 1'000'000;
  Config.AveragePeriodNanos = 2'000'000;
  Config.TimeLimitNanos = 50'000'000;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk()) << Report.status().toString();
  EXPECT_TRUE(Report.value().StoppedOnTimeLimit);
  EXPECT_LT(Report.value().ElapsedSeconds, 0.25);
}

/// 2 ranks x \p Threads with rank \p BlockedRank's subtotal file
/// unwritable: writeFileAtomic cannot open its temp path while a directory
/// sits there.
RunConfig blockedSubtotalConfig(const std::string &WorkDir, int Threads,
                                int BlockedRank) {
  RunConfig Config = baseConfig(WorkDir);
  Config.MaxSampleVolume = 400;
  Config.AveragePeriodNanos = 10'000'000;
  Config.ProcessorCount = 2;
  Config.WorkerThreadsPerRank = Threads;
  Config.DeterministicSchedule = true;
  ResultsStore Store(WorkDir);
  EXPECT_TRUE(Store.prepareDirectories().isOk());
  std::filesystem::create_directories(Store.subtotalPath(BlockedRank) +
                                      ".tmp");
  return Config;
}

TEST(Runner, SubtotalWriteFailureOnWorkerRankIsCounted) {
  for (int Threads : {1, 4}) {
    ScratchDir Dir("subtotal_fail_r1_t" + std::to_string(Threads));
    const RunConfig Config = blockedSubtotalConfig(Dir.path(), Threads, 1);
    Result<RunReport> Report = runSimulation(uniformRealization, Config);
    // A worker that cannot persist keeps simulating: the collector still
    // holds its sent subtotals, so the run itself completes.
    ASSERT_TRUE(Report.isOk()) << Report.status().toString();
    EXPECT_EQ(Report.value().TotalSampleVolume, Config.MaxSampleVolume);
    const int64_t *Failures =
        Report.value().Metrics.counterValue("runner.subtotal_write_failures");
    ASSERT_NE(Failures, nullptr) << "threads " << Threads;
    EXPECT_GE(*Failures, 1) << "threads " << Threads;
  }
}

TEST(Runner, SubtotalWriteFailureOnRankZeroFailsTheRun) {
  for (int Threads : {1, 4}) {
    ScratchDir Dir("subtotal_fail_r0_t" + std::to_string(Threads));
    const RunConfig Config = blockedSubtotalConfig(Dir.path(), Threads, 0);
    EXPECT_FALSE(runSimulation(uniformRealization, Config).isOk())
        << "threads " << Threads;
  }
}

TEST(Runner, CleanRunRegistersNoSubtotalWriteFailures) {
  // Registered lazily, so metrics.dat of a healthy run is unchanged.
  ScratchDir Dir("subtotal_clean");
  RunConfig Config = baseConfig(Dir.path());
  Config.MaxSampleVolume = 400;
  Config.AveragePeriodNanos = 10'000'000;
  Result<RunReport> Report = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Report.isOk());
  EXPECT_EQ(
      Report.value().Metrics.counterValue("runner.subtotal_write_failures"),
      nullptr);
}

} // namespace
} // namespace parmonc
