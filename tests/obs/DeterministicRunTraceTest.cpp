//===- tests/obs/DeterministicRunTraceTest.cpp - Fake-clock trace harness --===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The tentpole acceptance test of the observability layer: a full engine
// run under an injected ManualClock produces a *byte-identical* Chrome
// trace and metrics file on every execution. Every probe takes its time
// from the injected clock and toJson() orders events deterministically, so
// a frozen clock plus a deterministic workload leaves nothing for the
// bytes to vary on. The same harness verifies that attaching observability
// does not perturb the simulation results themselves.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"
#include "parmonc/fault/FaultPlan.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <filesystem>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_obs_" + Name + "_" + std::to_string(Counter++)))
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

void uniformRealization(RandomSource &Source, double *Out) {
  Out[0] = Source.nextUniform();
}

/// One instrumented single-rank run under a frozen ManualClock. Returns
/// (trace JSON, metrics file bytes, func.dat bytes).
struct InstrumentedRun {
  std::string TraceJson;
  std::string MetricsFile;
  std::string MeansFile;
  RunReport Report;
};

InstrumentedRun runInstrumented(const std::string &WorkDir) {
  ManualClock Frozen(1'000'000); // arbitrary fixed epoch, never advanced
  obs::MetricsRegistry Registry;
  obs::TraceWriter Trace(&Frozen);

  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 1;
  Config.MaxSampleVolume = 64;
  Config.ProcessorCount = 1;
  Config.WorkDir = WorkDir;
  Config.Metrics = &Registry;
  Config.Trace = &Trace;

  Result<RunReport> Outcome =
      runSimulation(uniformRealization, Config, &Frozen);
  EXPECT_TRUE(Outcome.isOk()) << Outcome.status().toString();

  InstrumentedRun Run;
  Run.TraceJson = Trace.toJson();
  ResultsStore Store(WorkDir);
  Run.MetricsFile = readFileToString(Store.metricsPath()).valueOr("");
  Run.MeansFile = readFileToString(Store.meansPath()).valueOr("");
  Run.Report = Outcome.valueOr(RunReport{});
  return Run;
}

TEST(DeterministicRunTrace, TraceBytesAreIdenticalAcrossRuns) {
  ScratchDir First("trace_a"), Second("trace_b");
  const InstrumentedRun RunA = runInstrumented(First.path());
  const InstrumentedRun RunB = runInstrumented(Second.path());

  ASSERT_FALSE(RunA.TraceJson.empty());
  EXPECT_EQ(RunA.TraceJson, RunB.TraceJson);
  EXPECT_EQ(RunA.MetricsFile, RunB.MetricsFile);
  EXPECT_EQ(RunA.MeansFile, RunB.MeansFile);
}

TEST(DeterministicRunTrace, TraceFileOnDiskMatchesTheWriter) {
  ScratchDir Dir("trace_file");
  const InstrumentedRun Run = runInstrumented(Dir.path());
  ResultsStore Store(Dir.path());
  Result<std::string> OnDisk = readFileToString(Store.tracePath());
  ASSERT_TRUE(OnDisk.isOk()) << OnDisk.status().toString();
  EXPECT_EQ(OnDisk.value(), Run.TraceJson);
}

TEST(DeterministicRunTrace, TraceCoversTheEnginePhases) {
  ScratchDir Dir("trace_phases");
  const InstrumentedRun Run = runInstrumented(Dir.path());
  for (const char *Name :
       {"rng.leap_setup", "runner.realization", "runner.subtotal_send",
        "runner.subtotal_merge", "runner.save_point",
        "store.snapshot_write"})
    EXPECT_NE(Run.TraceJson.find(std::string("\"name\":\"") + Name + "\""),
              std::string::npos)
        << "trace is missing " << Name << " spans";
}

TEST(DeterministicRunTrace, MetricsAccountForEveryRealization) {
  ScratchDir Dir("metrics");
  const InstrumentedRun Run = runInstrumented(Dir.path());
  Result<obs::MetricsSnapshot> Snapshot =
      obs::MetricsSnapshot::fromFileContents(Run.MetricsFile);
  ASSERT_TRUE(Snapshot.isOk()) << Snapshot.status().toString();

  const int64_t *Realizations =
      Snapshot.value().counterValue("runner.realizations");
  ASSERT_NE(Realizations, nullptr);
  EXPECT_EQ(*Realizations, Run.Report.TotalSampleVolume);
  const int64_t *Rank0 =
      Snapshot.value().counterValue("runner.rank0.realizations");
  ASSERT_NE(Rank0, nullptr);
  EXPECT_EQ(*Rank0, Run.Report.TotalSampleVolume);
  const int64_t *Streams =
      Snapshot.value().counterValue("rng.streams_issued");
  ASSERT_NE(Streams, nullptr);
  EXPECT_EQ(*Streams, Run.Report.TotalSampleVolume);

  // Every realization's duration went into the latency histogram, and the
  // in-memory report snapshot matches the file.
  const obs::LatencySummary *Latency =
      Snapshot.value().latencySummary("runner.realization");
  ASSERT_NE(Latency, nullptr);
  EXPECT_EQ(Latency->Count, Run.Report.TotalSampleVolume);
  EXPECT_EQ(Run.Report.Metrics.toFileContents(), Run.MetricsFile);
}

/// The realization metrics of a finished run, read back from metrics.dat.
struct RealizationCounts {
  int64_t Total = 0;
  int64_t Streams = 0;
  int64_t LatencyCount = 0;
  std::vector<int64_t> PerRank;

  int64_t perRankSum() const {
    int64_t Sum = 0;
    for (int64_t Count : PerRank)
      Sum += Count;
    return Sum;
  }
};

RealizationCounts readRealizationCounts(const std::string &WorkDir,
                                        int RankCount) {
  RealizationCounts Counts;
  Result<std::string> File =
      readFileToString(ResultsStore(WorkDir).metricsPath());
  EXPECT_TRUE(File.isOk()) << File.status().toString();
  Result<obs::MetricsSnapshot> Snapshot =
      obs::MetricsSnapshot::fromFileContents(File.valueOr(""));
  EXPECT_TRUE(Snapshot.isOk()) << Snapshot.status().toString();
  if (!Snapshot)
    return Counts;
  const obs::MetricsSnapshot &Metrics = Snapshot.value();
  auto counter = [&Metrics](const std::string &Name) -> int64_t {
    const int64_t *Value = Metrics.counterValue(Name);
    EXPECT_NE(Value, nullptr) << Name << " is not in metrics.dat";
    return Value ? *Value : -1;
  };
  Counts.Total = counter("runner.realizations");
  Counts.Streams = counter("rng.streams_issued");
  for (int Rank = 0; Rank < RankCount; ++Rank)
    Counts.PerRank.push_back(
        counter("runner.rank" + std::to_string(Rank) + ".realizations"));
  const obs::LatencySummary *Latency =
      Metrics.latencySummary("runner.realization");
  EXPECT_NE(Latency, nullptr);
  Counts.LatencyCount = Latency ? Latency->Count : -1;
  return Counts;
}

/// A fine-grained wall-clock run: several passes per rank, so worker
/// tallies fold mid-run as well as at exit.
RunConfig threadedConfig(const std::string &WorkDir, int Ranks,
                         int ThreadsPerRank) {
  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 1;
  Config.MaxSampleVolume = 40'000;
  Config.ProcessorCount = Ranks;
  Config.WorkerThreadsPerRank = ThreadsPerRank;
  Config.PassPeriodNanos = 2'000'000;
  Config.AveragePeriodNanos = 20'000'000;
  Config.WorkDir = WorkDir;
  return Config;
}

TEST(DeterministicRunTrace, MetricsAccountForEveryRealizationAcrossThreads) {
  // Thread ranks and intra-rank worker threads each fold private tallies;
  // the folded totals must all equal the delivered volume.
  for (const auto &[Ranks, ThreadsPerRank] :
       {std::pair<int, int>{4, 1}, std::pair<int, int>{1, 4}}) {
    SCOPED_TRACE(std::to_string(Ranks) + " ranks x " +
                 std::to_string(ThreadsPerRank) + " threads");
    ScratchDir Dir("metrics_threads");
    const RunConfig Config = threadedConfig(Dir.path(), Ranks, ThreadsPerRank);
    Result<RunReport> Outcome = runSimulation(uniformRealization, Config);
    ASSERT_TRUE(Outcome.isOk()) << Outcome.status().toString();
    ASSERT_EQ(Outcome.value().TotalSampleVolume, Config.MaxSampleVolume);
    const RealizationCounts Counts = readRealizationCounts(Dir.path(), Ranks);
    EXPECT_EQ(Counts.Total, Config.MaxSampleVolume);
    EXPECT_EQ(Counts.perRankSum(), Config.MaxSampleVolume);
    EXPECT_EQ(Counts.Streams, Config.MaxSampleVolume);
    EXPECT_EQ(Counts.LatencyCount, Config.MaxSampleVolume);
  }
}

TEST(DeterministicRunTrace, CrashedRankCountsItsRealizationsBeforeDying) {
  // Rank 2 dies after 100 realizations without a final send. Its tally
  // must fold before it returns: the crashed rank's counter equals exactly
  // the realizations it completed, the survivors' their full quotas.
  ScratchDir Dir("metrics_crash");
  RunConfig Config = threadedConfig(Dir.path(), 4, 1);
  Config.DeterministicSchedule = true; // 10 000 per rank
  Config.WorkerDeadlineNanos = 50'000'000;
  fault::FaultPlan Plan;
  Plan.WorkerCrashes.push_back(
      {/*Rank=*/2, /*AfterRealizations=*/100, /*PersistBeforeCrash=*/true});
  Config.Faults = &Plan;
  Result<RunReport> Outcome = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Outcome.isOk()) << Outcome.status().toString();
  ASSERT_TRUE(Outcome.value().Degraded);

  const RealizationCounts Counts = readRealizationCounts(Dir.path(), 4);
  const int64_t Quota = Config.MaxSampleVolume / 4;
  EXPECT_EQ(Counts.PerRank, (std::vector<int64_t>{Quota, Quota, 100, Quota}));
  EXPECT_EQ(Counts.Total, 3 * Quota + 100);
  EXPECT_EQ(Counts.Streams, Counts.Total);
  EXPECT_EQ(Counts.LatencyCount, Counts.Total);
}

TEST(DeterministicRunTrace, ObservabilityDoesNotPerturbResults) {
  // A plain run and an instrumented run over the same deterministic
  // workload must produce byte-identical result files: probes read clocks
  // and bump atomics, never anything that feeds the estimators.
  ScratchDir Plain("plain"), Probed("probed");

  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 1;
  Config.MaxSampleVolume = 64;
  Config.ProcessorCount = 1;

  ManualClock FrozenA(1'000'000);
  Config.WorkDir = Plain.path();
  Result<RunReport> Bare =
      runSimulation(uniformRealization, Config, &FrozenA);
  ASSERT_TRUE(Bare.isOk()) << Bare.status().toString();

  ManualClock FrozenB(1'000'000);
  obs::MetricsRegistry Registry;
  obs::TraceWriter Trace(&FrozenB);
  Config.WorkDir = Probed.path();
  Config.Metrics = &Registry;
  Config.Trace = &Trace;
  Result<RunReport> Instrumented =
      runSimulation(uniformRealization, Config, &FrozenB);
  ASSERT_TRUE(Instrumented.isOk()) << Instrumented.status().toString();

  ResultsStore PlainStore(Plain.path()), ProbedStore(Probed.path());
  EXPECT_EQ(readFileToString(PlainStore.meansPath()).valueOr("A"),
            readFileToString(ProbedStore.meansPath()).valueOr("B"));
  EXPECT_EQ(readFileToString(PlainStore.confidencePath()).valueOr("A"),
            readFileToString(ProbedStore.confidencePath()).valueOr("B"));
  EXPECT_EQ(Bare.value().TotalSampleVolume,
            Instrumented.value().TotalSampleVolume);
}

} // namespace
} // namespace parmonc
