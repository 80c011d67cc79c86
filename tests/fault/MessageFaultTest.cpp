//===- tests/fault/MessageFaultTest.cpp - Lossy-network recovery ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Because workers send *cumulative* moment sums, a lost or duplicated
// message only delays the collector's view. A reordered one is different:
// a subtotal delayed past its rank's final would roll the collector back,
// which is why the collector keeps each rank's snapshot monotone. With
// that rule every fault class — drop, duplicate, delay, failed send —
// must leave the final results byte-identical to a run over a perfect
// network, as long as the final snapshots get through (the exempt tag
// models connection teardown being reliable). The fault counters prove
// the faults actually happened.
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
            ("parmonc_msgfault_" + Name + "_" + std::to_string(Counter++)))
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

RunConfig lossyConfig(const std::string &WorkDir) {
  RunConfig Config;
  Config.MaxSampleVolume = 120;
  Config.ProcessorCount = 3;
  Config.DeterministicSchedule = true; // fixed per-rank quotas
  Config.WorkDir = WorkDir;
  Config.AveragePeriodNanos = 3'600'000'000'000; // final save only
  return Config;
}

/// Runs under a frozen clock with \p Plan and returns the report; also
/// captures func.dat bytes via \p MeansOut.
RunReport runLossy(const std::string &WorkDir, const fault::FaultPlan *Plan,
                   std::string *MeansOut) {
  ManualClock Frozen(1'000'000);
  RunConfig Config = lossyConfig(WorkDir);
  Config.Faults = Plan;
  Result<RunReport> Report =
      runSimulation(uniformRealization, Config, &Frozen);
  EXPECT_TRUE(Report.isOk()) << Report.status().toString();
  ResultsStore Store(WorkDir);
  *MeansOut = readFileToString(Store.meansPath()).valueOr("<missing>");
  return Report.valueOr(RunReport{});
}

int64_t counterOf(const RunReport &Report, const char *Name) {
  const int64_t *Value = Report.Metrics.counterValue(Name);
  return Value ? *Value : 0;
}

TEST(MessageFault, DroppedSubtotalsDoNotPerturbTheResults) {
  ScratchDir Clean("drop_ref"), Faulted("drop");
  std::string CleanMeans, FaultedMeans;
  const RunReport CleanReport =
      runLossy(Clean.path(), nullptr, &CleanMeans);
  fault::FaultPlan Plan;
  Plan.DropProbability = 0.5;
  Plan.ExemptTags = {TagFinal};
  const RunReport FaultedReport =
      runLossy(Faulted.path(), &Plan, &FaultedMeans);

  EXPECT_GT(counterOf(FaultedReport, "fault.msgs_dropped"), 0);
  EXPECT_EQ(FaultedReport.TotalSampleVolume, 120);
  EXPECT_EQ(FaultedReport.TotalSampleVolume,
            CleanReport.TotalSampleVolume);
  EXPECT_FALSE(FaultedReport.Degraded); // nothing was permanently lost
  EXPECT_EQ(FaultedMeans, CleanMeans);
}

TEST(MessageFault, DuplicatedSubtotalsAreIdempotent) {
  // The collector keeps only the *latest* snapshot per rank, so a message
  // delivered twice changes nothing — the idempotence the paper's
  // cumulative-subtotal protocol buys.
  ScratchDir Clean("dup_ref"), Faulted("dup");
  std::string CleanMeans, FaultedMeans;
  runLossy(Clean.path(), nullptr, &CleanMeans);
  fault::FaultPlan Plan;
  Plan.DuplicateProbability = 0.5;
  Plan.ExemptTags = {TagFinal};
  const RunReport FaultedReport =
      runLossy(Faulted.path(), &Plan, &FaultedMeans);

  EXPECT_GT(counterOf(FaultedReport, "fault.msgs_duplicated"), 0);
  EXPECT_EQ(FaultedReport.TotalSampleVolume, 120);
  EXPECT_EQ(FaultedMeans, CleanMeans);
}

TEST(MessageFault, DelayedSubtotalsOnlyDelayFreshness) {
  // Under the frozen clock a delayed message is never released — the
  // harshest possible delay for freshness — yet the final (exempt)
  // snapshots still carry the complete cumulative sums.
  ScratchDir Clean("delay_ref"), Faulted("delay");
  std::string CleanMeans, FaultedMeans;
  runLossy(Clean.path(), nullptr, &CleanMeans);
  fault::FaultPlan Plan;
  Plan.DelayProbability = 0.5;
  Plan.DelayNanos = 1'000'000;
  Plan.ExemptTags = {TagFinal};
  const RunReport FaultedReport =
      runLossy(Faulted.path(), &Plan, &FaultedMeans);

  EXPECT_GT(counterOf(FaultedReport, "fault.msgs_delayed"), 0);
  EXPECT_EQ(FaultedReport.TotalSampleVolume, 120);
  EXPECT_EQ(FaultedMeans, CleanMeans);
}

TEST(MessageFault, DelayedSubtotalReleasedAfterFinalCannotRollBack) {
  // On a live clock delayed subtotals are released, and some land after
  // their rank's final has reached the collector. Such a stale subtotal
  // must not replace the final: every seed must still deliver the full
  // volume and the clean run's means, and must not be flagged degraded.
  auto configFor = [](const std::string &WorkDir) {
    RunConfig Config = lossyConfig(WorkDir);
    Config.MaxSampleVolume = 3000;
    return Config;
  };
  ScratchDir Clean("late_ref");
  Result<RunReport> CleanReport =
      runSimulation(uniformRealization, configFor(Clean.path()));
  ASSERT_TRUE(CleanReport.isOk()) << CleanReport.status().toString();
  const std::string CleanMeans =
      readFileToString(ResultsStore(Clean.path()).meansPath())
          .valueOr("<missing>");

  int64_t Delayed = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    ScratchDir Faulted("late_" + std::to_string(Seed));
    fault::FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.DelayProbability = 0.5;
    Plan.DelayNanos = 2'000'000;
    Plan.ExemptTags = {TagFinal};
    RunConfig Config = configFor(Faulted.path());
    Config.Faults = &Plan;
    Result<RunReport> Report = runSimulation(uniformRealization, Config);
    ASSERT_TRUE(Report.isOk()) << Report.status().toString();
    Delayed += counterOf(Report.value(), "fault.msgs_delayed");
    EXPECT_EQ(Report.value().TotalSampleVolume, 3000) << "seed " << Seed;
    EXPECT_FALSE(Report.value().Degraded) << "seed " << Seed;
    EXPECT_EQ(readFileToString(ResultsStore(Faulted.path()).meansPath())
                  .valueOr("<missing>"),
              CleanMeans)
        << "seed " << Seed;
  }
  EXPECT_GT(Delayed, 0);
}

TEST(MessageFault, FailedSendsAreRetriedThenSurvivedDegraded) {
  // A send failure is visible to the sender, which retries with backoff;
  // a send that fails every attempt is counted as permanently lost and
  // flags the run degraded — but the cumulative protocol still delivers
  // exact results through the final snapshots.
  ScratchDir Clean("fail_ref"), Faulted("fail");
  std::string CleanMeans, FaultedMeans;
  runLossy(Clean.path(), nullptr, &CleanMeans);
  fault::FaultPlan Plan;
  Plan.SendFailProbability = 0.7;
  Plan.ExemptTags = {TagFinal};
  ManualClock Frozen(1'000'000);
  RunConfig Config = lossyConfig(Faulted.path());
  Config.Faults = &Plan;
  Config.SendMaxAttempts = 2;
  Config.SendRetryBackoffNanos = 1'000;
  Result<RunReport> Report =
      runSimulation(uniformRealization, Config, &Frozen);
  ASSERT_TRUE(Report.isOk()) << Report.status().toString();
  ResultsStore Store(Faulted.path());
  FaultedMeans = readFileToString(Store.meansPath()).valueOr("<missing>");

  EXPECT_GT(counterOf(Report.value(), "fault.send_failures"), 0);
  EXPECT_GT(counterOf(Report.value(), "comm.send_retries"), 0);
  // With P(fail) = 0.7 and two attempts, some sends fail both tries.
  EXPECT_GT(Report.value().FailedSends, 0);
  EXPECT_EQ(counterOf(Report.value(), "comm.sends_failed"),
            Report.value().FailedSends);
  EXPECT_TRUE(Report.value().Degraded);
  EXPECT_EQ(Report.value().TotalSampleVolume, 120);
  EXPECT_EQ(FaultedMeans, CleanMeans);
}

TEST(MessageFault, MixedFaultRunsReplayIdentically) {
  // The same plan in two directories must inject the same faults at the
  // same points and produce identical bytes: determinism is what lets a
  // failure found under injection be debugged by replaying it.
  ScratchDir First("mix_a"), Second("mix_b");
  fault::FaultPlan Plan;
  Plan.Seed = 7;
  Plan.DropProbability = 0.25;
  Plan.DuplicateProbability = 0.25;
  Plan.SendFailProbability = 0.25;
  Plan.ExemptTags = {TagFinal};
  std::string FirstMeans, SecondMeans;
  const RunReport FirstReport = runLossy(First.path(), &Plan, &FirstMeans);
  const RunReport SecondReport =
      runLossy(Second.path(), &Plan, &SecondMeans);

  EXPECT_EQ(FirstMeans, SecondMeans);
  for (const char *Name :
       {"fault.msgs_dropped", "fault.msgs_duplicated",
        "fault.send_failures", "comm.send_retries", "comm.sends_failed"})
    EXPECT_EQ(counterOf(FirstReport, Name), counterOf(SecondReport, Name))
        << Name;
  EXPECT_EQ(FirstReport.FailedSends, SecondReport.FailedSends);
  EXPECT_EQ(FirstReport.TotalSampleVolume, SecondReport.TotalSampleVolume);
}

} // namespace
} // namespace parmonc
