//===- tests/mpsim/TransportDifferentialTest.cpp - Wire vs. oracle --------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The headline proof of the process transport: every golden Runner
// scenario executes twice — once over the in-process thread fabric (the
// oracle) and once over forked worker processes and CRC-framed sockets —
// under the same frozen clock and deterministic schedule, and the entire
// parmonc_data/ tree plus the run report must come out BYTE-IDENTICAL.
// Estimator snapshots, func.dat / func_ci.dat / func_log.dat, per-rank
// subtotals, histograms, resume chains, periodic save cadence, even runs
// under an actively lossy injected network: if a single byte differs, the
// wire changed the mathematics and this suite fails.
//
// Excluded from comparison, by design:
//   *.prev        – backup rotation keeps the previous GENERATION, and how
//                   many generations a file went through is a scheduling
//                   detail, not a result;
//   metrics.dat   – the process transport legitimately adds transport.*
//                   router counters the thread fabric does not have.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"
#include "parmonc/fault/FaultPlan.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_xport_" + Name + "_" + std::to_string(Counter++)))
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

void matrixRealization(RandomSource &Source, double *Out) {
  // 2x2 with correlated entries so every moment file has structure.
  const double First = Source.nextUniform();
  const double Second = Source.nextUniform();
  Out[0] = First;
  Out[1] = Second;
  Out[2] = First * Second;
  Out[3] = First - Second;
}

RunConfig goldenConfig(const std::string &WorkDir, TransportKind Kind) {
  RunConfig Config;
  Config.MaxSampleVolume = 120;
  Config.ProcessorCount = 3;
  Config.DeterministicSchedule = true; // fixed per-rank quotas
  Config.Transport = Kind;
  Config.WorkDir = WorkDir;
  Config.AveragePeriodNanos = 3'600'000'000'000; // final save only
  return Config;
}

/// Every result/checkpoint/subtotal file under WorkDir/parmonc_data, as
/// relative path -> raw bytes. `.prev` generations and metrics.dat are
/// excluded (see the file header for why).
std::map<std::string, std::string> snapshotTree(const std::string &WorkDir) {
  namespace fs = std::filesystem;
  std::map<std::string, std::string> Tree;
  const fs::path Root = fs::path(WorkDir) / "parmonc_data";
  if (!fs::exists(Root))
    return Tree;
  for (const fs::directory_entry &Entry :
       fs::recursive_directory_iterator(Root)) {
    if (!Entry.is_regular_file())
      continue;
    const std::string Name = Entry.path().filename().string();
    if (Name.size() > 5 && Name.rfind(".prev") == Name.size() - 5)
      continue;
    if (Name == "metrics.dat")
      continue;
    const std::string Relative =
        fs::relative(Entry.path(), Root).generic_string();
    Tree[Relative] =
        readFileToString(Entry.path().string()).valueOr("<unreadable>");
  }
  return Tree;
}

/// Asserts the two trees hold the same files with the same bytes,
/// reporting the first differing file by name.
void expectIdenticalTrees(const std::map<std::string, std::string> &Oracle,
                          const std::map<std::string, std::string> &Wire) {
  for (const auto &[Path, Bytes] : Oracle) {
    const auto Match = Wire.find(Path);
    if (Match == Wire.end()) {
      ADD_FAILURE() << "the process run never wrote " << Path;
      continue;
    }
    EXPECT_EQ(Bytes, Match->second)
        << Path << " differs between thread and process transports";
  }
  for (const auto &[Path, Bytes] : Wire)
    EXPECT_TRUE(Oracle.count(Path))
        << "the process run wrote an extra file: " << Path;
  EXPECT_FALSE(Oracle.empty()) << "oracle run produced no files";
}

/// Field-by-field report comparison. Metrics and ProcessRanks are
/// transport-specific and compared separately where a test cares.
void expectIdenticalReports(const RunReport &Oracle, const RunReport &Wire) {
  EXPECT_EQ(Oracle.TotalSampleVolume, Wire.TotalSampleVolume);
  EXPECT_EQ(Oracle.NewSampleVolume, Wire.NewSampleVolume);
  EXPECT_EQ(Oracle.MeanRealizationSeconds, Wire.MeanRealizationSeconds);
  EXPECT_EQ(Oracle.ElapsedSeconds, Wire.ElapsedSeconds);
  EXPECT_EQ(Oracle.MaxAbsoluteError, Wire.MaxAbsoluteError);
  EXPECT_EQ(Oracle.MaxRelativeErrorPercent, Wire.MaxRelativeErrorPercent);
  EXPECT_EQ(Oracle.MaxVariance, Wire.MaxVariance);
  EXPECT_EQ(Oracle.SavePointCount, Wire.SavePointCount);
  EXPECT_EQ(Oracle.PerProcessorVolumes, Wire.PerProcessorVolumes);
  EXPECT_EQ(Oracle.StoppedOnErrorTarget, Wire.StoppedOnErrorTarget);
  EXPECT_EQ(Oracle.StoppedOnTimeLimit, Wire.StoppedOnTimeLimit);
  EXPECT_EQ(Oracle.Degraded, Wire.Degraded);
  EXPECT_EQ(Oracle.DeadWorkers, Wire.DeadWorkers);
  EXPECT_EQ(Oracle.FailedSends, Wire.FailedSends);
  EXPECT_EQ(Oracle.SimulatedCrash, Wire.SimulatedCrash);
  EXPECT_EQ(Oracle.ResumedFromBackup, Wire.ResumedFromBackup);
}

/// One golden scenario under one transport: frozen clock, configured by
/// \p Shape on top of the golden defaults.
RunReport runGolden(const std::string &WorkDir, TransportKind Kind,
                    const RealizationFn &Realization,
                    const std::function<void(RunConfig &)> &Shape = {}) {
  ManualClock Frozen(1'000'000);
  RunConfig Config = goldenConfig(WorkDir, Kind);
  if (Shape)
    Shape(Config);
  Result<RunReport> Report = runSimulation(Realization, Config, &Frozen);
  EXPECT_TRUE(Report.isOk()) << Report.status().toString();
  return Report.valueOr(RunReport{});
}

TEST(TransportDifferential, ScalarRunIsByteIdentical) {
  ScratchDir Threads("scalar_thr"), Processes("scalar_proc");
  const RunReport Oracle =
      runGolden(Threads.path(), TransportKind::Threads, uniformRealization);
  const RunReport Wire = runGolden(Processes.path(),
                                   TransportKind::Processes,
                                   uniformRealization);

  EXPECT_EQ(Oracle.TotalSampleVolume, 120);
  expectIdenticalReports(Oracle, Wire);
  expectIdenticalTrees(snapshotTree(Threads.path()),
                       snapshotTree(Processes.path()));
  // And the wire run really crossed process boundaries: two forked
  // workers, both with a clean exit and an orderly GOODBYE.
  EXPECT_TRUE(Oracle.ProcessRanks.empty());
  ASSERT_EQ(Wire.ProcessRanks.size(), 2u);
  for (const ProcessRankStatus &Rank : Wire.ProcessRanks) {
    EXPECT_TRUE(Rank.ExitedCleanly) << "rank " << Rank.Rank;
    EXPECT_TRUE(Rank.GoodbyeReceived) << "rank " << Rank.Rank;
    EXPECT_GT(Rank.MessagesSent, 0) << "rank " << Rank.Rank;
  }
}

TEST(TransportDifferential, MatrixWithHistogramsIsByteIdentical) {
  const auto Shape = [](RunConfig &Config) {
    Config.Rows = 2;
    Config.Columns = 2;
    Config.Histograms = {{0, 0, 0.0, 1.0, 16}, {1, 0, -1.0, 1.0, 8}};
  };
  ScratchDir Threads("matrix_thr"), Processes("matrix_proc");
  const RunReport Oracle = runGolden(Threads.path(), TransportKind::Threads,
                                     matrixRealization, Shape);
  const RunReport Wire = runGolden(Processes.path(),
                                   TransportKind::Processes,
                                   matrixRealization, Shape);

  expectIdenticalReports(Oracle, Wire);
  const auto OracleTree = snapshotTree(Threads.path());
  EXPECT_TRUE(OracleTree.count("results/hist_r1_c1.dat"));
  EXPECT_TRUE(OracleTree.count("results/hist_r2_c1.dat"));
  expectIdenticalTrees(OracleTree, snapshotTree(Processes.path()));
}

TEST(TransportDifferential, ResumeChainIsByteIdentical) {
  // §3.2's resumed-experiment chain: sequence 0 from scratch, then
  // sequence 1 averaged into its checkpoint per eq. (5) — the whole chain
  // run once per transport, and the final trees diffed across backends.
  const auto runChain = [](const std::string &WorkDir, TransportKind Kind) {
    runGolden(WorkDir, Kind, uniformRealization);
    return runGolden(WorkDir, Kind, uniformRealization,
                     [](RunConfig &Config) {
                       Config.Resume = true;
                       Config.SequenceNumber = 1;
                       Config.MaxSampleVolume = 60;
                     });
  };
  ScratchDir Threads("resume_thr"), Processes("resume_proc");
  const RunReport Oracle = runChain(Threads.path(), TransportKind::Threads);
  const RunReport Wire = runChain(Processes.path(), TransportKind::Processes);

  EXPECT_EQ(Oracle.TotalSampleVolume, 180);
  EXPECT_EQ(Oracle.NewSampleVolume, 60);
  expectIdenticalReports(Oracle, Wire);
  expectIdenticalTrees(snapshotTree(Threads.path()),
                       snapshotTree(Processes.path()));
}

TEST(TransportDifferential, PeriodicSaveCadenceMatches) {
  // AveragePeriodNanos = 0 makes rank 0 save at every collector poll: the
  // save-point CADENCE itself — one per rank-0 realization plus the final
  // save — must survive the transport swap, not just the final bytes.
  const auto Shape = [](RunConfig &Config) { Config.AveragePeriodNanos = 0; };
  ScratchDir Threads("cadence_thr"), Processes("cadence_proc");
  const RunReport Oracle = runGolden(Threads.path(), TransportKind::Threads,
                                     uniformRealization, Shape);
  const RunReport Wire = runGolden(Processes.path(),
                                   TransportKind::Processes,
                                   uniformRealization, Shape);

  // 120 realizations over 3 ranks = 40 on rank 0, plus the final save.
  EXPECT_EQ(Oracle.SavePointCount, 41);
  expectIdenticalReports(Oracle, Wire);
  expectIdenticalTrees(snapshotTree(Threads.path()),
                       snapshotTree(Processes.path()));
}

TEST(TransportDifferential, LossyNetworkRunIsByteIdentical) {
  // The §2.2 cumulative-subtotal protocol makes drops and duplicates
  // harmless; here the SAME seeded fault plan runs against both backends,
  // so the injector replays one fault sequence over threads and over real
  // sockets — and the results must still agree byte for byte.
  fault::FaultPlan Plan;
  Plan.Seed = 7;
  Plan.DropProbability = 0.4;
  Plan.DuplicateProbability = 0.3;
  Plan.ExemptTags = {TagFinal};
  const auto Shape = [&Plan](RunConfig &Config) { Config.Faults = &Plan; };
  ScratchDir Threads("lossy_thr"), Processes("lossy_proc");
  const RunReport Oracle = runGolden(Threads.path(), TransportKind::Threads,
                                     uniformRealization, Shape);
  const RunReport Wire = runGolden(Processes.path(),
                                   TransportKind::Processes,
                                   uniformRealization, Shape);

  EXPECT_EQ(Oracle.TotalSampleVolume, 120);
  EXPECT_FALSE(Oracle.Degraded); // drops/dups never lose cumulative sums
  expectIdenticalReports(Oracle, Wire);
  expectIdenticalTrees(snapshotTree(Threads.path()),
                       snapshotTree(Processes.path()));
}

TEST(TransportDifferential, CoalescedSubtotalsUnderASlowCollectorMatch) {
  // Rank 0 stalls in its first save-points while the workers send a
  // subtotal after every realization, so subtotals pile up at the
  // collector and supersede one another. Latest-wins delivery must not
  // change a byte, and the counter proves it actually coalesced.
  const auto Shape = [](RunConfig &Config) {
    Config.MaxSampleVolume = 300;
    Config.AveragePeriodNanos = 0; // a save-point at every collector poll
    Config.OnSavePoint = [](const RunProgress &Progress) {
      if (Progress.SavePointCount <= 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    };
  };
  ScratchDir Threads("coalesce_thr"), Processes("coalesce_proc");
  const RunReport Oracle = runGolden(Threads.path(), TransportKind::Threads,
                                     uniformRealization, Shape);
  const RunReport Wire = runGolden(Processes.path(),
                                   TransportKind::Processes,
                                   uniformRealization, Shape);

  EXPECT_EQ(Wire.TotalSampleVolume, 300);
  expectIdenticalReports(Oracle, Wire);
  expectIdenticalTrees(snapshotTree(Threads.path()),
                       snapshotTree(Processes.path()));
  const int64_t *Superseded =
      Wire.Metrics.counterValue("comm.messages_superseded");
  ASSERT_NE(Superseded, nullptr);
  EXPECT_GT(*Superseded, 0);
}

TEST(TransportDifferential, ProcessRunsAreRunToRunDeterministic) {
  // The wire itself must not introduce nondeterminism: two process runs
  // of the same scenario in different directories, byte-compared.
  ScratchDir First("rerun_a"), Second("rerun_b");
  const RunReport FirstReport = runGolden(
      First.path(), TransportKind::Processes, uniformRealization);
  const RunReport SecondReport = runGolden(
      Second.path(), TransportKind::Processes, uniformRealization);

  expectIdenticalReports(FirstReport, SecondReport);
  expectIdenticalTrees(snapshotTree(First.path()),
                       snapshotTree(Second.path()));
}

TEST(TransportDifferential, ProcessTransportDemandsAFixedSchedule) {
  // There is no cross-process shared work counter; validate() must say so
  // instead of letting a nondeterministic run start.
  ScratchDir Scratch("badcfg");
  RunConfig Config = goldenConfig(Scratch.path(), TransportKind::Processes);
  Config.DeterministicSchedule = false;
  ManualClock Frozen(1'000'000);
  Result<RunReport> Report =
      runSimulation(uniformRealization, Config, &Frozen);
  ASSERT_FALSE(Report.isOk());
  EXPECT_NE(Report.status().message().find("DeterministicSchedule"),
            std::string::npos);
}

} // namespace
} // namespace parmonc
