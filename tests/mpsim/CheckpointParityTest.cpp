//===- tests/mpsim/CheckpointParityTest.cpp - Sharded ckpt vs. wire -------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The sharded-checkpoint extension of the transport differential suite:
// every scenario runs once over the in-process thread fabric (the oracle)
// and once over forked workers and CRC-framed sockets, with
// CheckpointShards on — and the entire parmonc_data/ tree, INCLUDING the
// ckpt/ manifest and every sealed shard, must come out byte-identical.
// The matrix covers the synchronous commit path, the background writer,
// the §3.2 resume chain restored from shards, and a collector killed at
// its save point whose surviving manifest generation feeds the restore.
//
// Excluded from comparison, as in TransportDifferentialTest.cpp:
//   *.prev      – rotation depth is a scheduling detail, not a result;
//   metrics.dat – the process transport adds transport.* counters.
//
//===----------------------------------------------------------------------===//

#include "parmonc/ckpt/CheckpointStore.h"
#include "parmonc/core/Runner.h"
#include "parmonc/fault/FaultPlan.h"
#include "parmonc/support/Checksum.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_ckptpar_" + Name + "_" + std::to_string(Counter++)))
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

RunConfig shardedConfig(const std::string &WorkDir, TransportKind Kind,
                        bool Async) {
  RunConfig Config;
  Config.MaxSampleVolume = 120;
  Config.ProcessorCount = 3;
  Config.DeterministicSchedule = true; // fixed per-rank quotas
  Config.Transport = Kind;
  Config.WorkDir = WorkDir;
  Config.AveragePeriodNanos = 3'600'000'000'000; // final save only
  Config.CheckpointShards = true;
  Config.CheckpointAsync = Async;
  if (Async)
    Config.CheckpointQueueDepth = 2;
  return Config;
}

/// Every file under WorkDir/parmonc_data as relative path -> raw bytes,
/// minus `.prev` generations and metrics.dat (see the file header).
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

/// The checkpoint-relevant slice of the report, compared field by field.
void expectIdenticalReports(const RunReport &Oracle, const RunReport &Wire) {
  EXPECT_EQ(Oracle.TotalSampleVolume, Wire.TotalSampleVolume);
  EXPECT_EQ(Oracle.NewSampleVolume, Wire.NewSampleVolume);
  EXPECT_EQ(Oracle.MaxAbsoluteError, Wire.MaxAbsoluteError);
  EXPECT_EQ(Oracle.SavePointCount, Wire.SavePointCount);
  EXPECT_EQ(Oracle.PerProcessorVolumes, Wire.PerProcessorVolumes);
  EXPECT_EQ(Oracle.SimulatedCrash, Wire.SimulatedCrash);
  EXPECT_EQ(Oracle.ResumedFromBackup, Wire.ResumedFromBackup);
  EXPECT_EQ(Oracle.RestoredFromShards, Wire.RestoredFromShards);
  EXPECT_EQ(Oracle.CoalescedCheckpoints, Wire.CoalescedCheckpoints);
}

RunReport runSharded(const std::string &WorkDir, TransportKind Kind,
                     bool Async,
                     const std::function<void(RunConfig &)> &Shape = {}) {
  ManualClock Frozen(1'000'000);
  RunConfig Config = shardedConfig(WorkDir, Kind, Async);
  if (Shape)
    Shape(Config);
  Result<RunReport> Report =
      runSimulation(uniformRealization, Config, &Frozen);
  EXPECT_TRUE(Report.isOk()) << Report.status().toString();
  return Report.valueOr(RunReport{});
}

/// Counts tree entries under ckpt/shards/ named rank<r>_*.
int rankShardCount(const std::map<std::string, std::string> &Tree) {
  int Count = 0;
  for (const auto &[Path, Bytes] : Tree)
    if (Path.rfind("ckpt/shards/rank", 0) == 0)
      ++Count;
  return Count;
}

TEST(CheckpointParity, SyncShardedTreeIsByteIdenticalAcrossTransports) {
  ScratchDir Threads("sync_thr"), Processes("sync_proc");
  const RunReport Oracle =
      runSharded(Threads.path(), TransportKind::Threads, /*Async=*/false);
  const RunReport Wire =
      runSharded(Processes.path(), TransportKind::Processes, /*Async=*/false);

  EXPECT_EQ(Oracle.TotalSampleVolume, 120);
  expectIdenticalReports(Oracle, Wire);

  // The sharded tree replaces checkpoint.dat: a sealed manifest, one
  // merged-base shard, one moment shard per worker rank — and the SAME
  // bytes whether the subtotals arrived over memory or over the wire.
  const auto OracleTree = snapshotTree(Threads.path());
  EXPECT_TRUE(OracleTree.count("ckpt/manifest.dat"));
  EXPECT_EQ(rankShardCount(OracleTree), 3);
  EXPECT_FALSE(OracleTree.count("checkpoint.dat"));
  expectIdenticalTrees(OracleTree, snapshotTree(Processes.path()));
}

TEST(CheckpointParity, BackgroundWriterTreeMatchesSyncAcrossTransports) {
  // Three-way matrix closed transitively: async-threads vs async-processes
  // byte-identical, and async-threads vs SYNC-threads byte-identical — so
  // the background writer changes scheduling, never bytes, on either
  // backend.
  ScratchDir AsyncThreads("async_thr"), AsyncProcesses("async_proc"),
      SyncThreads("async_syncref");
  const RunReport Oracle = runSharded(AsyncThreads.path(),
                                      TransportKind::Threads, /*Async=*/true);
  const RunReport Wire = runSharded(
      AsyncProcesses.path(), TransportKind::Processes, /*Async=*/true);
  const RunReport SyncOracle = runSharded(
      SyncThreads.path(), TransportKind::Threads, /*Async=*/false);

  // A final-save-only cadence enqueues exactly one request, so the
  // bounded queue never coalesces and the writer drains at shutdown.
  EXPECT_EQ(Oracle.CoalescedCheckpoints, 0);
  expectIdenticalReports(Oracle, Wire);
  const auto OracleTree = snapshotTree(AsyncThreads.path());
  expectIdenticalTrees(OracleTree, snapshotTree(AsyncProcesses.path()));
  expectIdenticalTrees(OracleTree, snapshotTree(SyncThreads.path()));
}

TEST(CheckpointParity, ShardedResumeChainIsByteIdenticalAcrossTransports) {
  // The §3.2 resumed-experiment chain restored FROM SHARDS: sequence 0
  // commits a manifest, sequence 1 merges base + rank shards back into
  // its starting state — once per transport, final trees diffed.
  const auto runChain = [](const std::string &WorkDir, TransportKind Kind) {
    runSharded(WorkDir, Kind, /*Async=*/false);
    return runSharded(WorkDir, Kind, /*Async=*/false,
                      [](RunConfig &Config) {
                        Config.Resume = true;
                        Config.SequenceNumber = 1;
                        Config.MaxSampleVolume = 60;
                      });
  };
  ScratchDir Threads("chain_thr"), Processes("chain_proc");
  const RunReport Oracle = runChain(Threads.path(), TransportKind::Threads);
  const RunReport Wire = runChain(Processes.path(), TransportKind::Processes);

  EXPECT_EQ(Oracle.TotalSampleVolume, 180);
  EXPECT_EQ(Oracle.NewSampleVolume, 60);
  EXPECT_TRUE(Oracle.RestoredFromShards);
  EXPECT_FALSE(Oracle.ResumedFromBackup);
  expectIdenticalReports(Oracle, Wire);
  expectIdenticalTrees(snapshotTree(Threads.path()),
                       snapshotTree(Processes.path()));
}

TEST(CheckpointParity, KillAtSavePointThenRestoreMatrixIsByteIdentical) {
  // The kill-at-save-point -> restore matrix: sequence 0 commits
  // generation 1; sequence 1's collector dies AT its save point, before
  // any write, so the surviving manifest still holds sequence 0's bytes;
  // sequence 2 restores from those shards and finishes. Each transport
  // walks the whole chain, and the final trees must agree byte for byte.
  const auto runChain = [](const std::string &WorkDir, TransportKind Kind) {
    runSharded(WorkDir, Kind, /*Async=*/false);
    const std::string Manifest =
        WorkDir + "/parmonc_data/ckpt/manifest.dat";
    const std::string BeforeKill =
        readFileToString(Manifest).valueOr("<missing>");

    fault::FaultPlan Plan;
    Plan.CollectorCrash.AtFinalSave = true;
    const RunReport Killed =
        runSharded(WorkDir, Kind, /*Async=*/false,
                   [&Plan](RunConfig &Config) {
                     Config.Resume = true;
                     Config.SequenceNumber = 1;
                     Config.MaxSampleVolume = 60;
                     Config.Faults = &Plan;
                   });
    EXPECT_TRUE(Killed.SimulatedCrash);
    EXPECT_EQ(Killed.SavePointCount, 0);
    // The two-phase commit never reached rename: generation 1 is intact.
    EXPECT_EQ(readFileToString(Manifest).valueOr("<gone>"), BeforeKill);

    return runSharded(WorkDir, Kind, /*Async=*/false,
                      [](RunConfig &Config) {
                        Config.Resume = true;
                        Config.SequenceNumber = 2;
                        Config.MaxSampleVolume = 60;
                      });
  };
  ScratchDir Threads("kill_thr"), Processes("kill_proc");
  const RunReport Oracle = runChain(Threads.path(), TransportKind::Threads);
  const RunReport Wire = runChain(Processes.path(), TransportKind::Processes);

  // The killed sequence contributed nothing: 120 from sequence 0 plus 60
  // from sequence 2, restored from the sharded generation on both
  // backends.
  EXPECT_EQ(Oracle.TotalSampleVolume, 180);
  EXPECT_EQ(Oracle.NewSampleVolume, 60);
  EXPECT_TRUE(Oracle.RestoredFromShards);
  EXPECT_FALSE(Oracle.ResumedFromBackup);
  expectIdenticalReports(Oracle, Wire);
  expectIdenticalTrees(snapshotTree(Threads.path()),
                       snapshotTree(Processes.path()));
}

TEST(CheckpointParity, FinalSubtotalFileAndReferencedShardShareOneBody) {
  // A sharded rank renders its final subtotal once and writes that body
  // twice: as its §3.4 subtotal file and as the checkpoint shard the final
  // manifest references. Under each transport the two must agree.
  for (TransportKind Kind :
       {TransportKind::Threads, TransportKind::Processes}) {
    SCOPED_TRACE(Kind == TransportKind::Threads ? "threads" : "processes");
    ScratchDir Dir("render_once");
    runSharded(Dir.path(), Kind, /*Async=*/false,
               [](RunConfig &Config) { Config.ProcessorCount = 2; });
    ckpt::CheckpointStore Ckpt(Dir.path() + "/parmonc_data/ckpt");
    Result<ckpt::CheckpointStore::RestoredGeneration> Generation =
        Ckpt.restoreWithFallback();
    ASSERT_TRUE(Generation.isOk()) << Generation.status().toString();
    EXPECT_FALSE(Generation.value().FromBackup);
    ASSERT_EQ(Generation.value().Shards.size(), 2u);
    for (const auto &Shard : Generation.value().Shards) {
      const std::string Path = Dir.path() + "/parmonc_data/subtotals/rank_" +
                               std::to_string(Shard.Rank) + ".dat";
      Result<std::string> Contents = readFileToString(Path);
      ASSERT_TRUE(Contents.isOk()) << Contents.status().toString();
      Result<std::string> Body = unsealFileContents(Path, Contents.value());
      ASSERT_TRUE(Body.isOk()) << Body.status().toString();
      EXPECT_EQ(Body.value(), Shard.Body) << "rank " << Shard.Rank;
      // The final quota of each rank, so this is the final subtotal.
      EXPECT_NE(Body.value().find("\nvolume 60\n"), std::string::npos);
    }
  }
}

} // namespace
} // namespace parmonc
