//===- tests/core/CheckpointBridgeTest.cpp - The resume ladder ------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// restoreResumeBase() owns the whole resume decision: which persisted
// source a resumed run starts from, and the ResumedFromBackup /
// RestoredFromShards flags it reports. These tests drive the ladder
// directly over trees built by a sharded run plus a hand-written
// checkpoint.dat.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/CheckpointBridge.h"

#include "parmonc/core/Runner.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_bridge_" + Name + "_" + std::to_string(Counter++)))
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

/// A 1x1 snapshot of \p Volume realizations of the value 0.5 under
/// experiment \p SequenceNumber.
MomentSnapshot snapshotOf(int64_t Volume, uint64_t SequenceNumber,
                          size_t Columns = 1) {
  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = SequenceNumber;
  Snapshot.Moments = EstimatorMatrix(1, Columns);
  const std::vector<double> Values(Columns, 0.5);
  for (int64_t Index = 0; Index < Volume; ++Index)
    Snapshot.Moments.accumulate(Values.data());
  return Snapshot;
}

/// Leaves a committed sharded checkpoint of \p Volume realizations
/// (experiment 0) in \p WorkDir.
void runSharded(const std::string &WorkDir, int64_t Volume) {
  RunConfig Config;
  Config.MaxSampleVolume = Volume;
  Config.ProcessorCount = 2;
  Config.DeterministicSchedule = true;
  Config.CheckpointShards = true;
  Config.AveragePeriodNanos = 1'000'000'000;
  Config.WorkDir = WorkDir;
  ASSERT_TRUE(runSimulation(uniformRealization, Config).isOk());
}

struct Tree {
  explicit Tree(const std::string &WorkDir)
      : Store(WorkDir), Ckpt(Store.checkpointDir()) {}
  ResultsStore Store;
  ckpt::CheckpointStore Ckpt;
};

TEST(CheckpointBridge, NoCheckpointIsAFailedPrecondition) {
  ScratchDir Dir("none");
  Tree T(Dir.path());
  Result<ResumeBase> Resumed =
      restoreResumeBase(T.Store, T.Ckpt, snapshotOf(0, 1));
  ASSERT_FALSE(Resumed.isOk());
  EXPECT_EQ(Resumed.status().code(), StatusCode::FailedPrecondition);
}

TEST(CheckpointBridge, FresherSourceWinsTheArbitration) {
  ScratchDir Dir("arbitrate");
  runSharded(Dir.path(), 100);
  Tree T(Dir.path());

  // The manifest holds 100 realizations, checkpoint.dat 60: shards win.
  ASSERT_TRUE(
      T.Store.writeSnapshot(T.Store.checkpointPath(), snapshotOf(60, 0))
          .isOk());
  Result<ResumeBase> Sharded =
      restoreResumeBase(T.Store, T.Ckpt, snapshotOf(0, 1));
  ASSERT_TRUE(Sharded.isOk()) << Sharded.status().toString();
  EXPECT_TRUE(Sharded.value().RestoredFromShards);
  EXPECT_FALSE(Sharded.value().ResumedFromBackup);
  EXPECT_EQ(Sharded.value().Base.Moments.sampleVolume(), 100);
  EXPECT_EQ(Sharded.value().Base.SequenceNumber, 1u);

  // checkpoint.dat now holds 150: strictly fresher, so it wins.
  ASSERT_TRUE(
      T.Store.writeSnapshot(T.Store.checkpointPath(), snapshotOf(150, 0))
          .isOk());
  Result<ResumeBase> Single =
      restoreResumeBase(T.Store, T.Ckpt, snapshotOf(0, 1));
  ASSERT_TRUE(Single.isOk()) << Single.status().toString();
  EXPECT_FALSE(Single.value().RestoredFromShards);
  EXPECT_FALSE(Single.value().ResumedFromBackup);
  EXPECT_EQ(Single.value().Base.Moments.sampleVolume(), 150);
  EXPECT_EQ(Single.value().Base.SequenceNumber, 1u);
}

TEST(CheckpointBridge, RejectedManifestsFallThroughToCheckpointDat) {
  // Every manifest generation rotted: the ladder goes one more rung down
  // to checkpoint.dat and flags the resume as a backup resume.
  ScratchDir Dir("rotted");
  runSharded(Dir.path(), 100);
  Tree T(Dir.path());
  ASSERT_TRUE(
      T.Store.writeSnapshot(T.Store.checkpointPath(), snapshotOf(60, 0))
          .isOk());
  for (const std::string &Manifest :
       {T.Ckpt.manifestPath(), T.Ckpt.prevManifestPath()})
    ASSERT_TRUE(writeFileAtomic(Manifest, "not a manifest\n").isOk());

  Result<ResumeBase> Resumed =
      restoreResumeBase(T.Store, T.Ckpt, snapshotOf(0, 1));
  ASSERT_TRUE(Resumed.isOk()) << Resumed.status().toString();
  EXPECT_FALSE(Resumed.value().RestoredFromShards);
  EXPECT_TRUE(Resumed.value().ResumedFromBackup);
  EXPECT_EQ(Resumed.value().Base.Moments.sampleVolume(), 60);
}

TEST(CheckpointBridge, RejectsSameSequenceNumberAndShapeMismatch) {
  ScratchDir Dir("mismatch");
  Tree T(Dir.path());
  ASSERT_TRUE(T.Store.prepareDirectories().isOk());
  ASSERT_TRUE(
      T.Store.writeSnapshot(T.Store.checkpointPath(), snapshotOf(10, 3))
          .isOk());

  Result<ResumeBase> SameExperiment =
      restoreResumeBase(T.Store, T.Ckpt, snapshotOf(0, 3));
  ASSERT_FALSE(SameExperiment.isOk());
  EXPECT_EQ(SameExperiment.status().code(), StatusCode::FailedPrecondition);

  Result<ResumeBase> WrongShape =
      restoreResumeBase(T.Store, T.Ckpt, snapshotOf(0, 4, /*Columns=*/2));
  ASSERT_FALSE(WrongShape.isOk());
  EXPECT_EQ(WrongShape.status().code(), StatusCode::FailedPrecondition);
}

} // namespace
} // namespace parmonc
