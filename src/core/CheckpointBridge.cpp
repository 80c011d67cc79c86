//===- core/CheckpointBridge.cpp - Shard <-> snapshot glue ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/CheckpointBridge.h"

#include "parmonc/support/Text.h"

#include <algorithm>
#include <utility>

namespace parmonc {

/// Parses and merges one fully loaded generation. Payload parse or merge
/// failures reject the generation as a whole, exactly like a CRC failure.
static Result<ResumeBase>
mergeGeneration(ckpt::CheckpointStore::RestoredGeneration Generation) {
  Result<MomentSnapshot> Base =
      MomentSnapshot::fromFileContents(Generation.BaseBody);
  if (!Base)
    return Status(Base.status().code(),
                  "base shard of checkpoint generation " +
                      std::to_string(Generation.Source.Generation) + ": " +
                      Base.status().message());
  MomentSnapshot Merged = std::move(Base).value();

  // The store hands shards back in ascending rank order already; sort
  // defensively so the merge order — and with it the floating-point
  // result — never depends on manifest line order.
  std::sort(Generation.Shards.begin(), Generation.Shards.end(),
            [](const ckpt::CheckpointStore::RestoredShard &Left,
               const ckpt::CheckpointStore::RestoredShard &Right) {
              return Left.Rank < Right.Rank;
            });
  for (const ckpt::CheckpointStore::RestoredShard &Shard : Generation.Shards) {
    Result<MomentSnapshot> Part = MomentSnapshot::fromFileContents(Shard.Body);
    if (!Part)
      return Status(Part.status().code(),
                    "shard of rank " + std::to_string(Shard.Rank) +
                        ", checkpoint generation " +
                        std::to_string(Generation.Source.Generation) + ": " +
                        Part.status().message());
    if (Status MergedOk = Merged.mergeFrom(Part.value()); !MergedOk)
      return Status(MergedOk.code(),
                    "merging shard of rank " + std::to_string(Shard.Rank) +
                        ": " + MergedOk.message());
  }

  // The manifest records the sequence number of the run that committed it
  // — the same number the legacy checkpoint.dat would carry.
  Merged.SequenceNumber = Generation.Source.SequenceNumber;

  ResumeBase Recovered;
  Recovered.Base = std::move(Merged);
  Recovered.ResumedFromBackup = Generation.FromBackup;
  Recovered.RestoredFromShards = true;
  return Recovered;
}

/// The newest loadable sharded generation, merged.
static Result<ResumeBase> restoreSharded(const ckpt::CheckpointStore &Store) {
  Result<ckpt::CheckpointStore::RestoredGeneration> Loaded =
      Store.restoreWithFallback();
  if (!Loaded)
    return Loaded.status();
  const bool PrimaryLoaded = !Loaded.value().FromBackup;
  Result<ResumeBase> Merged = mergeGeneration(std::move(Loaded).value());
  if (Merged || !PrimaryLoaded)
    return Merged;
  // The primary generation's bytes all passed their CRCs yet a payload
  // refused to parse or merge (e.g. an interceptor rewrote a shard into a
  // different well-formed file, or shapes disagree). One more rung on the
  // ladder: the previous generation.
  Result<ckpt::CheckpointStore::RestoredGeneration> Previous =
      Store.restoreGeneration(Store.prevManifestPath());
  if (!Previous)
    return Merged; // the primary's error is the useful one
  Result<ResumeBase> PreviousMerged =
      mergeGeneration(std::move(Previous).value());
  if (!PreviousMerged)
    return Merged;
  PreviousMerged.value().ResumedFromBackup = true;
  return PreviousMerged;
}

/// checkpoint.dat, or checkpoint.dat.prev when the primary fails its CRC
/// (the torn-write case); a file that fails its CRC is never loaded.
static Result<ResumeBase> restoreSingle(const ResultsStore &Store) {
  Result<ResultsStore::RecoveredSnapshot> Recovered =
      Store.readSnapshotWithFallback(Store.checkpointPath());
  if (!Recovered)
    return Recovered.status();
  ResumeBase Resumed;
  Resumed.ResumedFromBackup = Recovered.value().FromBackup;
  Resumed.Base = std::move(Recovered).value().Snapshot;
  return Resumed;
}

Result<ResumeBase> restoreResumeBase(const ResultsStore &Store,
                                     const ckpt::CheckpointStore &Ckpt,
                                     MomentSnapshot Fresh) {
  const bool HaveManifest = Ckpt.hasAnyManifest();
  const bool HaveLegacy =
      fileExists(Store.checkpointPath()) ||
      fileExists(ResultsStore::backupPath(Store.checkpointPath()));
  if (!HaveManifest && !HaveLegacy)
    return failedPrecondition(
        "resume requested but no checkpoint exists at " +
        Store.checkpointPath());
  Result<ResumeBase> Sharded = notFound("no checkpoint manifest");
  if (HaveManifest)
    Sharded = restoreSharded(Ckpt);
  Result<ResumeBase> Single = restoreSingle(Store);
  if (!Sharded && !Single)
    return HaveManifest ? Sharded.status() : Single.status();

  const bool UseSharded =
      Sharded && (!Single || Sharded.value().Base.Moments.sampleVolume() >=
                                 Single.value().Base.Moments.sampleVolume());
  ResumeBase Resumed =
      UseSharded ? std::move(Sharded).value() : std::move(Single).value();
  // Every manifest generation was rejected: one more rung down the ladder,
  // flagged as a backup resume.
  if (HaveManifest && !Sharded)
    Resumed.ResumedFromBackup = true;

  if (Resumed.Base.SequenceNumber == Fresh.SequenceNumber)
    return failedPrecondition(
        "resumed run must use a different experiment subsequence number "
        "than the previous run (paper §3.2); previous used " +
        std::to_string(Resumed.Base.SequenceNumber));
  // Merging into the fresh snapshot restamps the sequence number (the
  // merged results belong to the new experiment) and proves the matrix
  // shape and histogram geometry match; adding to zero sums is exact.
  if (Status Fits = Fresh.mergeFrom(Resumed.Base); !Fits)
    return failedPrecondition("checkpoint does not match the configured "
                              "matrix shape or histograms: " +
                              Fits.message());
  Resumed.Base = std::move(Fresh);
  return Resumed;
}

} // namespace parmonc
