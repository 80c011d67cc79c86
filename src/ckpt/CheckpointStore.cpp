//===- ckpt/CheckpointStore.cpp - Sharded checkpoint store ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/ckpt/CheckpointStore.h"

#include "parmonc/support/Checksum.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

namespace parmonc {
namespace ckpt {

CheckpointStore::CheckpointStore(std::string RootDir)
    : Root(std::move(RootDir)) {}

std::string CheckpointStore::stagingDir() const { return Root + "/staging"; }
std::string CheckpointStore::shardsDir() const { return Root + "/shards"; }
std::string CheckpointStore::manifestPath() const {
  return Root + "/manifest.dat";
}
std::string CheckpointStore::prevManifestPath() const {
  return manifestPath() + ".prev";
}

std::string CheckpointStore::shardFileName(int Rank,
                                           uint64_t SequenceNumber,
                                           int64_t WriteIndex) {
  return "rank" + std::to_string(Rank) + "_s" +
         std::to_string(SequenceNumber) + "_k" +
         std::to_string(WriteIndex) + ".dat";
}

std::string CheckpointStore::baseFileName(uint64_t SequenceNumber,
                                          int64_t Generation) {
  return "base_s" + std::to_string(SequenceNumber) + "_g" +
         std::to_string(Generation) + ".dat";
}

void CheckpointStore::setWriteInterceptor(WriteInterceptor Hook) {
  Interceptor = std::move(Hook);
}

void CheckpointStore::attachMetrics(obs::MetricsRegistry *Registry) {
  Metrics = Registry;
}

Status CheckpointStore::prepareDirectories() const {
  if (Status Created = createDirectories(stagingDir()); !Created)
    return Created;
  return createDirectories(shardsDir());
}

Result<ShardEntry>
CheckpointStore::publishSealed(const std::string &FileName,
                               std::string_view Body, int Rank,
                               int64_t Volume) const {
  std::string Sealed = sealFileContents(Body);
  const std::string FinalPath = shardsDir() + "/" + FileName;

  ShardEntry Entry;
  Entry.Rank = Rank;
  Entry.File = FileName;
  // CRC and size of the *intended* bytes: the interceptor below models a
  // disk damaging them afterwards, which the restore must then detect by
  // exactly this mismatch.
  Entry.Crc = crc32(Sealed);
  Entry.Bytes = Sealed.size();
  Entry.Volume = Volume;

  if (Interceptor)
    if (std::optional<std::string> Damaged = Interceptor(FinalPath, Sealed))
      Sealed = std::move(*Damaged);

  // Stage and fsync, then publish with one rename. The staged file lives
  // in its own directory so a reader enumerating shards/ never sees a
  // partially written file even on filesystems where rename-over is the
  // only atomic primitive. No directory is fsynced here: commit()'s fsync
  // of shards/ is what makes every publish rename durable, and nothing
  // needs the staging entry to survive a crash.
  const std::string StagedPath = stagingDir() + "/" + FileName + ".tmp";
  if (Status Written = writeFileSynced(StagedPath, Sealed); !Written)
    return Written;
  std::error_code Error;
  std::filesystem::rename(StagedPath, FinalPath, Error);
  if (Error)
    return ioError("cannot publish shard '" + StagedPath + "' to '" +
                   FinalPath + "': " + Error.message());
  if (Metrics) {
    Metrics->counter("ckpt.shards_written").add();
    Metrics->counter("ckpt.shard_bytes").add(int64_t(Entry.Bytes));
  }
  return Entry;
}

Result<ShardEntry> CheckpointStore::writeShard(int Rank,
                                               uint64_t SequenceNumber,
                                               int64_t WriteIndex,
                                               std::string_view Body,
                                               int64_t Volume) const {
  if (Rank < 0)
    return invalidArgument("shard rank must be non-negative");
  return publishSealed(shardFileName(Rank, SequenceNumber, WriteIndex),
                       Body, Rank, Volume);
}

Status CheckpointStore::commit(const CommitRequest &Request) const {
  if (Request.RankCount < 1)
    return invalidArgument("commit needs a positive rank count");
  if (Request.KeepShards < 1)
    return invalidArgument("commit keep-shards must be >= 1");
  for (const ShardEntry &Entry : Request.Shards)
    if (Entry.Rank < 0 || Entry.Rank >= Request.RankCount)
      return invalidArgument("commit shard rank outside [0, ranks)");

  if (Status Prepared = prepareDirectories(); !Prepared)
    return Prepared;

  // Phase 1: the generation's own base shard joins the rank-published
  // shards, then one directory fsync makes every publish rename durable —
  // including renames done by forked rank processes; fsync of a directory
  // covers all its entries regardless of which process created them.
  Result<ShardEntry> Base = publishSealed(
      baseFileName(Request.SequenceNumber, Request.Generation),
      Request.BaseBody, /*Rank=*/-1, Request.BaseVolume);
  if (!Base) {
    if (Metrics)
      Metrics->counter("ckpt.commit_failures").add();
    return Base.status();
  }
  if (Status Synced = fsyncDirectory(shardsDir()); !Synced) {
    if (Metrics)
      Metrics->counter("ckpt.commit_failures").add();
    return Synced;
  }

  Manifest Record;
  Record.Generation = Request.Generation;
  Record.SequenceNumber = Request.SequenceNumber;
  Record.RankCount = Request.RankCount;
  Record.Base = Base.value();
  Record.Shards = Request.Shards;

  // Phase 2: rotate the previous commit record aside, then rename the new
  // sealed manifest into place. A crash between the two renames leaves
  // only .prev — which restoreWithFallback() reads — and a crash during
  // the manifest write leaves .prev plus a rejected (torn) primary.
  if (fileExists(manifestPath())) {
    std::error_code RotateError;
    std::filesystem::rename(manifestPath(), prevManifestPath(),
                            RotateError);
    if (RotateError) {
      if (Metrics)
        Metrics->counter("ckpt.commit_failures").add();
      return ioError("cannot rotate '" + manifestPath() +
                     "': " + RotateError.message());
    }
    // Make the rotation durable before the new manifest can land: power
    // loss must never leave a new manifest without its fallback. Best
    // effort here: writeFileAtomic below syncs the same directory after
    // the manifest rename and fails the commit on a real error, so
    // ignoring one here loses no error.
    (void)fsyncDirectory(Root);
  }
  std::string Sealed = sealFileContents(Record.toFileContents());
  if (Interceptor)
    if (std::optional<std::string> Damaged =
            Interceptor(manifestPath(), Sealed))
      Sealed = std::move(*Damaged);
  if (Status Written = writeFileAtomic(manifestPath(), Sealed); !Written) {
    if (Metrics)
      Metrics->counter("ckpt.commit_failures").add();
    return Written;
  }

  if (Metrics)
    Metrics->counter("ckpt.commits").add();
  pruneCommitted(Record, Request.KeepShards);
  return Status::ok();
}

Result<Manifest>
CheckpointStore::readManifest(const std::string &Path) const {
  Result<std::string> Contents = readFileToString(Path);
  if (!Contents)
    return Contents.status();
  Result<std::string> Body = unsealFileContents(Path, Contents.value());
  if (!Body)
    return Body.status();
  return Manifest::fromFileContents(Path, Body.value());
}

/// Reads one referenced shard, enforcing the manifest's byte count and
/// CRC against the on-disk bytes before unsealing.
static Result<std::string> loadShardBody(const std::string &ShardsDir,
                                         const ShardEntry &Entry) {
  const std::string Path = ShardsDir + "/" + Entry.File;
  if (!fileExists(Path))
    return notFound("checkpoint shard '" + Path + "' is missing");
  Result<std::string> Contents = readFileToString(Path);
  if (!Contents)
    return Contents.status();
  if (Contents.value().size() != Entry.Bytes)
    return ioError("checkpoint shard '" + Path + "' holds " +
                   std::to_string(Contents.value().size()) +
                   " bytes, manifest recorded " +
                   std::to_string(Entry.Bytes));
  if (crc32(Contents.value()) != Entry.Crc)
    return ioError("checkpoint shard '" + Path +
                   "' fails its manifest CRC");
  return unsealFileContents(Path, Contents.value());
}

Result<CheckpointStore::RestoredGeneration>
CheckpointStore::restoreGeneration(const std::string &ManifestPath) const {
  Result<Manifest> Parsed = readManifest(ManifestPath);
  if (!Parsed)
    return Parsed.status();

  RestoredGeneration Restored;
  Restored.Source = std::move(Parsed).value();
  Result<std::string> Base =
      loadShardBody(shardsDir(), Restored.Source.Base);
  if (!Base)
    return Base.status();
  Restored.BaseBody = std::move(Base).value();
  for (const ShardEntry &Entry : Restored.Source.Shards) {
    Result<std::string> Body = loadShardBody(shardsDir(), Entry);
    if (!Body)
      return Body.status();
    RestoredShard Shard;
    Shard.Rank = Entry.Rank;
    Shard.Body = std::move(Body).value();
    Shard.Volume = Entry.Volume;
    Restored.Shards.push_back(std::move(Shard));
  }
  return Restored;
}

Result<CheckpointStore::RestoredGeneration>
CheckpointStore::restoreWithFallback() const {
  Result<RestoredGeneration> Primary = restoreGeneration(manifestPath());
  if (Primary) {
    if (Metrics)
      Metrics->counter("ckpt.restores").add();
    return Primary;
  }
  if (fileExists(prevManifestPath())) {
    Result<RestoredGeneration> Previous =
        restoreGeneration(prevManifestPath());
    if (Previous) {
      RestoredGeneration Restored = std::move(Previous).value();
      Restored.FromBackup = true;
      Restored.PrimaryError = Primary.status().toString();
      if (Metrics) {
        Metrics->counter("ckpt.restores").add();
        Metrics->counter("ckpt.restore_fallbacks").add();
      }
      return Restored;
    }
  }
  // Both generations unreadable: the primary's error is the useful one.
  return Primary.status();
}

bool CheckpointStore::hasAnyManifest() const {
  return fileExists(manifestPath()) || fileExists(prevManifestPath());
}

Status CheckpointStore::removeAll() const {
  std::error_code Error;
  std::filesystem::remove_all(Root, Error);
  if (Error)
    return ioError("cannot remove checkpoint tree '" + Root +
                   "': " + Error.message());
  return Status::ok();
}

/// "rank<r>_s<seq>_k<K>.dat" / "base_s<seq>_g<G>.dat" → (key, index).
/// The key identifies the rotation group (one per rank+sequence, one per
/// base+sequence); the index orders files within the group.
static bool parseShardName(const std::string &Name, std::string &Key,
                           int64_t &Index) {
  if (Name.size() < 5 || Name.substr(Name.size() - 4) != ".dat")
    return false;
  const std::string Stem = Name.substr(0, Name.size() - 4);
  const size_t Split = Stem.rfind(startsWith(Stem, "base_") ? "_g" : "_k");
  if (Split == std::string::npos)
    return false;
  Result<int64_t> Parsed = parseInt64(Stem.substr(Split + 2));
  if (!Parsed || Parsed.value() < 0)
    return false;
  Key = Stem.substr(0, Split);
  Index = Parsed.value();
  return true;
}

void CheckpointStore::pruneCommitted(const Manifest &Current,
                                     int KeepShards) const {
  // Files referenced by either live manifest are immortal; beyond those,
  // each rotation group keeps its KeepShards newest write indices. The
  // .prev manifest's references are read best-effort — an unreadable
  // .prev simply protects nothing extra.
  std::set<std::string> Referenced;
  Referenced.insert(Current.Base.File);
  for (const ShardEntry &Entry : Current.Shards)
    Referenced.insert(Entry.File);
  if (fileExists(prevManifestPath()))
    if (Result<Manifest> Previous = readManifest(prevManifestPath())) {
      Referenced.insert(Previous.value().Base.File);
      for (const ShardEntry &Entry : Previous.value().Shards)
        Referenced.insert(Entry.File);
    }

  struct GroupFile {
    int64_t Index;
    std::string Name;
  };
  std::map<std::string, std::vector<GroupFile>> Groups;
  std::error_code Error;
  std::filesystem::directory_iterator Directory(shardsDir(), Error);
  if (Error)
    return;
  for (const auto &DirEntry : Directory) {
    const std::string Name = DirEntry.path().filename().string();
    std::string Key;
    int64_t Index = 0;
    if (!parseShardName(Name, Key, Index))
      continue;
    Groups[Key].push_back(GroupFile{Index, Name});
  }

  int64_t Pruned = 0;
  for (auto &[Key, Files] : Groups) {
    std::sort(Files.begin(), Files.end(),
              [](const GroupFile &A, const GroupFile &B) {
                return A.Index > B.Index;
              });
    for (size_t Position = 0; Position < Files.size(); ++Position) {
      if (Position < size_t(KeepShards))
        continue;
      if (Referenced.count(Files[Position].Name))
        continue;
      std::error_code RemoveError;
      if (std::filesystem::remove(shardsDir() + "/" + Files[Position].Name,
                                  RemoveError))
        ++Pruned;
    }
  }
  if (Metrics && Pruned > 0)
    Metrics->counter("ckpt.pruned_files").add(Pruned);
}

} // namespace ckpt
} // namespace parmonc
