//===- ckpt/Manifest.cpp - Checkpoint generation manifest -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/ckpt/Manifest.h"

#include "parmonc/support/Checksum.h"
#include "parmonc/support/Text.h"

#include <algorithm>

namespace parmonc {
namespace ckpt {

static Result<uint32_t> parseCrcHex(std::string_view Text) {
  if (Text.size() != 8)
    return parseError("manifest crc must be 8 hex digits");
  uint32_t Value = 0;
  for (char Digit : Text) {
    uint32_t Nibble;
    if (Digit >= '0' && Digit <= '9')
      Nibble = uint32_t(Digit - '0');
    else if (Digit >= 'a' && Digit <= 'f')
      Nibble = uint32_t(Digit - 'a' + 10);
    else
      return parseError("manifest crc holds a non-hex digit");
    Value = (Value << 4) | Nibble;
  }
  return Value;
}

/// A shard filename must be a bare name inside the shards directory;
/// anything resembling a path component escape is rejected outright.
static bool isSafeShardFileName(std::string_view Name) {
  if (Name.empty() || Name == "." || Name == "..")
    return false;
  return Name.find('/') == std::string_view::npos &&
         Name.find('\\') == std::string_view::npos;
}

static std::string formatEntryFields(const ShardEntry &Entry) {
  return Entry.File + " crc " + formatCrc32Hex(Entry.Crc) + " bytes " +
         std::to_string(Entry.Bytes) + " volume " +
         std::to_string(Entry.Volume);
}

/// Parses "<file> crc <hex8> bytes <n> volume <v>" (fields [Start..end)).
static Result<ShardEntry>
parseEntryFields(const std::vector<std::string_view> &Fields, size_t Start) {
  if (Fields.size() != Start + 7 || Fields[Start + 1] != "crc" ||
      Fields[Start + 3] != "bytes" || Fields[Start + 5] != "volume")
    return parseError("malformed manifest shard entry");
  ShardEntry Entry;
  if (!isSafeShardFileName(Fields[Start]))
    return parseError("manifest shard filename is not a bare file name");
  Entry.File = std::string(Fields[Start]);
  Result<uint32_t> Crc = parseCrcHex(Fields[Start + 2]);
  if (!Crc)
    return Crc.status();
  Entry.Crc = Crc.value();
  Result<uint64_t> Bytes = parseUInt64(Fields[Start + 4]);
  if (!Bytes)
    return Bytes.status();
  Entry.Bytes = Bytes.value();
  Result<int64_t> Volume = parseInt64(Fields[Start + 6]);
  if (!Volume)
    return Volume.status();
  if (Volume.value() < 0)
    return parseError("manifest shard volume must be non-negative");
  Entry.Volume = Volume.value();
  return Entry;
}

std::string Manifest::toFileContents() const {
  std::vector<const ShardEntry *> Ordered;
  Ordered.reserve(Shards.size());
  for (const ShardEntry &Entry : Shards)
    Ordered.push_back(&Entry);
  std::sort(Ordered.begin(), Ordered.end(),
            [](const ShardEntry *A, const ShardEntry *B) {
              return A->Rank < B->Rank;
            });

  std::string Text;
  Text += "# PARMONC checkpoint manifest: one sealed shard per rank\n";
  Text += "version 1\n";
  Text += "generation " + std::to_string(Generation) + "\n";
  Text += "seqnum " + std::to_string(SequenceNumber) + "\n";
  Text += "ranks " + std::to_string(RankCount) + "\n";
  Text += "shards " + std::to_string(Ordered.size()) + "\n";
  Text += "base " + formatEntryFields(Base) + "\n";
  for (const ShardEntry *Entry : Ordered)
    Text += "shard " + std::to_string(Entry->Rank) + " " +
            formatEntryFields(*Entry) + "\n";
  Text += "end\n";
  return Text;
}

Result<Manifest> Manifest::fromFileContents(const std::string &Path,
                                            std::string_view Contents) {
  Manifest Parsed;
  uint64_t DeclaredShards = 0;
  bool HaveVersion = false, HaveGeneration = false, HaveSeqnum = false,
       HaveRanks = false, HaveShardCount = false, HaveBase = false,
       HaveEnd = false;

  auto fail = [&](const std::string &Message) {
    return parseError("'" + Path + "': " + Message);
  };

  for (std::string_view Line : splitChar(Contents, '\n')) {
    std::string_view Stripped = trim(Line);
    if (Stripped.empty() || Stripped[0] == '#')
      continue;
    if (HaveEnd)
      return fail("content after the end marker");
    auto Fields = splitWhitespace(Stripped);
    const std::string_view Key = Fields[0];
    if (Key == "version" && Fields.size() == 2) {
      if (HaveVersion)
        return fail("duplicate version directive");
      if (Fields[1] != "1")
        return fail("unsupported manifest version '" +
                    std::string(Fields[1]) + "'");
      HaveVersion = true;
    } else if (Key == "generation" && Fields.size() == 2) {
      if (HaveGeneration)
        return fail("duplicate generation directive");
      Result<int64_t> Value = parseInt64(Fields[1]);
      if (!Value || Value.value() < 0)
        return fail("bad generation number");
      Parsed.Generation = Value.value();
      HaveGeneration = true;
    } else if (Key == "seqnum" && Fields.size() == 2) {
      if (HaveSeqnum)
        return fail("duplicate seqnum directive");
      Result<uint64_t> Value = parseUInt64(Fields[1]);
      if (!Value)
        return fail("bad sequence number");
      Parsed.SequenceNumber = Value.value();
      HaveSeqnum = true;
    } else if (Key == "ranks" && Fields.size() == 2) {
      if (HaveRanks)
        return fail("duplicate ranks directive");
      Result<int64_t> Value = parseInt64(Fields[1]);
      if (!Value || Value.value() < 1 || Value.value() > (int64_t(1) << 30))
        return fail("bad rank count");
      Parsed.RankCount = int(Value.value());
      HaveRanks = true;
    } else if (Key == "shards" && Fields.size() == 2) {
      if (HaveShardCount)
        return fail("duplicate shards directive");
      Result<uint64_t> Value = parseUInt64(Fields[1]);
      if (!Value)
        return fail("bad shard count");
      DeclaredShards = Value.value();
      HaveShardCount = true;
    } else if (Key == "base") {
      if (HaveBase)
        return fail("duplicate base entry");
      Result<ShardEntry> Entry = parseEntryFields(Fields, 1);
      if (!Entry)
        return fail(Entry.status().message());
      Parsed.Base = std::move(Entry).value();
      Parsed.Base.Rank = -1;
      HaveBase = true;
    } else if (Key == "shard") {
      if (Fields.size() < 2)
        return fail("shard entry without a rank");
      if (!HaveRanks)
        return fail("shard entry before the ranks directive");
      Result<int64_t> Rank = parseInt64(Fields[1]);
      if (!Rank || Rank.value() < 0 || Rank.value() >= Parsed.RankCount)
        return fail("shard rank outside [0, ranks)");
      Result<ShardEntry> Entry = parseEntryFields(Fields, 2);
      if (!Entry)
        return fail(Entry.status().message());
      ShardEntry Shard = std::move(Entry).value();
      Shard.Rank = int(Rank.value());
      for (const ShardEntry &Existing : Parsed.Shards)
        if (Existing.Rank == Shard.Rank)
          return fail("duplicate shard entry for rank " +
                      std::to_string(Shard.Rank));
      Parsed.Shards.push_back(std::move(Shard));
    } else if (Key == "end" && Fields.size() == 1) {
      HaveEnd = true;
    } else {
      return fail("unknown manifest directive '" + std::string(Key) + "'");
    }
  }

  if (!HaveVersion || !HaveGeneration || !HaveSeqnum || !HaveRanks ||
      !HaveShardCount || !HaveBase)
    return fail("manifest is missing required directives");
  if (!HaveEnd)
    return fail("manifest is missing its end marker (torn write)");
  if (Parsed.Shards.size() != DeclaredShards)
    return fail("manifest lists " + std::to_string(Parsed.Shards.size()) +
                " shards but declares " + std::to_string(DeclaredShards));
  std::sort(Parsed.Shards.begin(), Parsed.Shards.end(),
            [](const ShardEntry &A, const ShardEntry &B) {
              return A.Rank < B.Rank;
            });
  return Parsed;
}

} // namespace ckpt
} // namespace parmonc
