//===- tests/ckpt/ManifestTest.cpp - Manifest format & parser hostility ---===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The manifest is the commit point of a sharded checkpoint generation, so
// its parser must be strict (a manifest that fails any validation routes
// the restore to the previous generation — it is never partially trusted)
// and must be total: no hostile byte sequence may crash it. The fuzz
// sections drive deterministic mutations — bit flips, truncations, length
// lies, duplicated and dropped lines — through the manifest parser and
// through both MomentSnapshot deserializers, asserting error-not-crash
// everywhere.
//
//===----------------------------------------------------------------------===//

#include "parmonc/ckpt/Manifest.h"
#include "parmonc/core/ResultsStore.h"
#include "parmonc/rng/Baselines.h"

#include <gtest/gtest.h>

namespace parmonc {
namespace ckpt {
namespace {

Manifest sampleManifest() {
  Manifest Source;
  Source.Generation = 7;
  Source.SequenceNumber = 3;
  Source.RankCount = 4;
  Source.Base = {-1, "base_s3_g7.dat", 0xdeadbeef, 120, 40};
  Source.Shards.push_back({2, "rank2_s3_k5.dat", 0x01020304, 64, 10});
  Source.Shards.push_back({0, "rank0_s3_k9.dat", 0xcafef00d, 77, 12});
  return Source;
}

TEST(Manifest, RoundTripPreservesEveryField) {
  const Manifest Source = sampleManifest();
  const std::string Text = Source.toFileContents();
  Result<Manifest> Parsed = Manifest::fromFileContents("m.dat", Text);
  ASSERT_TRUE(Parsed.isOk()) << Parsed.status().toString();
  const Manifest &Out = Parsed.value();
  EXPECT_EQ(Out.Generation, 7);
  EXPECT_EQ(Out.SequenceNumber, 3u);
  EXPECT_EQ(Out.RankCount, 4);
  EXPECT_EQ(Out.Base.File, "base_s3_g7.dat");
  EXPECT_EQ(Out.Base.Crc, 0xdeadbeefu);
  EXPECT_EQ(Out.Base.Bytes, 120u);
  EXPECT_EQ(Out.Base.Volume, 40);
  ASSERT_EQ(Out.Shards.size(), 2u);
  // The parser sorts by rank; serialization already emitted rank order.
  EXPECT_EQ(Out.Shards[0].Rank, 0);
  EXPECT_EQ(Out.Shards[0].File, "rank0_s3_k9.dat");
  EXPECT_EQ(Out.Shards[0].Crc, 0xcafef00du);
  EXPECT_EQ(Out.Shards[1].Rank, 2);
  EXPECT_EQ(Out.Shards[1].Volume, 10);
  // Re-serializing the parse is byte-identical: the format is canonical.
  EXPECT_EQ(Out.toFileContents(), Text);
}

TEST(Manifest, SerializationIsCanonicalAcrossShardOrder) {
  Manifest Shuffled = sampleManifest();
  std::swap(Shuffled.Shards[0], Shuffled.Shards[1]);
  EXPECT_EQ(Shuffled.toFileContents(), sampleManifest().toFileContents());
}

TEST(Manifest, EmptyShardListIsValid) {
  // Ranks that never reported by commit time are simply absent (§2.2's
  // cumulative subtotals make that a freshness loss, not corruption).
  Manifest Source = sampleManifest();
  Source.Shards.clear();
  Result<Manifest> Parsed =
      Manifest::fromFileContents("m.dat", Source.toFileContents());
  ASSERT_TRUE(Parsed.isOk()) << Parsed.status().toString();
  EXPECT_TRUE(Parsed.value().Shards.empty());
}

TEST(Manifest, StrictParserRejectsEveryDamageClass) {
  const std::string Good = sampleManifest().toFileContents();
  struct Damage {
    const char *Label;
    std::string Text;
    const char *ExpectInMessage;
  };
  const Damage Cases[] = {
      {"empty file", "", "missing required directives"},
      {"torn write (no end)",
       Good.substr(0, Good.size() - std::string("end\n").size()),
       "end marker"},
      {"content after end", Good + "shard 1 x crc 00000000 bytes 1 volume 1\n",
       "after the end marker"},
      {"unknown directive", "bogus 1\n" + Good, "unknown manifest directive"},
      {"unsupported version",
       [&] {
         std::string T = Good;
         T.replace(T.find("version 1"), 9, "version 2");
         return T;
       }(),
       "unsupported manifest version"},
      {"shard count lie (too few listed)",
       [&] {
         std::string T = Good;
         T.replace(T.find("shards 2"), 8, "shards 3");
         return T;
       }(),
       "declares 3"},
      {"duplicate rank",
       [&] {
         std::string T = Good;
         const std::string Line = "shard 0 rank0_s3_k9.dat crc cafef00d "
                                  "bytes 77 volume 12\n";
         T.insert(T.find("end\n"), Line);
         return T;
       }(),
       "duplicate shard entry for rank 0"},
      {"rank outside [0, ranks)",
       [&] {
         std::string T = Good;
         T.replace(T.find("shard 2 "), 8, "shard 9 ");
         return T;
       }(),
       "outside [0, ranks)"},
      {"path-escaping shard filename",
       [&] {
         std::string T = Good;
         T.replace(T.find("rank2_s3_k5.dat"), 15, "../../etc/passwd");
         return T;
       }(),
       "bare file name"},
      {"non-hex crc",
       [&] {
         std::string T = Good;
         T.replace(T.find("cafef00d"), 8, "cafef00z");
         return T;
       }(),
       "non-hex"},
      {"negative volume",
       [&] {
         std::string T = Good;
         T.replace(T.find("volume 40"), 9, "volume -4");
         return T;
       }(),
       "non-negative"},
  };
  for (const Damage &Case : Cases) {
    Result<Manifest> Parsed =
        Manifest::fromFileContents("m.dat", Case.Text);
    ASSERT_FALSE(Parsed.isOk()) << Case.Label;
    EXPECT_NE(Parsed.status().message().find("'m.dat'"), std::string::npos)
        << Case.Label;
    EXPECT_NE(Parsed.status().message().find(Case.ExpectInMessage),
              std::string::npos)
        << Case.Label << ": " << Parsed.status().message();
  }
}

//===----------------------------------------------------------------------===//
// Deterministic fuzzing: error-not-crash over mutated inputs.
//===----------------------------------------------------------------------===//

/// Applies one deterministic mutation to \p Text: a bit flip, a
/// truncation, a mid-file deletion, or a duplicated slice (which covers
/// duplicated lines and entries).
std::string mutate(const std::string &Text, SplitMix64 &Rng) {
  std::string Out = Text;
  if (Out.empty())
    return Out;
  switch (Rng.nextBits64() % 4) {
  case 0: { // bit flip
    const size_t At = Rng.nextBits64() % Out.size();
    Out[At] = char(Out[At] ^ (1 << (Rng.nextBits64() % 8)));
    break;
  }
  case 1: // truncation
    Out.resize(Rng.nextBits64() % Out.size());
    break;
  case 2: { // deletion of a middle slice
    const size_t From = Rng.nextBits64() % Out.size();
    const size_t Len = 1 + Rng.nextBits64() % 16;
    Out.erase(From, Len);
    break;
  }
  default: { // duplicated slice
    const size_t From = Rng.nextBits64() % Out.size();
    const size_t Len = 1 + Rng.nextBits64() % 32;
    Out.insert(From, Out.substr(From, Len));
    break;
  }
  }
  return Out;
}

TEST(ManifestFuzz, MutatedManifestsErrorButNeverCrash) {
  const std::string Good = sampleManifest().toFileContents();
  SplitMix64 Rng(0x9e3779b97f4a7c15ull);
  int Parsed = 0;
  for (int Round = 0; Round < 4000; ++Round) {
    std::string Hostile = Good;
    const int Mutations = 1 + int(Rng.nextBits64() % 3);
    for (int Step = 0; Step < Mutations; ++Step)
      Hostile = mutate(Hostile, Rng);
    Result<Manifest> Out = Manifest::fromFileContents("fuzz.dat", Hostile);
    if (Out.isOk())
      ++Parsed; // benign mutation (e.g. flipped a comment byte) — fine
  }
  // Sanity: the mutator is actually hostile — most inputs must be rejected.
  EXPECT_LT(Parsed, 2000);
}

MomentSnapshot sampleSnapshot() {
  Result<EstimatorMatrix> Moments = EstimatorMatrix::fromRawSums(
      2, 3, {1.0, -2.5, 3.25, 0.0, 7.5, -0.125},
      {1.0, 6.25, 11.0, 0.0, 60.0, 2.0}, 17);
  EXPECT_TRUE(Moments.isOk());
  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = 5;
  Snapshot.ComputeSeconds = 0.75;
  Snapshot.Moments = std::move(Moments).value();
  HistogramEstimator Histogram(0.0, 1.0, 8);
  Histogram.add(0.2);
  Histogram.add(0.9);
  Histogram.add(-1.0);
  Snapshot.Histograms.push_back(std::move(Histogram));
  return Snapshot;
}

TEST(ManifestFuzz, MutatedSnapshotTextErrorsButNeverCrashes) {
  const std::string Good = sampleSnapshot().toFileContents();
  SplitMix64 Rng(0xa0761d6478bd642full);
  for (int Round = 0; Round < 4000; ++Round) {
    std::string Hostile = Good;
    const int Mutations = 1 + int(Rng.nextBits64() % 3);
    for (int Step = 0; Step < Mutations; ++Step)
      Hostile = mutate(Hostile, Rng);
    Result<MomentSnapshot> Out = MomentSnapshot::fromFileContents(Hostile);
    (void)Out; // either outcome is fine; crashing or asserting is not
  }
}

TEST(ManifestFuzz, MutatedSnapshotBytesErrorButNeverCrash) {
  // The binary mailbox form carries internal length fields, so bit flips
  // here exercise length lies: a vector length claiming more doubles than
  // the buffer holds must fail the bounds check, not read past the end.
  // The sample's histogram travels in binary too (range, side counts, a
  // length-prefixed count vector — the message's last 104 bytes): a
  // quarter of the flips land there, and whatever still decodes must hold
  // the histogram invariants.
  const std::vector<uint8_t> Good = sampleSnapshot().toBytes();
  const size_t HistogramBytes = 4 * 8 + 8 + 8 * 8;
  ASSERT_GT(Good.size(), HistogramBytes);
  SplitMix64 Rng(0x2545f4914f6cdd1dull);
  for (int Round = 0; Round < 4000; ++Round) {
    std::vector<uint8_t> Hostile = Good;
    switch (Rng.nextBits64() % 4) {
    case 0: {
      const size_t At = Rng.nextBits64() % Hostile.size();
      Hostile[At] = uint8_t(Hostile[At] ^ (1 << (Rng.nextBits64() % 8)));
      break;
    }
    case 3: {
      const size_t At = Hostile.size() - 1 -
                        size_t(Rng.nextBits64() % HistogramBytes);
      Hostile[At] = uint8_t(Hostile[At] ^ (1 << (Rng.nextBits64() % 8)));
      break;
    }
    case 1:
      Hostile.resize(Rng.nextBits64() % Hostile.size());
      break;
    default: {
      const size_t Extra = 1 + Rng.nextBits64() % 64;
      for (size_t Pad = 0; Pad < Extra; ++Pad)
        Hostile.push_back(uint8_t(Rng.nextBits64()));
      break;
    }
    }
    Result<MomentSnapshot> Out = MomentSnapshot::fromBytes(Hostile);
    if (!Out)
      continue;
    for (const HistogramEstimator &Histogram : Out.value().Histograms) {
      EXPECT_LT(Histogram.low(), Histogram.high());
      EXPECT_GT(Histogram.binCount(), 0u);
      EXPECT_GE(Histogram.underflowCount(), 0);
      EXPECT_GE(Histogram.overflowCount(), 0);
      for (int64_t Count : Histogram.counts())
        EXPECT_GE(Count, 0);
    }
  }
}

} // namespace
} // namespace ckpt
} // namespace parmonc
