//===- tests/core/ResultsStoreTest.cpp - File format tests ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/ResultsStore.h"

#include "parmonc/mpsim/Serialize.h"
#include "parmonc/support/Checksum.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace parmonc {
namespace {

/// A fresh scratch working directory per test, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_test_" + Name + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + std::to_string(Counter++)))
               .string();
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  const std::string &path() const { return Path; }

private:
  static inline int Counter = 0;
  std::string Path;
};

MomentSnapshot makeSnapshot() {
  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = 7;
  Snapshot.ComputeSeconds = 12.25;
  Snapshot.Moments = EstimatorMatrix(2, 3);
  Snapshot.Moments.accumulate(
      std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  Snapshot.Moments.accumulate(
      std::vector<double>{1.5, 2.5, 3.5, 4.5, 5.5, 6.5});
  return Snapshot;
}

TEST(MomentSnapshot, FileRoundTripIsExact) {
  MomentSnapshot Original = makeSnapshot();
  Result<MomentSnapshot> Parsed =
      MomentSnapshot::fromFileContents(Original.toFileContents());
  ASSERT_TRUE(Parsed.isOk()) << Parsed.status().toString();
  EXPECT_EQ(Parsed.value().SequenceNumber, 7u);
  EXPECT_DOUBLE_EQ(Parsed.value().ComputeSeconds, 12.25);
  EXPECT_EQ(Parsed.value().Moments.sampleVolume(), 2);
  // Raw sums must round-trip bit-exactly (17 significant digits).
  EXPECT_EQ(Parsed.value().Moments.valueSums(),
            Original.Moments.valueSums());
  EXPECT_EQ(Parsed.value().Moments.squareSums(),
            Original.Moments.squareSums());
}

TEST(MomentSnapshot, BytesRoundTripIsExact) {
  MomentSnapshot Original = makeSnapshot();
  Result<MomentSnapshot> Parsed =
      MomentSnapshot::fromBytes(Original.toBytes());
  ASSERT_TRUE(Parsed.isOk());
  EXPECT_EQ(Parsed.value().Moments.valueSums(),
            Original.Moments.valueSums());
  EXPECT_EQ(Parsed.value().Moments.sampleVolume(), 2);
}

TEST(MomentSnapshot, RejectsCorruptedFile) {
  EXPECT_FALSE(MomentSnapshot::fromFileContents("").isOk());
  EXPECT_FALSE(MomentSnapshot::fromFileContents("volume 3\n").isOk());
  EXPECT_FALSE(
      MomentSnapshot::fromFileContents("bogus directive\n").isOk());
  // Sum count not matching the shape.
  std::string Bad = "shape 1 2\nvolume 1\nsums 1.0\nsquares 1.0 2.0\n";
  EXPECT_FALSE(MomentSnapshot::fromFileContents(Bad).isOk());
}

TEST(MomentSnapshot, RejectsTruncatedBytes) {
  // With a histogram, so every cut — header, sums, histogram fields and
  // bin counts — is covered.
  MomentSnapshot Sample = makeSnapshot();
  Sample.Histograms.emplace_back(0.0, 1.0, 4);
  Sample.Histograms[0].add(0.3);
  Sample.Histograms[0].add(1.7);
  const std::vector<uint8_t> Bytes = Sample.toBytes();
  ASSERT_TRUE(MomentSnapshot::fromBytes(Bytes).isOk());
  for (size_t Size = 0; Size < Bytes.size(); ++Size) {
    const std::vector<uint8_t> Cut(Bytes.begin(),
                                   Bytes.begin() + std::ptrdiff_t(Size));
    EXPECT_FALSE(MomentSnapshot::fromBytes(Cut).isOk())
        << "accepted a message cut to " << Size << " bytes";
  }
}

TEST(MomentSnapshot, BytesRoundTripHistogramsExactly) {
  MomentSnapshot Original = makeSnapshot();
  Original.Histograms.emplace_back(-0.25, 1.0 / 3.0, 5);
  for (double Value : {-1.0, 0.0, 0.1, 0.2, 0.3, 9.0})
    Original.Histograms[0].add(Value);
  Result<MomentSnapshot> Parsed =
      MomentSnapshot::fromBytes(Original.toBytes());
  ASSERT_TRUE(Parsed.isOk()) << Parsed.status().toString();
  ASSERT_EQ(Parsed.value().Histograms.size(), 1u);
  const HistogramEstimator &Histogram = Parsed.value().Histograms[0];
  EXPECT_EQ(Histogram.low(), -0.25);
  EXPECT_EQ(Histogram.high(), 1.0 / 3.0);
  EXPECT_EQ(Histogram.counts(), Original.Histograms[0].counts());
  EXPECT_EQ(Histogram.underflowCount(), 1);
  EXPECT_EQ(Histogram.overflowCount(), 1);
  EXPECT_EQ(Histogram.totalCount(), 6);
}

/// A 1x1 snapshot message whose one histogram is written field by field,
/// so each case can break exactly one invariant. \p DeclaredBins is the
/// bin-count prefix; \p Counts the bin counts actually written after it.
std::vector<uint8_t> histogramMessage(double Low, double High,
                                      int64_t Underflow,
                                      uint64_t DeclaredBins,
                                      const std::vector<int64_t> &Counts) {
  ByteWriter Writer;
  Writer.writeU64(7); // sequence number
  Writer.writeU64(1); // rows
  Writer.writeU64(1); // columns
  Writer.writeI64(1); // volume
  Writer.writeDouble(0.5); // compute seconds
  Writer.writeDoubleVector({1.0});
  Writer.writeDoubleVector({1.0});
  Writer.writeU64(1); // histogram count
  Writer.writeDouble(Low);
  Writer.writeDouble(High);
  Writer.writeI64(Underflow);
  Writer.writeI64(0); // overflow
  Writer.writeU64(DeclaredBins);
  for (int64_t Count : Counts)
    Writer.writeI64(Count);
  return Writer.takeBytes();
}

TEST(MomentSnapshot, BinaryHistogramDecodeEnforcesTheInvariants) {
  ASSERT_TRUE(
      MomentSnapshot::fromBytes(histogramMessage(0.0, 1.0, 0, 2, {1, 0}))
          .isOk());
  // No bins.
  EXPECT_FALSE(
      MomentSnapshot::fromBytes(histogramMessage(0.0, 1.0, 0, 0, {})).isOk());
  // Empty and inverted ranges.
  EXPECT_FALSE(
      MomentSnapshot::fromBytes(histogramMessage(1.0, 1.0, 0, 2, {1, 0}))
          .isOk());
  EXPECT_FALSE(
      MomentSnapshot::fromBytes(histogramMessage(2.0, 1.0, 0, 2, {1, 0}))
          .isOk());
  // Negative bin and side counts.
  EXPECT_FALSE(
      MomentSnapshot::fromBytes(histogramMessage(0.0, 1.0, 0, 2, {1, -1}))
          .isOk());
  EXPECT_FALSE(
      MomentSnapshot::fromBytes(histogramMessage(0.0, 1.0, -1, 2, {1, 0}))
          .isOk());
  // More bins declared than bytes left: rejected before allocating 2^61
  // counts.
  EXPECT_FALSE(MomentSnapshot::fromBytes(
                   histogramMessage(0.0, 1.0, 0, uint64_t(1) << 61, {1, 0}))
                   .isOk());
}

TEST(MomentSnapshot, RejectsTrailingBytes) {
  std::vector<uint8_t> Bytes = makeSnapshot().toBytes();
  Bytes.push_back(0);
  EXPECT_FALSE(MomentSnapshot::fromBytes(Bytes).isOk());
}

TEST(ResultsStore, PathsFollowPaperLayout) {
  ResultsStore Store("/work");
  EXPECT_EQ(Store.dataDir(), "/work/parmonc_data");
  EXPECT_EQ(Store.resultsDir(), "/work/parmonc_data/results");
  EXPECT_EQ(Store.meansPath(), "/work/parmonc_data/results/func.dat");
  EXPECT_EQ(Store.confidencePath(),
            "/work/parmonc_data/results/func_ci.dat");
  EXPECT_EQ(Store.logPath(), "/work/parmonc_data/results/func_log.dat");
  EXPECT_EQ(Store.experimentLogPath(),
            "/work/parmonc_data/parmonc_exp.dat");
  EXPECT_EQ(Store.genparamPath(), "/work/parmonc_genparam.dat");
  EXPECT_EQ(Store.subtotalPath(3),
            "/work/parmonc_data/subtotals/rank_3.dat");
}

TEST(ResultsStore, SnapshotFileRoundTripOnDisk) {
  ScratchDir Dir("snapshot");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  MomentSnapshot Original = makeSnapshot();
  ASSERT_TRUE(Store.writeSnapshot(Store.checkpointPath(), Original).isOk());
  Result<MomentSnapshot> Read =
      Store.readSnapshot(Store.checkpointPath()); // mclint: allow(R7): asserting on the sealed generation directly
  ASSERT_TRUE(Read.isOk());
  EXPECT_EQ(Read.value().Moments.valueSums(), Original.Moments.valueSums());
}

TEST(ResultsStore, WriteResultsProducesAllThreeFiles) {
  ScratchDir Dir("results");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  MomentSnapshot Snapshot = makeSnapshot();
  RunLogInfo Log;
  Log.TotalSampleVolume = 2;
  Log.ProcessorCount = 4;
  Log.SequenceNumber = 7;
  ASSERT_TRUE(Store.writeResults(Snapshot.Moments, Log, 3.0).isOk());
  EXPECT_TRUE(fileExists(Store.meansPath()));
  EXPECT_TRUE(fileExists(Store.confidencePath()));
  EXPECT_TRUE(fileExists(Store.logPath()));

  // Means file parses back to the correct values.
  Result<std::vector<double>> Means = Store.readMeans(2, 3);
  ASSERT_TRUE(Means.isOk()) << Means.status().toString();
  EXPECT_DOUBLE_EQ(Means.value()[0], 1.25);
  EXPECT_DOUBLE_EQ(Means.value()[5], 6.25);

  // func_log.dat carries the volume and processor count.
  std::string Log1 = readFileToString(Store.logPath()).value();
  EXPECT_NE(Log1.find("total_sample_volume 2"), std::string::npos);
  EXPECT_NE(Log1.find("processors 4"), std::string::npos);
  EXPECT_NE(Log1.find("experiment 7"), std::string::npos);
}

TEST(ResultsStore, WriteResultsRejectsEmptyMoments) {
  ScratchDir Dir("empty");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  EstimatorMatrix Empty(1, 1);
  RunLogInfo Log;
  EXPECT_FALSE(Store.writeResults(Empty, Log, 3.0).isOk());
}

TEST(ResultsStore, ReadMeansValidatesShape) {
  ScratchDir Dir("shape");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  ASSERT_TRUE(writeFileAtomic(Store.meansPath(), "1.0 2.0\n").isOk());
  EXPECT_TRUE(Store.readMeans(1, 2).isOk());
  EXPECT_FALSE(Store.readMeans(2, 2).isOk());
}

TEST(ResultsStore, ExperimentLogAccumulates) {
  ScratchDir Dir("explog");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  RunLogInfo First;
  First.SequenceNumber = 1;
  RunLogInfo Second;
  Second.SequenceNumber = 2;
  Second.Resumed = true;
  ASSERT_TRUE(Store.appendExperimentLog(First).isOk());
  ASSERT_TRUE(Store.appendExperimentLog(Second).isOk());
  std::string Contents =
      readFileToString(Store.experimentLogPath()).value();
  EXPECT_NE(Contents.find("experiment 1 resumed 0"), std::string::npos);
  EXPECT_NE(Contents.find("experiment 2 resumed 1"), std::string::npos);
}

/// Eight lowercase hex digits, matching the registry's CRC rendering.
std::string hex8(uint32_t Value) {
  static const char Digits[] = "0123456789abcdef";
  std::string Text(8, '0');
  for (int Index = 7; Index >= 0; --Index) {
    Text[Index] = Digits[Value & 0xF];
    Value >>= 4;
  }
  return Text;
}

TEST(ResultsStore, ExperimentLogLinesCarrySelfVerifyingCrcSuffixes) {
  ScratchDir Dir("explogcrc");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  RunLogInfo First;
  First.SequenceNumber = 1;
  First.ProcessorCount = 4;
  RunLogInfo Second;
  Second.SequenceNumber = 2;
  Second.Resumed = true;
  Second.ProcessorCount = 4;
  Second.TotalSampleVolume = 120;
  ASSERT_TRUE(Store.appendExperimentLog(First).isOk());
  ASSERT_TRUE(Store.appendExperimentLog(Second).isOk());

  // The whole-file seal cannot protect an append-only registry, so every
  // line carries its own " crc <hex8>" computed over the body before it.
  const std::string Contents =
      readFileToString(Store.experimentLogPath()).value();
  int Lines = 0;
  size_t Start = 0;
  while (Start < Contents.size()) {
    size_t End = Contents.find('\n', Start);
    if (End == std::string::npos)
      End = Contents.size();
    const std::string Line = Contents.substr(Start, End - Start);
    Start = End + 1;
    if (Line.empty())
      continue;
    ++Lines;
    const size_t CrcAt = Line.rfind(" crc ");
    ASSERT_NE(CrcAt, std::string::npos) << Line;
    EXPECT_EQ(Line.substr(CrcAt + 5), hex8(crc32(Line.substr(0, CrcAt))))
        << Line;
  }
  EXPECT_EQ(Lines, 2);

  // And the loader agrees: both entries parse, nothing is skipped.
  Result<ResultsStore::ExperimentLogContents> Registry =
      Store.readExperimentLog();
  ASSERT_TRUE(Registry.isOk()) << Registry.status().toString();
  ASSERT_EQ(Registry.value().Entries.size(), 2u);
  EXPECT_TRUE(Registry.value().SkippedLines.empty());
  EXPECT_EQ(Registry.value().Entries[1].SequenceNumber, 2u);
  EXPECT_TRUE(Registry.value().Entries[1].Resumed);
  EXPECT_EQ(Registry.value().Entries[1].StartVolume, 120);
}

TEST(ResultsStore, ExperimentLogSkipsDamagedLinesAndKeepsTheRest) {
  ScratchDir Dir("explogdmg");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  RunLogInfo First;
  First.SequenceNumber = 1;
  First.ProcessorCount = 3;
  ASSERT_TRUE(Store.appendExperimentLog(First).isOk());
  {
    std::ofstream Out(Store.experimentLogPath(), std::ios::app);
    // Line 2: a pre-CRC-era line with no suffix — still loadable.
    Out << "experiment 7 resumed 0 processors 4 start_volume 99\n";
    // Line 3: bit rot — the body was edited after its CRC was written.
    Out << "experiment 8 resumed 0 processors 4 start_volume 99"
           " crc deadbeef\n";
    // Line 4: not an experiment record at all.
    Out << "lorem ipsum\n";
  }
  RunLogInfo Last;
  Last.SequenceNumber = 9;
  Last.Resumed = true;
  Last.ProcessorCount = 3;
  Last.TotalSampleVolume = 30;
  ASSERT_TRUE(Store.appendExperimentLog(Last).isOk());

  // Damage is reported line by line, never fatal: the registry around it
  // — including the legacy line and the append AFTER the damage — loads.
  Result<ResultsStore::ExperimentLogContents> Registry =
      Store.readExperimentLog();
  ASSERT_TRUE(Registry.isOk()) << Registry.status().toString();
  ASSERT_EQ(Registry.value().Entries.size(), 3u);
  EXPECT_EQ(Registry.value().Entries[0].SequenceNumber, 1u);
  EXPECT_EQ(Registry.value().Entries[1].SequenceNumber, 7u);
  EXPECT_EQ(Registry.value().Entries[2].SequenceNumber, 9u);
  EXPECT_EQ(Registry.value().SkippedLines, (std::vector<int>{3, 4}));
}

TEST(ResultsStore, ExperimentLogTornTrailingAppendIsSkippedNotFatal) {
  ScratchDir Dir("explogtorn");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  RunLogInfo First;
  First.SequenceNumber = 1;
  RunLogInfo Second;
  Second.SequenceNumber = 2;
  ASSERT_TRUE(Store.appendExperimentLog(First).isOk());
  ASSERT_TRUE(Store.appendExperimentLog(Second).isOk());

  // A crash mid-append tears at most the line being written: chop the
  // file inside the final line's CRC suffix, exactly what a torn durable
  // append leaves behind.
  std::string Contents =
      readFileToString(Store.experimentLogPath()).value();
  ASSERT_GT(Contents.size(), 7u);
  Contents.resize(Contents.size() - 7);
  ASSERT_TRUE(
      writeFileAtomic(Store.experimentLogPath(), Contents).isOk());

  Result<ResultsStore::ExperimentLogContents> Registry =
      Store.readExperimentLog();
  ASSERT_TRUE(Registry.isOk()) << Registry.status().toString();
  ASSERT_EQ(Registry.value().Entries.size(), 1u);
  EXPECT_EQ(Registry.value().Entries[0].SequenceNumber, 1u);
  EXPECT_EQ(Registry.value().SkippedLines, (std::vector<int>{2}));
}

TEST(ResultsStore, ListSubtotalFilesFindsAndSortsRanks) {
  ScratchDir Dir("subtotals");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  MomentSnapshot Snapshot = makeSnapshot();
  ASSERT_TRUE(Store.writeSnapshot(Store.subtotalPath(2), Snapshot).isOk());
  ASSERT_TRUE(Store.writeSnapshot(Store.subtotalPath(0), Snapshot).isOk());
  ASSERT_TRUE(Store.writeSnapshot(Store.subtotalPath(10), Snapshot).isOk());
  // A stray file must be ignored.
  ASSERT_TRUE(
      writeFileAtomic(Store.subtotalsDir() + "/README.txt", "x").isOk());
  auto Files = Store.listSubtotalFiles();
  ASSERT_EQ(Files.size(), 3u);
  EXPECT_EQ(Files[0].first, 0);
  EXPECT_EQ(Files[1].first, 2);
  EXPECT_EQ(Files[2].first, 10);
}

TEST(ResultsStore, ClearPreviousRunRemovesArtifacts) {
  ScratchDir Dir("clear");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  MomentSnapshot Snapshot = makeSnapshot();
  ASSERT_TRUE(Store.writeSnapshot(Store.checkpointPath(), Snapshot).isOk());
  ASSERT_TRUE(Store.writeSnapshot(Store.subtotalPath(0), Snapshot).isOk());
  ASSERT_TRUE(writeFileAtomic(Store.meansPath(), "1.0\n").isOk());
  ASSERT_TRUE(Store.clearPreviousRun().isOk());
  EXPECT_FALSE(fileExists(Store.checkpointPath()));
  EXPECT_FALSE(fileExists(Store.subtotalPath(0)));
  EXPECT_FALSE(fileExists(Store.meansPath()));
}

TEST(ManualAverage, MergesBaseAndSubtotals) {
  ScratchDir Dir("manaver");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());

  // Base: 2 realizations. Two ranks: 1 realization each.
  MomentSnapshot Base;
  Base.SequenceNumber = 3;
  Base.ComputeSeconds = 1.0;
  Base.Moments = EstimatorMatrix(1, 1);
  Base.Moments.accumulate(std::vector<double>{1.0});
  Base.Moments.accumulate(std::vector<double>{3.0});
  ASSERT_TRUE(Store.writeSnapshot(Store.basePath(), Base).isOk());

  for (int Rank = 0; Rank < 2; ++Rank) {
    MomentSnapshot Part;
    Part.SequenceNumber = 3;
    Part.ComputeSeconds = 0.5;
    Part.Moments = EstimatorMatrix(1, 1);
    Part.Moments.accumulate(std::vector<double>{double(Rank + 4)}); // 4, 5
    ASSERT_TRUE(Store.writeSnapshot(Store.subtotalPath(Rank), Part).isOk());
  }

  Result<MomentSnapshot> Merged = runManualAverage(Store);
  ASSERT_TRUE(Merged.isOk()) << Merged.status().toString();
  EXPECT_EQ(Merged.value().Moments.sampleVolume(), 4);
  // Mean of {1, 3, 4, 5} = 3.25.
  EXPECT_DOUBLE_EQ(Merged.value().Moments.entryStatistics(0, 0).Mean, 3.25);
  EXPECT_DOUBLE_EQ(Merged.value().ComputeSeconds, 2.0);

  // Results and a fresh checkpoint are on disk.
  EXPECT_TRUE(fileExists(Store.meansPath()));
  Result<MomentSnapshot> Checkpoint =
      Store.readSnapshot(Store.checkpointPath()); // mclint: allow(R7): asserting on the sealed generation directly
  ASSERT_TRUE(Checkpoint.isOk());
  EXPECT_EQ(Checkpoint.value().Moments.sampleVolume(), 4);
}

TEST(ManualAverage, WorksWithoutBaseFile) {
  ScratchDir Dir("manaver_nobase");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  MomentSnapshot Part = makeSnapshot();
  ASSERT_TRUE(Store.writeSnapshot(Store.subtotalPath(0), Part).isOk());
  Result<MomentSnapshot> Merged = runManualAverage(Store);
  ASSERT_TRUE(Merged.isOk());
  EXPECT_EQ(Merged.value().Moments.sampleVolume(), 2);
}

TEST(ManualAverage, FailsWithNothingToAverage) {
  ScratchDir Dir("manaver_empty");
  ResultsStore Store(Dir.path());
  ASSERT_TRUE(Store.prepareDirectories().isOk());
  EXPECT_FALSE(runManualAverage(Store).isOk());
}

} // namespace
} // namespace parmonc
