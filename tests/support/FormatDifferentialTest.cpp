//===- tests/support/FormatDifferentialTest.cpp - to_chars vs printf -----===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// formatScientific and formatFixed render through std::to_chars; every
// result, snapshot and checkpoint file was historically printed with
// "%.*e" / "%.*f". These tests keep snprintf as the oracle: first number
// by number (edge values at every precision, then random bit patterns),
// then whole file bodies, so a formatter that drifts by one byte anywhere
// fails here before it changes a golden.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/ResultsStore.h"
#include "parmonc/support/Checksum.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <unistd.h>
#include <vector>

namespace parmonc {
namespace {

std::string printfScientific(double Value, int Precision) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*e", Precision, Value);
  return Buffer;
}

std::string printfFixed(double Value, int Decimals) {
  // DBL_MAX at 17 decimals is 328 characters.
  char Buffer[512];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Decimals, Value);
  return Buffer;
}

/// Counts mismatches and reports the first few, so a million-case sweep
/// stays one assertion.
class MismatchLog {
public:
  void check(const std::string &Got, const std::string &Want, double Value,
             const char *Format, int Precision) {
    if (Got == Want)
      return;
    if (++Count <= 5) {
      uint64_t Bits;
      std::memcpy(&Bits, &Value, sizeof(Bits));
      ADD_FAILURE() << Format << " precision " << Precision << " of bits 0x"
                    << std::hex << Bits << std::dec << ": got '" << Got
                    << "', printf gives '" << Want << "'";
    }
  }
  int count() const { return Count; }

private:
  int Count = 0;
};

void checkScientific(MismatchLog &Log, double Value, int Precision) {
  Log.check(formatScientific(Value, Precision),
            printfScientific(Value, Precision), Value, "%e", Precision);
}

void checkFixed(MismatchLog &Log, double Value, int Decimals) {
  Log.check(formatFixed(Value, Decimals), printfFixed(Value, Decimals), Value,
            "%f", Decimals);
}

/// Both signs of: zero, infinity, NaN, the subnormal and normal limits,
/// every power of ten from 1e-320 to 1e308 and its neighbours one ulp
/// either side, powers of two, and exact round-half ties.
std::vector<double> edgeValues() {
  const double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> Magnitudes = {
      0.0,
      Inf,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0), // the largest subnormal
      DBL_MIN,
      DBL_MAX,
      0.125,
      2.5,
      9.5,
      0.5,
      1.5,
      0.375,
      0.0625,
      1.0625,
      2.675,
      1.005,
      0.045,
      99.5,
      999999.5,
      9007199254740993.0,
  };
  for (int Exponent = -320; Exponent <= 308; ++Exponent) {
    const std::string Literal = "1e" + std::to_string(Exponent);
    const double Power = std::strtod(Literal.c_str(), nullptr);
    Magnitudes.push_back(Power);
    Magnitudes.push_back(std::nextafter(Power, -Inf));
    Magnitudes.push_back(std::nextafter(Power, Inf));
  }
  for (int Exponent = -80; Exponent <= 80; ++Exponent)
    Magnitudes.push_back(std::ldexp(1.0, Exponent));
  for (int Whole = 0; Whole < 200; ++Whole)
    Magnitudes.push_back(Whole + 0.5);
  std::vector<double> Values;
  for (double Magnitude : Magnitudes) {
    Values.push_back(Magnitude);
    Values.push_back(std::copysign(Magnitude, -1.0));
  }
  return Values;
}

TEST(FormatDifferential, EdgeValuesMatchPrintfAtEveryPrecision) {
  MismatchLog Log;
  size_t Cases = 0;
  for (double Value : edgeValues()) {
    for (int Precision = 1; Precision <= 17; ++Precision) {
      checkScientific(Log, Value, Precision);
      checkFixed(Log, Value, Precision);
      Cases += 2;
    }
    checkFixed(Log, Value, 0);
    ++Cases;
  }
  EXPECT_GT(Cases, size_t(100'000));
  EXPECT_EQ(Log.count(), 0) << "of " << Cases << " edge cases";
}

TEST(FormatDifferential, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 Bits(20261021);
  MismatchLog Log;
  constexpr int Patterns = 1'000'000;
  for (int Index = 0; Index < Patterns; ++Index) {
    const uint64_t Pattern = Bits();
    double Value;
    std::memcpy(&Value, &Pattern, sizeof(Value));
    // The result-file precision, plus one more drawn from the pattern.
    checkScientific(Log, Value, 17);
    checkScientific(Log, Value, 1 + int(Pattern % 17));
    checkFixed(Log, Value, int((Pattern >> 8) % 18));
  }
  EXPECT_EQ(Log.count(), 0) << "of " << 3 * Patterns << " random cases";
}

// --- Whole file bodies ----------------------------------------------------

std::string unsealedBody(const std::string &Path) {
  Result<std::string> Contents = readFileToString(Path);
  if (!Contents)
    return "<unreadable " + Path + ">";
  Result<std::string> Body = unsealFileContents(Path, Contents.value());
  return Body ? Body.value() : "<bad seal " + Path + ">";
}

/// A 40x50 snapshot whose sums span the double range, plus a 64-bin
/// histogram with both side counts populated.
MomentSnapshot matrixSnapshot() {
  constexpr size_t Rows = 40, Columns = 50;
  std::mt19937_64 Bits(31);
  std::uniform_real_distribution<double> Mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> Exponent(-300, 300);
  std::vector<double> Sums, Squares;
  for (size_t Index = 0; Index < Rows * Columns; ++Index) {
    double Sum = Mantissa(Bits) * std::pow(10.0, Exponent(Bits));
    if (Index % 97 == 0)
      Sum = 0.0;
    if (Index % 89 == 0)
      Sum = double(Index); // integer-valued sums
    Sums.push_back(Sum);
    Squares.push_back(std::fabs(Mantissa(Bits)) *
                      std::pow(10.0, Exponent(Bits)));
  }
  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = 7;
  Snapshot.ComputeSeconds = 12.345678901234567;
  Snapshot.Moments =
      EstimatorMatrix::fromRawSums(Rows, Columns, Sums, Squares, 4000)
          .value();
  HistogramEstimator Histogram(-3.0, 3.0, 64);
  std::normal_distribution<double> Normal(0.0, 1.5);
  for (int Index = 0; Index < 5000; ++Index)
    Histogram.add(Normal(Bits));
  Snapshot.Histograms.push_back(std::move(Histogram));
  return Snapshot;
}

std::string oracleSnapshotBody(const MomentSnapshot &Snapshot) {
  std::string Text = "# PARMONC moment snapshot: raw sums, full precision\n";
  Text += "seqnum " + std::to_string(Snapshot.SequenceNumber) + "\n";
  Text += "shape " + std::to_string(Snapshot.Moments.rows()) + " " +
          std::to_string(Snapshot.Moments.columns()) + "\n";
  Text += "volume " + std::to_string(Snapshot.Moments.sampleVolume()) + "\n";
  Text += "compute_seconds " + printfScientific(Snapshot.ComputeSeconds, 17) +
          "\n";
  Text += "sums";
  for (double Sum : Snapshot.Moments.valueSums())
    Text += " " + printfScientific(Sum, 17);
  Text += "\nsquares";
  for (double Square : Snapshot.Moments.squareSums())
    Text += " " + printfScientific(Square, 17);
  Text += "\n";
  for (const HistogramEstimator &Histogram : Snapshot.Histograms) {
    Text += "histogram " + printfScientific(Histogram.low(), 17) + " " +
            printfScientific(Histogram.high(), 17) + " " +
            std::to_string(Histogram.binCount()) + " " +
            std::to_string(Histogram.underflowCount()) + " " +
            std::to_string(Histogram.overflowCount());
    for (size_t Index = 0; Index < Histogram.binCount(); ++Index)
      Text += " " + std::to_string(Histogram.countOf(Index));
    Text += "\n";
  }
  return Text;
}

TEST(FormatDifferential, SnapshotBodyMatchesPrintfRendering) {
  const MomentSnapshot Snapshot = matrixSnapshot();
  ASSERT_GT(Snapshot.Histograms[0].underflowCount(), 0);
  ASSERT_GT(Snapshot.Histograms[0].overflowCount(), 0);
  EXPECT_EQ(Snapshot.toFileContents(), oracleSnapshotBody(Snapshot));

  const HistogramEstimator &Histogram = Snapshot.Histograms[0];
  std::string HistogramText = "# PARMONC histogram\nrange " +
                              printfScientific(Histogram.low(), 17) + " " +
                              printfScientific(Histogram.high(), 17) +
                              "\nbins 64\nunderflow " +
                              std::to_string(Histogram.underflowCount()) +
                              "\noverflow " +
                              std::to_string(Histogram.overflowCount()) +
                              "\ncounts";
  for (size_t Index = 0; Index < Histogram.binCount(); ++Index)
    HistogramText += " " + std::to_string(Histogram.countOf(Index));
  EXPECT_EQ(Histogram.toFileContents(), HistogramText + "\n");
}

TEST(FormatDifferential, ResultFilesMatchPrintfRendering) {
  const std::string WorkDir =
      (std::filesystem::temp_directory_path() /
       ("parmonc_format_results_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(WorkDir);
  ResultsStore Store(WorkDir);
  ASSERT_TRUE(Store.prepareDirectories().isOk());

  const MomentSnapshot Snapshot = matrixSnapshot();
  const EstimatorMatrix &Merged = Snapshot.Moments;
  RunLogInfo Log;
  Log.TotalSampleVolume = 4000;
  Log.NewSampleVolume = 1500;
  Log.MeanRealizationSeconds = 3.0864197530864197e-03;
  Log.ElapsedSeconds = 1.25;
  Log.MaxAbsoluteError = 0.1 / 3.0;
  Log.MaxRelativeErrorPercent = 12.5;
  Log.MaxVariance = 1e-300;
  Log.ProcessorCount = 4;
  Log.SequenceNumber = 7;
  Log.Resumed = true;
  Log.DeadWorkerCount = 0;
  ASSERT_TRUE(Store.writeResults(Merged, Log, 3.0).isOk());

  std::vector<double> Means, AbsoluteErrors, RelativeErrors, Variances;
  Merged.computeMatrices(&Means, &AbsoluteErrors, &RelativeErrors, &Variances,
                         3.0);
  std::string MeansText;
  std::string ConfidenceText =
      "# row col mean abs_error rel_error_percent variance\n";
  for (size_t Row = 0; Row < Merged.rows(); ++Row) {
    for (size_t Column = 0; Column < Merged.columns(); ++Column) {
      const size_t Index = Row * Merged.columns() + Column;
      MeansText += (Column > 0 ? " " : "") + printfScientific(Means[Index], 17);
      ConfidenceText += std::to_string(Row + 1) + " " +
                        std::to_string(Column + 1) + " " +
                        printfScientific(Means[Index], 17) + " " +
                        printfScientific(AbsoluteErrors[Index], 17) + " " +
                        printfScientific(RelativeErrors[Index], 17) + " " +
                        printfScientific(Variances[Index], 17) + "\n";
    }
    MeansText += "\n";
  }
  const std::string LogText =
      "total_sample_volume 4000\nnew_sample_volume 1500\n"
      "mean_time_per_realization_seconds " +
      printfScientific(Log.MeanRealizationSeconds, 6) +
      "\nelapsed_seconds " + printfScientific(Log.ElapsedSeconds, 6) +
      "\nmax_absolute_error " + printfScientific(Log.MaxAbsoluteError, 6) +
      "\nmax_relative_error_percent " +
      printfScientific(Log.MaxRelativeErrorPercent, 6) +
      "\nmax_variance " + printfScientific(Log.MaxVariance, 6) +
      "\nprocessors 4\nexperiment 7\nresumed 1\ndegraded 0\n"
      "dead_workers 0\nresumed_from_backup 0\n";

  EXPECT_EQ(unsealedBody(Store.meansPath()), MeansText);
  EXPECT_EQ(unsealedBody(Store.confidencePath()), ConfidenceText);
  EXPECT_EQ(unsealedBody(Store.logPath()), LogText);
  std::filesystem::remove_all(WorkDir);
}

} // namespace
} // namespace parmonc
