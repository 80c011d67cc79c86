//===- stats/HistogramEstimator.cpp - Density estimation -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/stats/HistogramEstimator.h"

#include "parmonc/support/Text.h"

#include <cassert>
#include <cmath>

namespace parmonc {

HistogramEstimator::HistogramEstimator(double Low, double High,
                                       size_t BinCount)
    : Low(Low), High(High), Counts(BinCount, 0) {
  assert(Low < High && "empty histogram range");
  assert(BinCount >= 1 && "histogram needs at least one bin");
}

void HistogramEstimator::add(double Value) {
  ++Total;
  if (Value < Low) {
    ++Underflow;
    return;
  }
  if (Value >= High) {
    ++Overflow;
    return;
  }
  size_t Index =
      size_t((Value - Low) / (High - Low) * double(Counts.size()));
  if (Index >= Counts.size()) // floating-point edge
    Index = Counts.size() - 1;
  ++Counts[Index];
}

int64_t HistogramEstimator::countOf(size_t Index) const {
  assert(Index < Counts.size() && "bin index out of range");
  return Counts[Index];
}

double HistogramEstimator::binLeftEdge(size_t Index) const {
  assert(Index < Counts.size() && "bin index out of range");
  return Low + binWidth() * double(Index);
}

double HistogramEstimator::massOf(size_t Index) const {
  assert(Total > 0 && "mass of an empty histogram");
  return double(countOf(Index)) / double(Total);
}

double HistogramEstimator::densityOf(size_t Index) const {
  return massOf(Index) / binWidth();
}

double HistogramEstimator::massErrorOf(size_t Index,
                                       double ErrorMultiplier) const {
  assert(Total > 0 && "error of an empty histogram");
  const double Mass = massOf(Index);
  return ErrorMultiplier *
         std::sqrt(Mass * (1.0 - Mass) / double(Total));
}

Status HistogramEstimator::merge(const HistogramEstimator &Other) {
  if (Other.Low != Low || Other.High != High ||
      Other.Counts.size() != Counts.size())
    return invalidArgument(
        "cannot merge histograms with different geometry");
  for (size_t Index = 0; Index < Counts.size(); ++Index)
    Counts[Index] += Other.Counts[Index];
  Underflow += Other.Underflow;
  Overflow += Other.Overflow;
  Total += Other.Total;
  return Status::ok();
}

std::string HistogramEstimator::toFileContents() const {
  std::string Text;
  Text += "# PARMONC histogram\n";
  Text += "range ";
  appendScientific(Text, Low);
  Text += ' ';
  appendScientific(Text, High);
  Text += "\nbins " + std::to_string(Counts.size()) + "\n";
  Text += "underflow " + std::to_string(Underflow) + "\n";
  Text += "overflow " + std::to_string(Overflow) + "\n";
  Text += "counts";
  for (int64_t Count : Counts) {
    Text += ' ';
    Text += std::to_string(Count);
  }
  Text += '\n';
  return Text;
}

Result<HistogramEstimator> HistogramEstimator::fromFileContents(
    std::string_view Contents) {
  double Low = 0.0, High = 0.0;
  size_t BinCount = 0;
  int64_t Underflow = 0, Overflow = 0;
  std::vector<int64_t> Counts;
  bool HaveRange = false, HaveBins = false, HaveCounts = false;

  for (std::string_view Line : splitChar(Contents, '\n')) {
    std::string_view Stripped = trim(Line);
    if (Stripped.empty() || Stripped[0] == '#')
      continue;
    auto Fields = splitWhitespace(Stripped);
    const std::string_view Key = Fields[0];
    if (Key == "range" && Fields.size() == 3) {
      Result<double> LowValue = parseDouble(Fields[1]);
      Result<double> HighValue = parseDouble(Fields[2]);
      if (!LowValue || !HighValue)
        return parseError("bad range line in histogram");
      Low = LowValue.value();
      High = HighValue.value();
      HaveRange = true;
    } else if (Key == "bins" && Fields.size() == 2) {
      Result<uint64_t> Value = parseUInt64(Fields[1]);
      if (!Value)
        return Value.status();
      BinCount = Value.value();
      HaveBins = true;
    } else if (Key == "underflow" && Fields.size() == 2) {
      Result<int64_t> Value = parseInt64(Fields[1]);
      if (!Value)
        return Value.status();
      Underflow = Value.value();
    } else if (Key == "overflow" && Fields.size() == 2) {
      Result<int64_t> Value = parseInt64(Fields[1]);
      if (!Value)
        return Value.status();
      Overflow = Value.value();
    } else if (Key == "counts") {
      for (size_t Index = 1; Index < Fields.size(); ++Index) {
        Result<int64_t> Value = parseInt64(Fields[Index]);
        if (!Value)
          return Value.status();
        Counts.push_back(Value.value());
      }
      HaveCounts = true;
    } else {
      return parseError("unknown histogram directive '" + std::string(Key) +
                        "'");
    }
  }

  if (!HaveRange || !HaveBins || !HaveCounts)
    return parseError("histogram file is missing required entries");
  if (Counts.size() != BinCount)
    return parseError("histogram count list does not match bin count");
  return fromCounts(Low, High, std::move(Counts), Underflow, Overflow);
}

Result<HistogramEstimator>
HistogramEstimator::fromCounts(double Low, double High,
                               std::vector<int64_t> Counts, int64_t Underflow,
                               int64_t Overflow) {
  if (!(Low < High))
    return parseError("histogram range is empty");
  if (Counts.empty())
    return parseError("histogram has no bins");
  if (Underflow < 0 || Overflow < 0)
    return parseError("negative histogram side counts");
  for (int64_t Count : Counts)
    if (Count < 0)
      return parseError("negative histogram count");

  HistogramEstimator Histogram(Low, High, Counts.size());
  Histogram.Counts = std::move(Counts);
  Histogram.Underflow = Underflow;
  Histogram.Overflow = Overflow;
  Histogram.Total = Underflow + Overflow;
  for (int64_t Count : Histogram.Counts)
    Histogram.Total += Count;
  return Histogram;
}

double HistogramEstimator::cdfAt(double Value) const {
  assert(Total > 0 && "cdf of an empty histogram");
  if (Value < Low)
    return 0.0; // side mass below is indistinguishable; conservative 0
  int64_t Below = Underflow;
  for (size_t Index = 0; Index < Counts.size(); ++Index) {
    const double RightEdge = binLeftEdge(Index) + binWidth();
    if (Value >= RightEdge)
      Below += Counts[Index];
    else
      break;
  }
  if (Value >= High)
    Below += Overflow;
  return double(Below) / double(Total);
}

void HistogramEstimator::reset() {
  std::fill(Counts.begin(), Counts.end(), 0);
  Underflow = Overflow = Total = 0;
}

} // namespace parmonc
