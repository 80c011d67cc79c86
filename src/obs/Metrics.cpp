//===- obs/Metrics.cpp - Lock-cheap run-time metrics ----------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/obs/Metrics.h"

#include "parmonc/support/Text.h"

#include <algorithm>

namespace parmonc {
namespace obs {

int64_t LatencySummary::quantileUpperNanos(double Quantile) const {
  if (Count <= 0 || Buckets.empty())
    return 0;
  const double Target = Quantile * double(Count);
  int64_t Seen = 0;
  for (const auto &[Index, BucketCount] : Buckets) {
    Seen += BucketCount;
    if (double(Seen) >= Target)
      return LatencyHistogram::bucketUpperNanos(Index);
  }
  return LatencyHistogram::bucketUpperNanos(Buckets.back().first);
}

void LatencyHistogram::fold(const LatencyTally &Tally) {
  if (Tally.Count == 0)
    return;
  Count.fetch_add(Tally.Count, std::memory_order_relaxed);
  SumNanos.fetch_add(int64_t(Tally.SumNanos), std::memory_order_relaxed);
  for (size_t Index = 0; Index < BucketCount; ++Index)
    if (Tally.Buckets[Index] != 0)
      Buckets[Index].fetch_add(Tally.Buckets[Index],
                               std::memory_order_relaxed);
  int64_t SeenMax = MaxNanos.load(std::memory_order_relaxed);
  while (Tally.MaxNanos > SeenMax &&
         !MaxNanos.compare_exchange_weak(SeenMax, Tally.MaxNanos,
                                         std::memory_order_relaxed))
    ;
}

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Found = Counters.find(Name);
  if (Found == Counters.end())
    Found = Counters
                .emplace(std::string(Name), std::make_unique<Counter>())
                .first;
  return *Found->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Found = Gauges.find(Name);
  if (Found == Gauges.end())
    Found =
        Gauges.emplace(std::string(Name), std::make_unique<Gauge>()).first;
  return *Found->second;
}

LatencyHistogram &MetricsRegistry::latency(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Found = Latencies.find(Name);
  if (Found == Latencies.end())
    Found = Latencies
                .emplace(std::string(Name),
                         std::make_unique<LatencyHistogram>())
                .first;
  return *Found->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  MetricsSnapshot Snapshot;
  Snapshot.Counters.reserve(Counters.size());
  for (const auto &[Name, Instrument] : Counters)
    Snapshot.Counters.emplace_back(Name, Instrument->value());
  Snapshot.Gauges.reserve(Gauges.size());
  for (const auto &[Name, Instrument] : Gauges)
    Snapshot.Gauges.emplace_back(Name, Instrument->value());
  Snapshot.Latencies.reserve(Latencies.size());
  for (const auto &[Name, Instrument] : Latencies) {
    LatencySummary Summary;
    Summary.Name = Name;
    Summary.Count = Instrument->count();
    Summary.SumNanos = Instrument->sumNanos();
    Summary.MaxNanos = Instrument->maxNanos();
    for (size_t Index = 0; Index < LatencyHistogram::BucketCount; ++Index)
      if (int64_t BucketCount = Instrument->bucketValue(Index))
        Summary.Buckets.emplace_back(unsigned(Index), BucketCount);
    Snapshot.Latencies.push_back(std::move(Summary));
  }
  // std::map iterates name-sorted already; keep the guarantee explicit.
  return Snapshot;
}

std::string MetricsSnapshot::toFileContents() const {
  std::string Text;
  Text += "# PARMONC metrics snapshot\n";
  for (const auto &[Name, Value] : Counters)
    Text += "counter " + Name + " " + std::to_string(Value) + "\n";
  for (const auto &[Name, Value] : Gauges) {
    Text += "gauge " + Name + " ";
    appendScientific(Text, Value);
    Text += '\n';
  }
  for (const LatencySummary &Summary : Latencies) {
    Text += "latency " + Summary.Name + " " +
            std::to_string(Summary.Count) + " " +
            std::to_string(Summary.SumNanos) + " " +
            std::to_string(Summary.MaxNanos);
    for (const auto &[Index, BucketCount] : Summary.Buckets)
      Text += " " + std::to_string(Index) + ":" +
              std::to_string(BucketCount);
    Text += "\n";
  }
  return Text;
}

Result<MetricsSnapshot> MetricsSnapshot::fromFileContents(
    std::string_view Contents) {
  MetricsSnapshot Snapshot;
  for (std::string_view Line : splitChar(Contents, '\n')) {
    std::string_view Stripped = trim(Line);
    if (Stripped.empty() || Stripped[0] == '#')
      continue;
    auto Fields = splitWhitespace(Stripped);
    const std::string_view Kind = Fields[0];
    if (Kind == "counter" && Fields.size() == 3) {
      Result<int64_t> Value = parseInt64(Fields[2]);
      if (!Value)
        return Value.status();
      Snapshot.Counters.emplace_back(std::string(Fields[1]), Value.value());
    } else if (Kind == "gauge" && Fields.size() == 3) {
      Result<double> Value = parseDouble(Fields[2]);
      if (!Value)
        return Value.status();
      Snapshot.Gauges.emplace_back(std::string(Fields[1]), Value.value());
    } else if (Kind == "latency" && Fields.size() >= 5) {
      LatencySummary Summary;
      Summary.Name = std::string(Fields[1]);
      Result<int64_t> Count = parseInt64(Fields[2]);
      Result<int64_t> Sum = parseInt64(Fields[3]);
      Result<int64_t> Max = parseInt64(Fields[4]);
      if (!Count || !Sum || !Max)
        return parseError("malformed latency line in metrics snapshot");
      Summary.Count = Count.value();
      Summary.SumNanos = Sum.value();
      Summary.MaxNanos = Max.value();
      for (size_t Index = 5; Index < Fields.size(); ++Index) {
        auto Parts = splitChar(Fields[Index], ':');
        if (Parts.size() != 2)
          return parseError("malformed latency bucket in metrics snapshot");
        Result<uint64_t> Bucket = parseUInt64(Parts[0]);
        Result<int64_t> BucketCount = parseInt64(Parts[1]);
        if (!Bucket || !BucketCount ||
            Bucket.value() >= LatencyHistogram::BucketCount)
          return parseError("malformed latency bucket in metrics snapshot");
        Summary.Buckets.emplace_back(unsigned(Bucket.value()),
                                     BucketCount.value());
      }
      Snapshot.Latencies.push_back(std::move(Summary));
    } else {
      return parseError("unknown metrics directive '" + std::string(Kind) +
                        "'");
    }
  }
  return Snapshot;
}

/// Minimal JSON string escaping for metric names (which are ASCII by
/// convention, but a malformed name must not corrupt the document).
static std::string jsonEscape(std::string_view Text) {
  std::string Escaped;
  Escaped.reserve(Text.size());
  for (char Character : Text) {
    switch (Character) {
    case '"':
      Escaped += "\\\"";
      break;
    case '\\':
      Escaped += "\\\\";
      break;
    case '\n':
      Escaped += "\\n";
      break;
    case '\t':
      Escaped += "\\t";
      break;
    case '\r':
      Escaped += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(Character) < 0x20) {
        static const char Digits[] = "0123456789abcdef";
        Escaped += "\\u00";
        Escaped += Digits[(Character >> 4) & 0xF];
        Escaped += Digits[Character & 0xF];
      } else {
        Escaped += Character;
      }
    }
  }
  return Escaped;
}

std::string MetricsSnapshot::toJson() const {
  std::string Json = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    if (!First)
      Json += ",";
    Json += "\"" + jsonEscape(Name) + "\":" + std::to_string(Value);
    First = false;
  }
  Json += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, Value] : Gauges) {
    if (!First)
      Json += ",";
    Json += "\"" + jsonEscape(Name) + "\":";
    appendScientific(Json, Value);
    First = false;
  }
  Json += "},\"latencies\":{";
  First = true;
  for (const LatencySummary &Summary : Latencies) {
    if (!First)
      Json += ",";
    Json += "\"" + jsonEscape(Summary.Name) +
            "\":{\"count\":" + std::to_string(Summary.Count) +
            ",\"sum_nanos\":" + std::to_string(Summary.SumNanos) +
            ",\"max_nanos\":" + std::to_string(Summary.MaxNanos) +
            ",\"buckets\":{";
    bool FirstBucket = true;
    for (const auto &[Index, BucketCount] : Summary.Buckets) {
      if (!FirstBucket)
        Json += ",";
      Json += "\"" + std::to_string(Index) +
              "\":" + std::to_string(BucketCount);
      FirstBucket = false;
    }
    Json += "}}";
    First = false;
  }
  Json += "}}";
  return Json;
}

/// Renders a nanosecond duration with an adaptive unit for humans.
static std::string humanizeNanos(double Nanos) {
  if (Nanos < 1e3)
    return formatFixed(Nanos, 0) + " ns";
  if (Nanos < 1e6)
    return formatFixed(Nanos * 1e-3, 2) + " us";
  if (Nanos < 1e9)
    return formatFixed(Nanos * 1e-6, 2) + " ms";
  return formatFixed(Nanos * 1e-9, 3) + " s";
}

std::string MetricsSnapshot::toPrettyText() const {
  std::string Text;
  auto padTo = [](std::string Value, size_t Width) {
    if (Value.size() < Width)
      Value.append(Width - Value.size(), ' ');
    return Value;
  };

  size_t NameWidth = 4;
  for (const auto &[Name, Value] : Counters)
    NameWidth = std::max(NameWidth, Name.size());
  for (const auto &[Name, Value] : Gauges)
    NameWidth = std::max(NameWidth, Name.size());
  for (const LatencySummary &Summary : Latencies)
    NameWidth = std::max(NameWidth, Summary.Name.size());
  NameWidth += 2;

  if (!Counters.empty()) {
    Text += "counters:\n";
    for (const auto &[Name, Value] : Counters)
      Text += "  " + padTo(Name, NameWidth) + std::to_string(Value) + "\n";
  }
  if (!Gauges.empty()) {
    Text += "gauges:\n";
    for (const auto &[Name, Value] : Gauges) {
      Text += "  " + padTo(Name, NameWidth);
      appendScientific(Text, Value, 6);
      Text += '\n';
    }
  }
  if (!Latencies.empty()) {
    Text += "latencies:\n";
    Text += "  " + padTo("name", NameWidth) + padTo("count", 10) +
            padTo("mean", 12) + padTo("p50<=", 12) + padTo("p99<=", 12) +
            "max\n";
    for (const LatencySummary &Summary : Latencies)
      Text += "  " + padTo(Summary.Name, NameWidth) +
              padTo(std::to_string(Summary.Count), 10) +
              padTo(humanizeNanos(Summary.meanNanos()), 12) +
              padTo(humanizeNanos(double(Summary.quantileUpperNanos(0.5))),
                    12) +
              padTo(humanizeNanos(double(Summary.quantileUpperNanos(0.99))),
                    12) +
              humanizeNanos(double(Summary.MaxNanos)) + "\n";
  }
  if (Text.empty())
    Text = "(no metrics recorded)\n";
  return Text;
}

const int64_t *MetricsSnapshot::counterValue(std::string_view Name) const {
  for (const auto &Entry : Counters)
    if (Entry.first == Name)
      return &Entry.second;
  return nullptr;
}

const double *MetricsSnapshot::gaugeValue(std::string_view Name) const {
  for (const auto &Entry : Gauges)
    if (Entry.first == Name)
      return &Entry.second;
  return nullptr;
}

const LatencySummary *
MetricsSnapshot::latencySummary(std::string_view Name) const {
  for (const LatencySummary &Summary : Latencies)
    if (Summary.Name == Name)
      return &Summary;
  return nullptr;
}

} // namespace obs
} // namespace parmonc
