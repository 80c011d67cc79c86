//===- parmonc/obs/Metrics.h - Lock-cheap run-time metrics ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: named counters, gauges and
/// latency histograms collected while the engine runs. Registration (name
/// lookup) takes a mutex and happens on the cold path — once, before the
/// worker threads start; an update is a handful of relaxed atomic
/// operations on a stable reference. Per-realization metrics do not even
/// pay that: each engine worker records into a private, non-atomic
/// LatencyTally and folds it into the shared instruments at every subtotal
/// hand-off and at exit. Mid-run they therefore lag by at most one pass
/// period; at exit they are exact. Instrumentation stays cheap enough to
/// leave on permanently (§2.2 argues the exchange expenses are negligible;
/// this is how we *measure* that instead of asserting it).
///
/// A MetricsSnapshot is an immutable copy of every instrument, sorted by
/// name, with byte-stable text serialization (results/metrics.dat) that
/// the mcstat tool parses back. Under an injected ManualClock the snapshot
/// is fully deterministic, which is what the obs test harness relies on.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_OBS_METRICS_H
#define PARMONC_OBS_METRICS_H

#include "parmonc/support/Status.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {
namespace obs {

/// A monotonically increasing 64-bit event count.
class Counter {
public:
  void add(int64_t Delta = 1) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
  }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Value{0};
};

/// A last-value-wins instantaneous measurement.
class Gauge {
public:
  void set(double NewValue) {
    Value.store(NewValue, std::memory_order_relaxed);
  }
  double value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<double> Value{0.0};
};

class LatencyTally;

/// A histogram of durations in nanoseconds with power-of-two buckets:
/// bucket 0 holds durations <= 0 ns (possible under a frozen test clock),
/// bucket b >= 1 holds durations in [2^(b-1), 2^b - 1] ns. Recording is a
/// few relaxed atomics; there is no locking anywhere.
class LatencyHistogram {
public:
  static constexpr size_t BucketCount = 64;

  void recordNanos(int64_t Nanos) {
    Count.fetch_add(1, std::memory_order_relaxed);
    SumNanos.fetch_add(Nanos > 0 ? Nanos : 0, std::memory_order_relaxed);
    Buckets[bucketIndexFor(Nanos)].fetch_add(1, std::memory_order_relaxed);
    int64_t SeenMax = MaxNanos.load(std::memory_order_relaxed);
    while (Nanos > SeenMax &&
           !MaxNanos.compare_exchange_weak(SeenMax, Nanos,
                                           std::memory_order_relaxed))
      ;
  }

  /// Adds everything \p Tally recorded, exactly as if each duration had
  /// gone through recordNanos(): counts, sums and buckets add (integer
  /// addition, so fold order never matters) and the max is the larger.
  void fold(const LatencyTally &Tally);

  int64_t count() const { return Count.load(std::memory_order_relaxed); }
  int64_t sumNanos() const { return SumNanos.load(std::memory_order_relaxed); }
  int64_t maxNanos() const { return MaxNanos.load(std::memory_order_relaxed); }
  int64_t bucketValue(size_t Index) const {
    return Buckets[Index].load(std::memory_order_relaxed);
  }

  /// Bucket index a duration falls into.
  static size_t bucketIndexFor(int64_t Nanos) {
    if (Nanos <= 0)
      return 0;
    size_t Width = 64 - size_t(__builtin_clzll(uint64_t(Nanos)));
    return Width < BucketCount ? Width : BucketCount - 1;
  }

  /// Inclusive upper bound of bucket \p Index (0 for bucket 0).
  static int64_t bucketUpperNanos(size_t Index) {
    if (Index == 0)
      return 0;
    if (Index >= 63)
      return INT64_MAX;
    return (int64_t(1) << Index) - 1;
  }

private:
  std::atomic<int64_t> Count{0};
  std::atomic<int64_t> SumNanos{0};
  std::atomic<int64_t> MaxNanos{0};
  std::array<std::atomic<int64_t>, BucketCount> Buckets{};
};

/// A single-owner, non-atomic LatencyHistogram: the same buckets, the same
/// `Nanos > 0` sum rule and the same max, recorded with plain arithmetic.
/// A hot loop records into its own tally and periodically folds it into a
/// shared histogram with LatencyHistogram::fold(), so the shared cache
/// lines are touched once per fold instead of once per event.
class LatencyTally {
public:
  void recordNanos(int64_t Nanos) {
    ++Count;
    // Unsigned, so the sum wraps exactly like the histogram's atomic add.
    SumNanos += uint64_t(Nanos > 0 ? Nanos : 0);
    ++Buckets[LatencyHistogram::bucketIndexFor(Nanos)];
    if (Nanos > MaxNanos)
      MaxNanos = Nanos;
  }

  int64_t count() const { return Count; }

  /// Forgets everything recorded (after a fold).
  void reset() { *this = LatencyTally(); }

private:
  friend class LatencyHistogram;
  int64_t Count = 0;
  uint64_t SumNanos = 0;
  int64_t MaxNanos = 0;
  std::array<int64_t, LatencyHistogram::BucketCount> Buckets{};
};

/// Snapshot of one latency histogram: name, totals, and the non-empty
/// buckets as (bucket index, count) pairs.
struct LatencySummary {
  std::string Name;
  int64_t Count = 0;
  int64_t SumNanos = 0;
  int64_t MaxNanos = 0;
  std::vector<std::pair<unsigned, int64_t>> Buckets;

  double meanNanos() const {
    return Count > 0 ? double(SumNanos) / double(Count) : 0.0;
  }

  /// Upper bound (ns) of the bucket containing the \p Quantile-th fraction
  /// of recorded durations (e.g. 0.5, 0.9, 0.99). Conservative: reports
  /// the bucket ceiling. 0 when nothing was recorded.
  int64_t quantileUpperNanos(double Quantile) const;
};

/// Immutable, name-sorted copy of a registry's instruments.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> Counters;
  std::vector<std::pair<std::string, double>> Gauges;
  std::vector<LatencySummary> Latencies;

  /// Line-oriented serialization (results/metrics.dat). Byte-stable:
  /// instruments are sorted by name and numbers use the canonical
  /// formatScientific rendering.
  std::string toFileContents() const;

  /// Parses the toFileContents() format (mcstat, tests).
  [[nodiscard]] static Result<MetricsSnapshot> fromFileContents(std::string_view Contents);

  /// JSON object rendering, for machine consumers.
  std::string toJson() const;

  /// Aligned human-readable table with humanized durations (mcstat).
  std::string toPrettyText() const;

  // Lookup helpers (null when the name is absent). Linear scans: snapshots
  // are small and these run in tests and tools only.
  const int64_t *counterValue(std::string_view Name) const;
  const double *gaugeValue(std::string_view Name) const;
  const LatencySummary *latencySummary(std::string_view Name) const;
};

/// Owns named instruments. counter()/gauge()/latency() return stable
/// references: instruments are heap-allocated and never move or disappear
/// for the registry's lifetime, so hot paths may cache the reference and
/// update it without any further locking.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Finds or creates the counter named \p Name.
  Counter &counter(std::string_view Name);

  /// Finds or creates the gauge named \p Name.
  Gauge &gauge(std::string_view Name);

  /// Finds or creates the latency histogram named \p Name.
  LatencyHistogram &latency(std::string_view Name);

  /// Copies every instrument into a name-sorted snapshot. Safe to call
  /// while other threads keep updating (values are read atomically).
  MetricsSnapshot snapshot() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      Latencies;
};

} // namespace obs
} // namespace parmonc

#endif // PARMONC_OBS_METRICS_H
