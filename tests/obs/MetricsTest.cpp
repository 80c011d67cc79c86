//===- tests/obs/MetricsTest.cpp - Metrics registry unit tests ------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/obs/Metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace parmonc {
namespace obs {
namespace {

TEST(Counter, AddsAndReads) {
  Counter Events;
  EXPECT_EQ(Events.value(), 0);
  Events.add();
  Events.add(41);
  EXPECT_EQ(Events.value(), 42);
}

TEST(Counter, ConcurrentAddsAllLand) {
  Counter Events;
  constexpr int ThreadCount = 8;
  constexpr int AddsPerThread = 10'000;
  std::vector<std::thread> Threads;
  for (int Index = 0; Index < ThreadCount; ++Index)
    Threads.emplace_back([&Events] {
      for (int Add = 0; Add < AddsPerThread; ++Add)
        Events.add();
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  EXPECT_EQ(Events.value(), int64_t(ThreadCount) * AddsPerThread);
}

TEST(Gauge, LastValueWins) {
  Gauge Level;
  EXPECT_EQ(Level.value(), 0.0);
  Level.set(3.5);
  Level.set(-1.25);
  EXPECT_EQ(Level.value(), -1.25);
}

TEST(LatencyHistogram, BucketIndexBoundaries) {
  // Bucket 0: <= 0 ns (frozen test clocks). Bucket b >= 1 covers
  // [2^(b-1), 2^b - 1].
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(-5), 0u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(1023), 10u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(1024), 11u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(INT64_MAX), 63u);
}

TEST(LatencyHistogram, BucketUpperBoundsAreInclusive) {
  EXPECT_EQ(LatencyHistogram::bucketUpperNanos(0), 0);
  EXPECT_EQ(LatencyHistogram::bucketUpperNanos(1), 1);
  EXPECT_EQ(LatencyHistogram::bucketUpperNanos(2), 3);
  EXPECT_EQ(LatencyHistogram::bucketUpperNanos(10), 1023);
  EXPECT_EQ(LatencyHistogram::bucketUpperNanos(63), INT64_MAX);
  for (size_t Index = 1; Index < 63; ++Index) {
    const int64_t Upper = LatencyHistogram::bucketUpperNanos(Index);
    EXPECT_EQ(LatencyHistogram::bucketIndexFor(Upper), Index);
    EXPECT_EQ(LatencyHistogram::bucketIndexFor(Upper + 1), Index + 1);
  }
}

TEST(LatencyHistogram, RecordsTotalsAndMax) {
  LatencyHistogram Latency;
  Latency.recordNanos(10);
  Latency.recordNanos(1000);
  Latency.recordNanos(7);
  EXPECT_EQ(Latency.count(), 3);
  EXPECT_EQ(Latency.sumNanos(), 1017);
  EXPECT_EQ(Latency.maxNanos(), 1000);
  EXPECT_EQ(Latency.bucketValue(LatencyHistogram::bucketIndexFor(10)), 1);
  EXPECT_EQ(Latency.bucketValue(LatencyHistogram::bucketIndexFor(7)), 1);
}

/// The summary a registry holding one histogram named "x" reports.
LatencySummary summaryOf(const MetricsRegistry &Registry) {
  MetricsSnapshot Snapshot = Registry.snapshot();
  EXPECT_EQ(Snapshot.Latencies.size(), 1u);
  return Snapshot.Latencies.empty() ? LatencySummary{}
                                    : Snapshot.Latencies.front();
}

void expectSameSummary(const LatencySummary &Expected,
                       const LatencySummary &Actual) {
  EXPECT_EQ(Actual.Count, Expected.Count);
  EXPECT_EQ(Actual.SumNanos, Expected.SumNanos);
  EXPECT_EQ(Actual.MaxNanos, Expected.MaxNanos);
  EXPECT_EQ(Actual.Buckets, Expected.Buckets);
}

TEST(LatencyTally, FoldEqualsDirectRecording) {
  // Negative and zero durations land in bucket 0 and add nothing to the
  // sum; INT64_MAX lands in bucket 63 and wraps the sum, in both paths.
  const int64_t Durations[] = {-5, 0, 1, 1500, int64_t(1) << 40, INT64_MAX};
  MetricsRegistry Direct, Folded;
  LatencyTally Tally;
  for (int64_t Nanos : Durations) {
    Direct.latency("x").recordNanos(Nanos);
    Tally.recordNanos(Nanos);
  }
  EXPECT_EQ(Tally.count(), 6);
  Folded.latency("x").fold(Tally);

  const LatencySummary Expected = summaryOf(Direct);
  ASSERT_FALSE(Expected.Buckets.empty());
  EXPECT_EQ(Expected.Buckets.back(), (std::pair<unsigned, int64_t>{63, 1}));
  expectSameSummary(Expected, summaryOf(Folded));
  EXPECT_EQ(Folded.snapshot().toFileContents(),
            Direct.snapshot().toFileContents());
}

TEST(LatencyTally, FoldingAnEmptyTallyChangesNothing) {
  MetricsRegistry Registry;
  LatencyHistogram &Latency = Registry.latency("x");
  Latency.recordNanos(-3);
  Latency.recordNanos(700);
  const LatencySummary Before = summaryOf(Registry);
  LatencyTally Empty;
  Latency.fold(Empty);
  expectSameSummary(Before, summaryOf(Registry));

  // A reset tally is empty again.
  LatencyTally Used;
  Used.recordNanos(9);
  Used.reset();
  EXPECT_EQ(Used.count(), 0);
  Latency.fold(Used);
  expectSameSummary(Before, summaryOf(Registry));
}

TEST(LatencyTally, FoldKeepsTheLargerMax) {
  LatencyHistogram Latency;
  Latency.recordNanos(5000);
  LatencyTally Tally;
  Tally.recordNanos(20);
  Tally.recordNanos(-1);
  Latency.fold(Tally);
  EXPECT_EQ(Latency.maxNanos(), 5000);
  EXPECT_EQ(Latency.count(), 3);
  EXPECT_EQ(Latency.sumNanos(), 5020);

  LatencyTally Larger;
  Larger.recordNanos(9000);
  Latency.fold(Larger);
  EXPECT_EQ(Latency.maxNanos(), 9000);
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry Registry;
  Counter &First = Registry.counter("events");
  Counter &Second = Registry.counter("events");
  EXPECT_EQ(&First, &Second);
  First.add(5);
  EXPECT_EQ(Second.value(), 5);
  // Distinct kinds with the same name coexist (namespaced per kind).
  Registry.gauge("events").set(1.0);
  EXPECT_EQ(Registry.counter("events").value(), 5);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry Registry;
  Registry.counter("zebra").add(1);
  Registry.counter("alpha").add(2);
  Registry.counter("mid").add(3);
  Registry.gauge("z.gauge").set(9.0);
  Registry.gauge("a.gauge").set(8.0);
  Registry.latency("z.latency").recordNanos(5);
  Registry.latency("a.latency").recordNanos(5);

  const MetricsSnapshot Snapshot = Registry.snapshot();
  ASSERT_EQ(Snapshot.Counters.size(), 3u);
  EXPECT_EQ(Snapshot.Counters[0].first, "alpha");
  EXPECT_EQ(Snapshot.Counters[1].first, "mid");
  EXPECT_EQ(Snapshot.Counters[2].first, "zebra");
  ASSERT_EQ(Snapshot.Gauges.size(), 2u);
  EXPECT_EQ(Snapshot.Gauges[0].first, "a.gauge");
  ASSERT_EQ(Snapshot.Latencies.size(), 2u);
  EXPECT_EQ(Snapshot.Latencies[0].Name, "a.latency");
}

TEST(MetricsSnapshot, LookupHelpers) {
  MetricsRegistry Registry;
  Registry.counter("hits").add(7);
  Registry.gauge("load").set(0.5);
  Registry.latency("wait").recordNanos(100);

  const MetricsSnapshot Snapshot = Registry.snapshot();
  ASSERT_NE(Snapshot.counterValue("hits"), nullptr);
  EXPECT_EQ(*Snapshot.counterValue("hits"), 7);
  ASSERT_NE(Snapshot.gaugeValue("load"), nullptr);
  EXPECT_EQ(*Snapshot.gaugeValue("load"), 0.5);
  ASSERT_NE(Snapshot.latencySummary("wait"), nullptr);
  EXPECT_EQ(Snapshot.latencySummary("wait")->Count, 1);
  EXPECT_EQ(Snapshot.counterValue("absent"), nullptr);
  EXPECT_EQ(Snapshot.gaugeValue("absent"), nullptr);
  EXPECT_EQ(Snapshot.latencySummary("absent"), nullptr);
}

TEST(LatencySummary, MeanAndQuantiles) {
  MetricsRegistry Registry;
  LatencyHistogram &Latency = Registry.latency("wait");
  for (int Index = 0; Index < 90; ++Index)
    Latency.recordNanos(100); // bucket 7 (64..127)
  for (int Index = 0; Index < 10; ++Index)
    Latency.recordNanos(100'000); // bucket 17

  const MetricsSnapshot Snapshot = Registry.snapshot();
  const LatencySummary *Summary = Snapshot.latencySummary("wait");
  ASSERT_NE(Summary, nullptr);
  EXPECT_EQ(Summary->Count, 100);
  EXPECT_DOUBLE_EQ(Summary->meanNanos(), (90 * 100 + 10 * 100'000) / 100.0);
  EXPECT_EQ(Summary->quantileUpperNanos(0.5),
            LatencyHistogram::bucketUpperNanos(7));
  EXPECT_EQ(Summary->quantileUpperNanos(0.99),
            LatencyHistogram::bucketUpperNanos(17));
  EXPECT_EQ(Summary->MaxNanos, 100'000);
}

TEST(MetricsSnapshot, FileRoundTripIsExact) {
  MetricsRegistry Registry;
  Registry.counter("runner.realizations").add(123456789);
  Registry.gauge("comm.collector_queue_depth").set(2.0);
  Registry.gauge("vcluster.busy").set(0.12345678901234567);
  Registry.latency("runner.realization").recordNanos(1500);
  Registry.latency("runner.realization").recordNanos(0);
  Registry.latency("runner.realization").recordNanos(999'999'999);

  const MetricsSnapshot Original = Registry.snapshot();
  const std::string Text = Original.toFileContents();
  Result<MetricsSnapshot> Restored = MetricsSnapshot::fromFileContents(Text);
  ASSERT_TRUE(Restored.isOk()) << Restored.status().toString();

  EXPECT_EQ(Restored.value().Counters, Original.Counters);
  EXPECT_EQ(Restored.value().Gauges, Original.Gauges);
  ASSERT_EQ(Restored.value().Latencies.size(), Original.Latencies.size());
  const LatencySummary &Before = Original.Latencies[0];
  const LatencySummary &After = Restored.value().Latencies[0];
  EXPECT_EQ(After.Name, Before.Name);
  EXPECT_EQ(After.Count, Before.Count);
  EXPECT_EQ(After.SumNanos, Before.SumNanos);
  EXPECT_EQ(After.MaxNanos, Before.MaxNanos);
  EXPECT_EQ(After.Buckets, Before.Buckets);

  // Byte-stable: re-serializing the parsed snapshot reproduces the text.
  EXPECT_EQ(Restored.value().toFileContents(), Text);
}

TEST(MetricsSnapshot, RejectsCorruptFiles) {
  EXPECT_FALSE(MetricsSnapshot::fromFileContents("counter only_two").isOk());
  EXPECT_FALSE(MetricsSnapshot::fromFileContents("gauge x notanumber").isOk());
  EXPECT_FALSE(MetricsSnapshot::fromFileContents("bogus line here").isOk());
  EXPECT_TRUE(MetricsSnapshot::fromFileContents("").isOk());
  EXPECT_TRUE(MetricsSnapshot::fromFileContents("# comment\n").isOk());
}

TEST(MetricsSnapshot, RenderersMentionEveryInstrument) {
  MetricsRegistry Registry;
  Registry.counter("runner.realizations").add(10);
  Registry.gauge("runner.elapsed_seconds").set(1.5);
  Registry.latency("runner.realization").recordNanos(2000);

  const MetricsSnapshot Snapshot = Registry.snapshot();
  const std::string Json = Snapshot.toJson();
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"runner.realizations\""), std::string::npos);
  EXPECT_NE(Json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(Json.find("\"latencies\""), std::string::npos);

  const std::string Pretty = Snapshot.toPrettyText();
  EXPECT_NE(Pretty.find("runner.realizations"), std::string::npos);
  EXPECT_NE(Pretty.find("runner.elapsed_seconds"), std::string::npos);
  EXPECT_NE(Pretty.find("runner.realization"), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace parmonc
