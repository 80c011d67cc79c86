//===- core/Runner.cpp - The parallel simulation engine (§3.2) -----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Roles follow §2.2 exactly: every rank simulates realizations
// asynchronously; every rank periodically sends its *cumulative* moment
// sums to rank 0; rank 0 additionally keeps the latest snapshot per rank,
// merges them with the resumed base by eq. (5), and saves results at
// save-points. Cumulative (rather than incremental) subtotals make the
// collector idempotent: a lost or duplicated message only delays
// freshness, and only the newest subtotal matters, so subtotals travel
// latest-wins (Message::Supersedes). A reordered subtotal is the one
// hazard: released late, it would replace a fresher snapshot. The
// collector therefore keeps each rank's snapshot monotone — it ignores a
// subtotal once that rank's final is in, or one whose volume is below the
// snapshot it would replace.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"

#include "parmonc/ckpt/BackgroundWriter.h"
#include "parmonc/core/CheckpointBridge.h"
#include "parmonc/fault/FaultPlan.h"
#include "parmonc/mpsim/Communicator.h"
#include "parmonc/mpsim/Engine.h"
#include "parmonc/mpsim/Serialize.h"
#include "parmonc/obs/Stopwatch.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/support/Contract.h"
#include "parmonc/support/Text.h"

// mclint: allow-file(R8): the engine's stop/claim flags are the one
// reviewed lock-free seam outside mpsim/ — workers and the collector share
// them by reference inside a single runEngine() invocation, and all
// cross-rank *data* still flows through the communicator protocol.
#include <algorithm>
#include <atomic>
#include <optional>
#include <string_view>
#include <vector>

namespace parmonc {

namespace {

/// Everything the worker/collector closures share. Plain atomics; the
/// snapshot vectors are touched only by rank 0.
struct SharedRunState {
  std::atomic<int64_t> ClaimedVolume{0};
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> StoppedOnTimeLimit{false};
  std::atomic<bool> StoppedOnErrorTarget{false};
  /// The injected collector crash fired: the run ends exactly as a killed
  /// job would — no further saves, no final collection.
  std::atomic<bool> Killed{false};
  std::atomic<int64_t> FailedSends{0};
};

/// Merges \p From into \p Into: moment sums, compute seconds, histograms.
/// Shape mismatches here mean a snapshot was deserialized from a different
/// run configuration — merging it would corrupt the eq. (5) average, so
/// these contracts stay on in release builds. Shared by the rank-0
/// collector and the intra-rank thread merge, so both levels of the
/// hierarchy combine partials with the exact same arithmetic.
void mergeSnapshotInto(MomentSnapshot &Into, const MomentSnapshot &From) {
  Status MergedOk = Into.mergeFrom(From);
  PARMONC_ASSERT(MergedOk.isOk(), "snapshot shape/geometry mismatch");
}

/// Collector-side bookkeeping (rank 0 only).
struct CollectorState {
  /// A rank that has not reported yet holds an empty snapshot.
  std::vector<MomentSnapshot> LatestFromRank;
  std::vector<bool> FinalReceived;
  std::vector<int> DeadWorkers;
  int FinalsOutstanding = 0;
  int SavePointCount = 0;
  int64_t LastSaveNanos = 0;

  // Sharded checkpointing: the latest shard file each rank reported, keyed
  // by the rank's own monotone write index (from 1; 0 = none yet) so
  // duplicated or reordered reports (injected faults) can never roll a
  // reference backwards.
  std::vector<ckpt::ShardEntry> ShardRef;
  std::vector<int64_t> ShardIndexSeen;

  CollectorState(int RankCount, int64_t StartNanos,
                 const MomentSnapshot &Empty)
      : LatestFromRank(size_t(RankCount), Empty),
        FinalReceived(size_t(RankCount), false), FinalsOutstanding(RankCount),
        LastSaveNanos(StartNanos), ShardRef(size_t(RankCount)),
        ShardIndexSeen(size_t(RankCount), 0) {}

  /// Merges base + every received rank snapshot (eq. 5).
  MomentSnapshot mergeAll(const MomentSnapshot &Base) const {
    MomentSnapshot Merged = Base;
    for (const MomentSnapshot &Latest : LatestFromRank)
      mergeSnapshotInto(Merged, Latest);
    return Merged;
  }
};

} // namespace

/// An empty snapshot shaped for \p Config — matrix and histograms —
/// where every accumulator starts.
static MomentSnapshot emptySnapshot(const RunConfig &Config) {
  MomentSnapshot Empty;
  Empty.SequenceNumber = Config.SequenceNumber;
  Empty.Moments = EstimatorMatrix(Config.Rows, Config.Columns);
  Empty.Histograms.reserve(Config.Histograms.size());
  for (const HistogramSpec &Spec : Config.Histograms)
    Empty.Histograms.emplace_back(Spec.Low, Spec.High, Spec.BinCount);
  return Empty;
}

Result<RunReport> runSimulation(const RealizationFn &Realization,
                                const RunConfig &Config,
                                Clock *ClockOverride) {
  if (!Realization)
    return invalidArgument("realization routine must be set");
  if (Status Valid = Config.validate(); !Valid)
    return Valid;

  static WallClock DefaultClock;
  Clock &Time = ClockOverride ? *ClockOverride : DefaultClock;

  // Observability: callers may supply a shared registry; otherwise the run
  // keeps a private one. Either way the final snapshot lands in
  // RunReport::Metrics and results/metrics.dat.
  obs::MetricsRegistry LocalRegistry;
  obs::MetricsRegistry &Registry =
      Config.Metrics ? *Config.Metrics : LocalRegistry;
  obs::TraceWriter *Trace = Config.Trace;

  ResultsStore Store(Config.WorkDir);
  Store.attachObservers(&Registry, Trace, &Time);
  if (Status Prepared = Store.prepareDirectories(); !Prepared)
    return Prepared;

  // Fault injection (testing only): a null or empty plan costs nothing.
  std::optional<fault::FaultInjector> InjectorStorage;
  fault::FaultInjector *Injector = nullptr;
  if (Config.Faults && Config.Faults->enabled()) {
    InjectorStorage.emplace(*Config.Faults);
    Injector = &*InjectorStorage;
    Injector->attachObservers(&Registry, Trace, &Time);
    Store.setFaultInjector(Injector);
  }

  // Sharded checkpoint store. Always constructed (resume must be able to
  // read a manifest a previous sharded run left behind); the directories
  // are only created when this run itself writes shards.
  ckpt::CheckpointStore Ckpt(Store.checkpointDir());
  Ckpt.attachMetrics(&Registry);
  if (Injector)
    Ckpt.setWriteInterceptor(
        [Injector](const std::string &Path, std::string_view Contents) {
          // mclint: allow(R8): fault-injection seam, same as the results
          // store's — the injector is plain data here.
          return Injector->corruptWrite(Path, Contents);
        });
  // Leap table: an explicit parmonc_genparam.dat in the working directory
  // overrides the configured exponents (§3.5).
  const int64_t LeapSetupStart = Time.nowNanos();
  LeapTable Table(Lcg128::defaultMultiplier(), Config.Leaps);
  if (fileExists(Store.genparamPath())) {
    Result<LeapTable> Loaded = LeapTable::loadOrDefault(Store.genparamPath());
    if (!Loaded)
      return Loaded.status();
    Table = std::move(Loaded).value();
  }
  // Backend dispatch: Philox partitions the same (e, p, k) coordinates by
  // counter intervals, using the table's (possibly genparam-overridden)
  // exponents. A genparam *multiplier* override is LCG arithmetic with no
  // counter-based equivalent — silently ignoring it would ship different
  // numbers than the operator asked for, so it is rejected instead.
  const bool UsePhilox = Config.RngBackend == RngBackendKind::Philox;
  if (UsePhilox && Table.baseMultiplier() != Lcg128::defaultMultiplier())
    return failedPrecondition(
        "parmonc_genparam.dat overrides the LCG multiplier, which has no "
        "counter-based equivalent; remove the override or run the lcg128 "
        "backend");
  StreamHierarchy Hierarchy(Table);
  Registry.latency("rng.leap_setup")
      .recordNanos(Time.nowNanos() - LeapSetupStart);
  if (Trace)
    Trace->completeSpan("rng.leap_setup", 0, LeapSetupStart,
                        Time.nowNanos());

  // Resumption (§3.2): res=1 loads the previous checkpoint as the base;
  // res=0 starts from clean files.
  ResumeBase Start{emptySnapshot(Config)};
  if (Config.Resume) {
    Result<ResumeBase> Resumed =
        restoreResumeBase(Store, Ckpt, std::move(Start.Base));
    if (!Resumed)
      return Resumed.status();
    Start = std::move(Resumed).value();
  } else if (Status Cleared = Store.clearPreviousRun(); !Cleared) {
    return Cleared;
  }
  const MomentSnapshot &Base = Start.Base;
  // After the res=0 clear (which removes the whole ckpt tree along with
  // the other per-run files), so the staging/shards directories survive.
  if (Config.CheckpointShards)
    if (Status Prepared = Ckpt.prepareDirectories(); !Prepared)
      return Prepared;
  // Base is frozen from here on: render it once for base.dat and for the
  // merged-base shard every sharded commit references.
  const std::string BaseBody = Base.toFileContents();
  if (Status Written = Store.writeSnapshotBody(Store.basePath(), BaseBody);
      !Written)
    return Written;

  RunLogInfo StartLog;
  StartLog.SequenceNumber = Config.SequenceNumber;
  StartLog.Resumed = Config.Resume;
  StartLog.ProcessorCount = Config.ProcessorCount;
  StartLog.TotalSampleVolume = Base.Moments.sampleVolume();
  StartLog.RngBackend = rngBackendName(Config.RngBackend);
  if (Status Logged = Store.appendExperimentLog(StartLog); !Logged)
    return Logged;

  const int64_t StartNanos = Time.nowNanos();
  const int RankCount = Config.ProcessorCount;
  const size_t EntryCount = Config.Rows * Config.Columns;

  SharedRunState Shared;
  CollectorState Collector(RankCount, StartNanos, emptySnapshot(Config));

  // The first IO failure seen by rank 0 fails the run once it is over.
  Status CollectorFailure;
  auto keepFailure = [&](Status Failure) {
    if (!Failure && CollectorFailure.isOk())
      CollectorFailure = std::move(Failure);
  };
  RunReport Report;

  // Background checkpoint writer (rank 0, parent process only): created
  // lazily at body entry, wound down after the engine returns so every
  // exit path — including a simulated collector death — is covered.
  std::optional<ckpt::BackgroundWriter> AsyncWriterStorage;
  ckpt::BackgroundWriter *AsyncWriter = nullptr;

  // Rank 0's communicator, captured at body entry: the collector-side
  // helpers broadcast stop/abort through it so the decision crosses
  // address spaces under the process transport (Shared's atomics only
  // reach threads of this process).
  Communicator *RootComm = nullptr;

  // Pre-register every hot-path metric on the cold path: workers then only
  // touch relaxed atomics through stable references.
  obs::Counter &RealizationsTotal = Registry.counter("runner.realizations");
  obs::Counter &StreamsIssued = Registry.counter("rng.streams_issued");
  obs::Counter &SubtotalsSent = Registry.counter("runner.subtotals_sent");
  obs::Counter &SavePoints = Registry.counter("runner.save_points");
  obs::LatencyHistogram &RealizationLatency =
      Registry.latency("runner.realization");
  obs::LatencyHistogram &MergeLatency =
      Registry.latency("runner.subtotal_merge");
  obs::LatencyHistogram &SavePointLatency =
      Registry.latency("runner.save_point");
  obs::LatencyHistogram *SaveStallLatency =
      Config.CheckpointShards ? &Registry.latency("ckpt.save_stall")
                              : nullptr;
  obs::Counter &DeadWorkersCounter = Registry.counter("runner.dead_workers");
  std::vector<obs::Counter *> RankRealizations;
  RankRealizations.reserve(size_t(RankCount));
  for (int Rank = 0; Rank < RankCount; ++Rank)
    RankRealizations.push_back(&Registry.counter(
        "runner.rank" + std::to_string(Rank) + ".realizations"));

  // Even relaxed atomics are too dear per realization once several threads
  // share their cache lines, so each worker records its realizations into
  // a private tally and folds it in at every subtotal hand-off and at every
  // exit. Folding only adds integers, so the final metrics equal
  // per-realization recording exactly; mid-run they lag by at most one
  // pass period. Every realization draws exactly one stream.
  auto foldTally = [&](int Rank, obs::LatencyTally &Tally) {
    const int64_t Realizations = Tally.count();
    if (Realizations == 0)
      return;
    RealizationsTotal.add(Realizations);
    RankRealizations[size_t(Rank)]->add(Realizations);
    StreamsIssued.add(Realizations);
    RealizationLatency.fold(Tally);
    Tally.reset();
  };

  // --- Collector helpers (rank 0 only) -----------------------------------

  auto buildLog = [&](const MomentSnapshot &Merged,
                      int64_t NowNanos) -> RunLogInfo {
    RunLogInfo Log;
    Log.TotalSampleVolume = Merged.Moments.sampleVolume();
    Log.NewSampleVolume =
        Merged.Moments.sampleVolume() - Base.Moments.sampleVolume();
    // Workers only ever add realizations to the resumed base, so the
    // merged volume can never shrink; if it does, a snapshot went bad.
    PARMONC_ASSERT(Log.NewSampleVolume >= 0,
                   "sample volume must be monotone across save-points");
    const double NewComputeSeconds =
        Merged.ComputeSeconds - Base.ComputeSeconds;
    Log.MeanRealizationSeconds =
        Log.NewSampleVolume > 0
            ? NewComputeSeconds / double(Log.NewSampleVolume)
            : 0.0;
    Log.ElapsedSeconds = double(NowNanos - StartNanos) * 1e-9;
    Log.ProcessorCount = RankCount;
    Log.SequenceNumber = Config.SequenceNumber;
    Log.Resumed = Config.Resume;
    Log.Degraded =
        !Collector.DeadWorkers.empty() ||
        Shared.FailedSends.load(std::memory_order_relaxed) > 0;
    Log.DeadWorkerCount = int(Collector.DeadWorkers.size());
    Log.ResumedFromBackup = Start.ResumedFromBackup;
    if (Merged.Moments.sampleVolume() > 0) {
      const ErrorBounds Bounds =
          Merged.Moments.errorBounds(Config.ErrorMultiplier);
      Log.MaxAbsoluteError = Bounds.MaxAbsoluteError;
      Log.MaxRelativeErrorPercent = Bounds.MaxRelativeError;
      Log.MaxVariance = Bounds.MaxVariance;
    }
    return Log;
  };

  auto savePoint = [&](int64_t NowNanos, bool IsFinal = false) {
    const int64_t MergeStart = Time.nowNanos();
    const MomentSnapshot Merged = Collector.mergeAll(Base);
    const int64_t MergeEnd = Time.nowNanos();
    if (Merged.Moments.sampleVolume() <= 0)
      return; // nothing to report yet
    // Injected collector death: the save about to happen never does, and
    // the whole run stops — exactly a job killed mid-save. On-disk state
    // stays at the previous save-point plus whatever subtotals the workers
    // persisted, which is what manaver (§3.4) recovers from.
    if (Injector &&
        Injector->takeCollectorCrash(Collector.SavePointCount + 1,
                                     IsFinal)) {
      Injector->noteCollectorCrashed();
      Shared.Killed.store(true, std::memory_order_relaxed);
      Shared.StopRequested.store(true, std::memory_order_relaxed);
      if (RootComm)
        RootComm->requestAbort();
      return;
    }
    MergeLatency.recordNanos(MergeEnd - MergeStart);
    if (Trace)
      Trace->completeSpan("runner.subtotal_merge", 0, MergeStart, MergeEnd);
    const RunLogInfo Log = buildLog(Merged, NowNanos);
    keepFailure(
        Store.writeResults(Merged.Moments, Log, Config.ErrorMultiplier));
    if (!Config.CheckpointShards) {
      keepFailure(Store.writeSnapshot(Store.checkpointPath(), Merged));
    } else {
      // Sharded commit: the manifest references the latest shard every
      // rank has published so far. Worker shards carry this run's
      // contributions only; the base shard carries everything inherited,
      // so base + shards reconstructs the merged state exactly.
      ckpt::CheckpointStore::CommitRequest Request;
      Request.Generation = Collector.SavePointCount + 1;
      Request.SequenceNumber = Config.SequenceNumber;
      Request.RankCount = RankCount;
      Request.BaseBody = BaseBody;
      Request.BaseVolume = Base.Moments.sampleVolume();
      Request.KeepShards = Config.CheckpointKeepShards;
      for (size_t Rank = 0; Rank < size_t(RankCount); ++Rank)
        if (Collector.ShardIndexSeen[Rank] > 0)
          Request.Shards.push_back(Collector.ShardRef[Rank]);
      // The stall this save-point spends on checkpointing: the full
      // commit when synchronous, a queue hand-off when asynchronous
      // (perfbench reports it as ckpt.save_stall_us.*).
      const int64_t HandoffStart = Time.nowNanos();
      if (AsyncWriter)
        (void)AsyncWriter->enqueue(std::move(Request));
      else
        keepFailure(Ckpt.commit(Request));
      SaveStallLatency->recordNanos(Time.nowNanos() - HandoffStart);
    }
    for (size_t Index = 0; Index < Config.Histograms.size(); ++Index) {
      const HistogramSpec &Spec = Config.Histograms[Index];
      keepFailure(writeFileAtomic(histogramPath(Store, Spec.Row, Spec.Column),
                                  Merged.Histograms[Index].toFileContents()));
    }
    ++Collector.SavePointCount;
    Collector.LastSaveNanos = NowNanos;
    SavePoints.add();
    const int64_t SaveEnd = Time.nowNanos();
    SavePointLatency.recordNanos(SaveEnd - MergeStart);
    if (Trace)
      Trace->completeSpan("runner.save_point", 0, MergeStart, SaveEnd);

    if (Config.OnSavePoint) {
      RunProgress Progress;
      Progress.TotalSampleVolume = Log.TotalSampleVolume;
      Progress.MaxAbsoluteError = Log.MaxAbsoluteError;
      Progress.MaxRelativeErrorPercent = Log.MaxRelativeErrorPercent;
      Progress.ElapsedSeconds = Log.ElapsedSeconds;
      Progress.SavePointCount = Collector.SavePointCount;
      Config.OnSavePoint(Progress);
    }

    // Early-stop targets are evaluated on saved (i.e. reported) bounds.
    const bool AbsoluteMet =
        Config.TargetMaxAbsoluteError > 0.0 &&
        Log.MaxAbsoluteError <= Config.TargetMaxAbsoluteError;
    const bool RelativeMet =
        Config.TargetMaxRelativeErrorPercent > 0.0 &&
        Log.MaxRelativeErrorPercent <= Config.TargetMaxRelativeErrorPercent;
    if (AbsoluteMet || RelativeMet) {
      Shared.StoppedOnErrorTarget.store(true, std::memory_order_relaxed);
      Shared.StopRequested.store(true, std::memory_order_relaxed);
      if (RootComm)
        RootComm->requestStop(StopReason::ErrorTarget);
      if (Trace)
        Trace->instantAt("runner.stop.error_target", 0, SaveEnd);
    }
  };

  auto handleMessage = [&](const Message &Incoming) {
    if (Incoming.Tag == TagShardReport) {
      ByteReader Reader(Incoming.Payload);
      Result<int64_t> WriteIndex = Reader.readI64();
      Result<std::string> File = Reader.readString();
      Result<uint32_t> Crc = Reader.readU32();
      Result<uint64_t> Bytes = Reader.readU64();
      Result<int64_t> Volume = Reader.readI64();
      if (!WriteIndex || !File || !Crc || !Bytes || !Volume ||
          !Reader.atEnd())
        return keepFailure(parseError("malformed shard report from rank " +
                                      std::to_string(Incoming.Source)));
      const size_t Source = size_t(Incoming.Source);
      // Duplicated or delayed reports (injected faults) must never roll a
      // manifest reference back to an older shard.
      if (WriteIndex.value() <= Collector.ShardIndexSeen[Source])
        return;
      Collector.ShardIndexSeen[Source] = WriteIndex.value();
      ckpt::ShardEntry &Entry = Collector.ShardRef[Source];
      Entry.Rank = Incoming.Source;
      Entry.File = std::move(File).value();
      Entry.Crc = Crc.value();
      Entry.Bytes = Bytes.value();
      Entry.Volume = Volume.value();
      return;
    }
    const size_t Rank = size_t(Incoming.Source);
    const bool IsFinal = Incoming.Tag == TagFinal;
    if (!IsFinal && Collector.FinalReceived[Rank])
      return; // a subtotal released late; the final covers it
    Result<MomentSnapshot> Snapshot =
        MomentSnapshot::fromBytes(Incoming.Payload);
    if (!Snapshot)
      return keepFailure(Snapshot.status());
    MomentSnapshot &Latest = Collector.LatestFromRank[Rank];
    const int64_t Volume = Snapshot.value().Moments.sampleVolume();
    if (!IsFinal && Volume < Latest.Moments.sampleVolume())
      return; // older than what the collector already holds
    Latest = std::move(Snapshot).value();
    if (IsFinal && !Collector.FinalReceived[Rank]) {
      Collector.FinalReceived[Rank] = true;
      --Collector.FinalsOutstanding;
    }
  };

  // \p Now is the caller's latest clock read; the poll takes no other.
  auto collectorPoll = [&](Communicator &Comm, int64_t Now) {
    while (std::optional<Message> Incoming = Comm.tryReceive())
      handleMessage(*Incoming);
    if (Now - Collector.LastSaveNanos >= Config.AveragePeriodNanos)
      savePoint(Now);
  };

  // --- Worker body (every rank, including 0) ------------------------------

  // mclint: allow(R12): every rank lambda joins before this scope exits,
  // so the by-reference capture of the stream hierarchy cannot outlive it.
  auto body = [&](Communicator &Comm) {
    const int Rank = Comm.rank();
    if (Rank == 0) {
      RootComm = &Comm;
      // Rank 0 always runs in the calling process (both transports), so
      // the writer thread spawned here never crosses a fork.
      if (Config.CheckpointAsync) {
        AsyncWriterStorage.emplace(Ckpt, Config.CheckpointQueueDepth,
                                   &Registry);
        AsyncWriter = &*AsyncWriterStorage;
      }
    }
    const int ThreadsPerRank = Config.WorkerThreadsPerRank;
    MomentSnapshot Local = emptySnapshot(Config);

    int64_t LastPersistNanos = Time.nowNanos();
    // The on-disk subtotal freshness manaver needs (§3.4) is bounded by
    // the pass period, but in send-every-realization mode (PassPeriod 0)
    // writing a file per realization would swamp fast workloads — persist
    // at most every 250 ms there.
    const int64_t PersistPeriodNanos =
        Config.PassPeriodNanos > 0 ? Config.PassPeriodNanos : 250'000'000;

    // A rank that cannot persist keeps simulating — its sent subtotals
    // still reach the collector — but the failure is never silent, and on
    // rank 0 it fails the run like any other collector-side IO error.
    // Counters register lazily, so healthy runs' metrics.dat is unchanged.
    auto noteWriteFailure = [&](std::string_view Counter, Status Failure) {
      Registry.counter(Counter).add();
      if (Rank == 0)
        keepFailure(std::move(Failure));
    };
    // The §3.4 subtotal file manaver recovers from, from a rendered body.
    auto persistSubtotal = [&](std::string_view Body) {
      if (Status Written =
              Store.writeSnapshotBody(Store.subtotalPath(Rank), Body);
          !Written)
        noteWriteFailure("runner.subtotal_write_failures", Written);
    };

    int64_t ShardWriteIndex = 0;
    auto sendSubtotal = [&](int Tag) {
      const int64_t SendStart = Trace ? Time.nowNanos() : 0;
      // Persist BEFORE sending, so the worker's on-disk subtotal is always
      // at least as fresh as the collector's view of this rank — §3.4's
      // precondition for manaver recovering results "fresher than the
      // moment of the last saving".
      const int64_t Now = Time.nowNanos();
      if (Tag == TagFinal || Now - LastPersistNanos >= PersistPeriodNanos) {
        // One rendering feeds both the subtotal file and the shard.
        const std::string Body = Local.toFileContents();
        persistSubtotal(Body);
        if (Config.CheckpointShards) {
          // Publish this rank's cumulative shard at subtotal-persist
          // cadence and tell rank 0 where it landed. Shard freshness thus
          // equals §3.4 subtotal freshness; at the final send the shard
          // body IS the final subtotal, which makes the committed
          // generation reconstruct the collector's merged state exactly.
          // On failure the manifest just references the previous shard.
          Result<ckpt::ShardEntry> Written =
              Ckpt.writeShard(Rank, Config.SequenceNumber, ++ShardWriteIndex,
                              Body, Local.Moments.sampleVolume());
          if (Written) {
            ByteWriter ShardMsg;
            ShardMsg.writeI64(ShardWriteIndex);
            ShardMsg.writeString(Written.value().File);
            ShardMsg.writeU32(Written.value().Crc);
            ShardMsg.writeU64(Written.value().Bytes);
            ShardMsg.writeI64(Written.value().Volume);
            if (Status Sent = Comm.sendReliable(
                    0, TagShardReport, ShardMsg.takeBytes(),
                    Config.SendMaxAttempts, Config.SendRetryBackoffNanos,
                    &Time, /*Supersedes=*/false);
                !Sent)
              // Cumulative shards: the next report covers this one.
              Shared.FailedSends.fetch_add(1, std::memory_order_relaxed);
          } else {
            noteWriteFailure("ckpt.shard_write_failures", Written.status());
          }
        }
        LastPersistNanos = Now;
      }
      // Only the newest cumulative subtotal matters, so a subtotal replaces
      // any of this rank's subtotals still queued at rank 0. Finals and
      // shard reports are never replaced.
      if (Status Sent = Comm.sendReliable(0, Tag, Local.toBytes(),
                                          Config.SendMaxAttempts,
                                          Config.SendRetryBackoffNanos, &Time,
                                          /*Supersedes=*/Tag == TagSubtotal);
          !Sent)
        // The message is gone, but subtotals are cumulative: the next
        // successful send covers everything this one carried.
        Shared.FailedSends.fetch_add(1, std::memory_order_relaxed);
      SubtotalsSent.add();
      if (Trace)
        Trace->completeSpan("runner.subtotal_send", Rank, SendStart,
                            Time.nowNanos());
    };

    // Deterministic scheduling splits maxsv into fixed per-rank quotas, so
    // per-rank volumes never depend on thread interleaving; the default
    // shared counter maximizes throughput instead.
    const int64_t Quota =
        Config.DeterministicSchedule
            ? Config.MaxSampleVolume / RankCount +
                  (Rank < int(Config.MaxSampleVolume % RankCount) ? 1 : 0)
            : -1;
    const fault::WorkerCrashSpec *Crash =
        Injector ? Injector->workerCrash(Rank) : nullptr;

    // Ends the whole run once the time limit has passed. Only the rank
    // thread calls this: it alone talks to the wire.
    auto checkTimeLimit = [&](int64_t Now) {
      if (Config.TimeLimitNanos == 0 ||
          Now - StartNanos < Config.TimeLimitNanos ||
          Shared.StopRequested.load(std::memory_order_relaxed))
        return;
      Shared.StoppedOnTimeLimit.store(true, std::memory_order_relaxed);
      Shared.StopRequested.store(true, std::memory_order_relaxed);
      Comm.requestStop(StopReason::TimeLimit);
      if (Trace)
        Trace->instantAt("runner.stop.time_limit", Rank, Now);
    };

    // --- The realization loop --------------------------------------------
    // Thread t of N simulates this rank's realizations t, t + N, ... into
    // \p Acc through a stride-N cursor, so the N threads jointly consume
    // exactly the substreams one thread would. \p AfterRealization(Now,
    // PassDue) runs after every realization; PassDue means a pass period
    // elapsed and the metric tally was just folded. Returns false when an
    // injected worker crash ended the rank.
    auto realizationLoop = [&](int Thread, MomentSnapshot &Acc,
                               auto &&AfterRealization) {
      RealizationCursor Cursor(
          Hierarchy,
          StreamCoordinates{Config.SequenceNumber, uint64_t(Rank),
                            uint64_t(Thread)},
          uint64_t(ThreadsPerRank));
      // Round-robin split of the rank quota: thread t owns the rank's
      // realizations congruent to t modulo N.
      const int64_t ThreadQuota =
          Quota < 0 ? -1
                    : (Quota > Thread ? (Quota - Thread + ThreadsPerRank - 1) /
                                            ThreadsPerRank
                                      : 0);
      std::vector<double> Out(EntryCount);
      obs::LatencyTally Tally;
      int64_t Done = 0;
      int64_t LastThreadPassNanos = Time.nowNanos();

      // Shared covers threads of this process; stopRequested() additionally
      // hears wire broadcasts when this rank is a forked worker.
      while (!Shared.StopRequested.load(std::memory_order_relaxed) &&
             !Comm.stopRequested()) {
        if (ThreadQuota >= 0) {
          if (Done >= ThreadQuota)
            break;
        } else if (Shared.ClaimedVolume.fetch_add(
                       1, std::memory_order_relaxed) >=
                   Config.MaxSampleVolume) {
          break;
        }

        int64_t ComputeStart = 0;
        int64_t ComputeEnd = 0;
        auto simulate = [&](RandomSource &Stream) {
          ComputeStart = Time.nowNanos();
          Realization(Stream, Out.data());
          ComputeEnd = Time.nowNanos();
        };
        // The one backend dispatch. Both place realization k of this rank
        // at the same (e, p, k): the LCG cursor by leap-ahead, Philox by
        // the counter interval k·2^nr.
        if (UsePhilox) {
          Philox Stream = Philox::streamFor(
              StreamCoordinates{Config.SequenceNumber, uint64_t(Rank),
                                Cursor.nextRealizationIndex()},
              Table.config());
          Cursor.noteRealizationIssued();
          simulate(Stream);
        } else {
          Lcg128 Stream = Cursor.beginRealization();
          simulate(Stream);
        }
        Acc.ComputeSeconds += double(ComputeEnd - ComputeStart) * 1e-9;
        // Reuses the ComputeStart/ComputeEnd reads the engine takes anyway.
        Tally.recordNanos(ComputeEnd - ComputeStart);
        if (Trace)
          Trace->completeSpan("runner.realization", Rank, ComputeStart,
                              ComputeEnd);
        Acc.Moments.accumulate(Out.data());
        for (size_t Index = 0; Index < Config.Histograms.size(); ++Index) {
          const HistogramSpec &Spec = Config.Histograms[Index];
          Acc.Histograms[Index].add(
              Out[Spec.Row * Config.Columns + Spec.Column]);
        }
        ++Done;

        // Injected worker death (N = 1 only; validate() rejects the rest):
        // the rank vanishes mid-run without a final send.
        // PersistBeforeCrash models a node whose filesystem survives the
        // process (the paper's cluster), so manaver can still recover every
        // completed realization.
        if (Crash && Done >= Crash->AfterRealizations) {
          foldTally(Rank, Tally);
          if (Crash->PersistBeforeCrash)
            persistSubtotal(Acc.toFileContents());
          Injector->noteWorkerCrashed(Rank);
          if (Crash->RaiseKillSignal)
            Comm.crashHard(); // SIGKILL the worker process: a real node loss
          Comm.markDead(Rank);
          return false;
        }

        const int64_t Now = ComputeEnd;
        const bool PassDue =
            Config.PassPeriodNanos == 0 ||
            Now - LastThreadPassNanos >= Config.PassPeriodNanos;
        if (PassDue) {
          foldTally(Rank, Tally);
          LastThreadPassNanos = Now;
        }
        AfterRealization(Now, PassDue);
      }
      foldTally(Rank, Tally);
      return true;
    };

    if (ThreadsPerRank == 1) {
      // No mailbox hop: the loop runs on this rank thread, which does the
      // rank-level work between realizations itself.
      if (!realizationLoop(0, Local, [&](int64_t Now, bool PassDue) {
            checkTimeLimit(Now);
            if (PassDue)
              sendSubtotal(TagSubtotal);
            if (Rank == 0)
              collectorPoll(Comm, Now);
          }))
        return;
    } else {
      // Worker threads hand *cumulative* snapshots to this rank thread
      // through a mailbox — the same MPSC primitive the fabric uses — and
      // only the rank thread talks to the collector, so the §2.2 protocol
      // is untouched. Partials are cumulative too, so they travel
      // latest-wins.
      Mailbox IntraRank;
      IntraRank.countSupersededIn(&Registry);
      WorkerGroup Workers(ThreadsPerRank, [&](int Thread) {
        MomentSnapshot Mine = emptySnapshot(Config);
        (void)realizationLoop(Thread, Mine, [&](int64_t, bool PassDue) {
          if (PassDue)
            IntraRank.push(Message{Thread, TagSubtotal, Mine.toBytes(),
                                   /*Supersedes=*/true});
        });
        // Always hand in the final partial — even a zero-quota thread, so
        // the finals accounting below stays exact.
        IntraRank.push(Message{Thread, TagFinal, Mine.toBytes()});
      });

      // Thread partials merge in thread-index order, making the merged
      // rank snapshot independent of message arrival interleaving.
      std::vector<MomentSnapshot> ThreadLatest(size_t(ThreadsPerRank),
                                               emptySnapshot(Config));
      auto mergeThreads = [&] {
        MomentSnapshot Merged = emptySnapshot(Config);
        for (const MomentSnapshot &Partial : ThreadLatest)
          mergeSnapshotInto(Merged, Partial);
        return Merged;
      };

      int ThreadFinalsOutstanding = ThreadsPerRank;
      int64_t LastPassNanos = Time.nowNanos();
      while (ThreadFinalsOutstanding > 0) {
        // Drain everything queued on entry (waiting up to 2 ms when
        // nothing is): taking one message per iteration falls behind N
        // producers as soon as persisting or a save-point slows the
        // iteration down. The entry count bounds the drain so producers
        // cannot starve the pass below.
        for (size_t Left = std::max<size_t>(IntraRank.pendingCount(), 1);
             Left > 0; --Left) {
          std::optional<Message> Incoming =
              IntraRank.popWait(-1, /*TimeoutNanos=*/2'000'000, &Time);
          if (!Incoming)
            break;
          Result<MomentSnapshot> Snapshot =
              MomentSnapshot::fromBytes(Incoming->Payload);
          // Same-process round trip: a decode failure here is a bug, not
          // an IO hazard.
          PARMONC_ASSERT(Snapshot.isOk(), "intra-rank snapshot decode failed");
          ThreadLatest[size_t(Incoming->Source)] = std::move(Snapshot).value();
          if (Incoming->Tag == TagFinal)
            --ThreadFinalsOutstanding;
        }
        const int64_t Now = Time.nowNanos();
        checkTimeLimit(Now);
        if (Config.PassPeriodNanos == 0 ||
            Now - LastPassNanos >= Config.PassPeriodNanos) {
          Local = mergeThreads();
          if (Local.Moments.sampleVolume() > 0) {
            sendSubtotal(TagSubtotal);
            LastPassNanos = Now;
          }
        }
        if (Rank == 0)
          collectorPoll(Comm, Now);
      }
      Workers.join();
      // Every thread's final partial, merged in thread order: the rank's
      // definitive subtotal for the epilogue below.
      Local = mergeThreads();
    }

    // A crashed collector kills the whole job: nobody finalizes. Forked
    // workers learn of the death from the abort broadcast.
    if (Shared.Killed.load(std::memory_order_relaxed) ||
        Comm.abortRequested())
      return;

    sendSubtotal(TagFinal);

    if (Rank == 0) {
      // Keep collecting until every rank's final snapshot has arrived, or
      // — with a worker deadline configured — until the silence lasts long
      // enough to declare the stragglers dead and finish degraded over the
      // survivors (still a correct eq. 5 average, just over fewer ranks).
      int64_t LastProgressNanos = Time.nowNanos();
      while (Collector.FinalsOutstanding > 0 &&
             !Shared.Killed.load(std::memory_order_relaxed)) {
        if (std::optional<Message> Incoming =
                Comm.receiveWait(-1, /*TimeoutNanos=*/2'000'000, &Time)) {
          handleMessage(*Incoming);
          LastProgressNanos = Time.nowNanos();
        } else if (Config.WorkerDeadlineNanos > 0 &&
                   Time.nowNanos() - LastProgressNanos >=
                       Config.WorkerDeadlineNanos) {
          for (int Straggler = 0; Straggler < RankCount; ++Straggler) {
            if (Collector.FinalReceived[size_t(Straggler)])
              continue;
            Collector.FinalReceived[size_t(Straggler)] = true;
            --Collector.FinalsOutstanding;
            Collector.DeadWorkers.push_back(Straggler);
            DeadWorkersCounter.add();
            if (Trace)
              Trace->instantAt("runner.dead_worker", Straggler,
                               Time.nowNanos());
            Comm.markDead(Straggler);
          }
        }
        // Periodic save-points continue while stragglers finish.
        const int64_t Now = Time.nowNanos();
        if (Config.AveragePeriodNanos > 0 &&
            Now - Collector.LastSaveNanos >= Config.AveragePeriodNanos)
          savePoint(Now);
      }
      if (Shared.Killed.load(std::memory_order_relaxed))
        return;
      savePoint(Time.nowNanos(), /*IsFinal=*/true); // covers everything
      if (Shared.Killed.load(std::memory_order_relaxed))
        return;

      const MomentSnapshot Merged = Collector.mergeAll(Base);
      const RunLogInfo Log = buildLog(Merged, Time.nowNanos());
      Report.TotalSampleVolume = Log.TotalSampleVolume;
      Report.NewSampleVolume = Log.NewSampleVolume;
      Report.MeanRealizationSeconds = Log.MeanRealizationSeconds;
      Report.ElapsedSeconds = Log.ElapsedSeconds;
      Report.MaxAbsoluteError = Log.MaxAbsoluteError;
      Report.MaxRelativeErrorPercent = Log.MaxRelativeErrorPercent;
      Report.MaxVariance = Log.MaxVariance;
      Report.StoppedOnErrorTarget =
          Shared.StoppedOnErrorTarget.load(std::memory_order_relaxed);
      Report.StoppedOnTimeLimit =
          Shared.StoppedOnTimeLimit.load(std::memory_order_relaxed);
      for (const MomentSnapshot &Latest : Collector.LatestFromRank)
        Report.PerProcessorVolumes.push_back(Latest.Moments.sampleVolume());
    }
  };

  EngineOptions Hosting;
  Hosting.Metrics = &Registry;
  if (Injector) {
    // The transports know nothing of fault policy: adapt the injector's
    // verdicts onto the mpsim hook type here. Both backends consult the
    // hook at the same protocol points, so a deterministic plan replays
    // the same per-source fault sequence over threads and sockets.
    Hosting.FaultHook = [Injector](int Source, int Destination, int Tag) {
      const fault::MessageDecision Decision =
          Injector->onSendAttempt(Source, Destination, Tag);
      SendFault Verdict;
      switch (Decision.Action) {
      case fault::MessageAction::Deliver:
        Verdict.Act = SendFault::Action::Deliver;
        break;
      case fault::MessageAction::Drop:
        Verdict.Act = SendFault::Action::Drop;
        break;
      case fault::MessageAction::Duplicate:
        Verdict.Act = SendFault::Action::Duplicate;
        break;
      case fault::MessageAction::Delay:
        Verdict.Act = SendFault::Action::Delay;
        Verdict.DelayNanos = Decision.DelayNanos;
        break;
      case fault::MessageAction::FailSend:
        Verdict.Act = SendFault::Action::Fail;
        break;
      }
      return Verdict;
    };
    Hosting.FaultClock = &Time;
  }
  Result<EngineReport> Hosted =
      runEngine(Config.Transport, RankCount, body, Hosting);

  // Wind the background checkpoint writer down on every path. A simulated
  // collector death abandons the queue — whatever was still queued is
  // lost, exactly as a SIGKILL would lose it — while a normal finish
  // drains it and surfaces the first commit error.
  if (AsyncWriter) {
    if (Shared.Killed.load(std::memory_order_relaxed))
      AsyncWriter->abandon();
    else
      keepFailure(AsyncWriter->stop());
    Report.CoalescedCheckpoints = AsyncWriter->coalescedCount();
  }

  if (!Hosted)
    return Hosted.status();
  const EngineReport &Fleet = Hosted.value();

  // Filled here rather than in the rank-0 epilogue so a run killed by an
  // injected crash still reports how many saves landed before it died.
  // Stop flags and failed-send counts OR/sum in the engine's view: forked
  // workers report over the wire what thread ranks wrote into Shared.
  Report.SavePointCount = Collector.SavePointCount;
  Report.FailedSends = Shared.FailedSends.load(std::memory_order_relaxed) +
                       Fleet.ChildFailedSends;
  Report.StoppedOnTimeLimit |= Fleet.StopOnTimeLimit;
  Report.StoppedOnErrorTarget |= Fleet.StopOnErrorTarget;
  Report.ProcessRanks = Fleet.Ranks;
  Report.DeadWorkers = Collector.DeadWorkers;
  std::sort(Report.DeadWorkers.begin(), Report.DeadWorkers.end());
  Report.Degraded = !Report.DeadWorkers.empty() || Report.FailedSends > 0;
  Report.SimulatedCrash = Shared.Killed.load(std::memory_order_relaxed);
  Report.ResumedFromBackup = Start.ResumedFromBackup;
  Report.RestoredFromShards = Start.RestoredFromShards;
  Report.RngBackendName = rngBackendName(Config.RngBackend);

  Registry.gauge("runner.elapsed_seconds").set(Report.ElapsedSeconds);
  Report.Metrics = Registry.snapshot();
  keepFailure(
      writeFileAtomic(Store.metricsPath(), Report.Metrics.toFileContents()));
  if (Trace)
    keepFailure(writeFileAtomic(Store.tracePath(), Trace->toJson()));

  if (!CollectorFailure.isOk())
    return CollectorFailure;
  return Report;
}

} // namespace parmonc
