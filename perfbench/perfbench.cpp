//===- perfbench/perfbench.cpp - Engine benchmark -------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Measures what a user of runSimulation sees — realizations per second
// delivered into a saved, checkpointed result (the paper's Tcomp) — on four
// fixed routine shapes, and breaks the time down by layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--smoke] [--trace-out <file>]
//             [--inject tamper-means|short-volume]
//
// Every call of runSimulation runs a fixed sample volume in a fresh work
// directory, under DeterministicSchedule with 0/1-indicator observables, so
// the merged moment sums are exact integers and each call's func.dat can be
// compared bit-for-bit with the first call of the same seed. Calls repeat
// until --seconds have passed; every figure is a median over calls.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced calls, runs the per-layer probes, and reports the per-layer
// metrics; spans are recorded by this file only (routine entry/exit on
// every lane, every OnSavePoint, every probe batch) and kept in memory
// until --trace-out writes them. --inject deliberately breaks the output
// (every call after the first, or every call) so the benchmark's own tests
// can show the checks catch it.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//===----------------------------------------------------------------------===//

#include "parmonc/ckpt/CheckpointStore.h"
#include "parmonc/core/ResultsStore.h"
#include "parmonc/core/Runner.h"
#include "parmonc/int128/UInt128.h"
#include "parmonc/mpsim/Wire.h"
#include "parmonc/obs/Metrics.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/SimdKernels.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/stats/EstimatorMatrix.h"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace parmonc;
namespace fs = std::filesystem;

namespace {

int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  const size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + long(Mid), Values.end());
  const double Upper = Values[Mid];
  if (Values.size() % 2 == 1)
    return Upper;
  return (*std::max_element(Values.begin(), Values.begin() + long(Mid)) +
          Upper) /
         2.0;
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  size_t Rank = size_t(std::ceil(Q * double(Values.size())));
  Rank = std::clamp<size_t>(Rank, 1, Values.size()) - 1;
  std::nth_element(Values.begin(), Values.begin() + long(Rank), Values.end());
  return Values[Rank];
}

// --- Workloads ------------------------------------------------------------

enum class WorkloadId { EngineFloor, FineGrainDefault, DrawHeavy, MatrixExchange };

constexpr int DrawHeavyDraws = 1024;
constexpr size_t MatrixRows = 40;
constexpr size_t MatrixColumns = 50;
constexpr size_t MatrixEntries = MatrixRows * MatrixColumns;

/// One routine shape. Why each exists (every one is the only workload that
/// measures some layer):
///  - engine_floor: a one-draw routine with rare exchanges and saves, so
///    per-realization engine overhead and shared-atomic contention between
///    the four thread ranks are what the time is spent on.
///  - fine_grain_default: the same routine under the default RunConfig
///    periods (both 0), the paper's "strictest conditions" — a save-point
///    per collector poll, so the save path dominates. Runnable by hand but
///    left out of BENCHMARK.json: it is fsync-bound, and its CPU time per
///    realization spread 0.25 over ten runs as the host's disk latency
///    moved.
///  - draw_heavy: 1024 scalar Philox draws per realization on one rank with
///    four worker threads — the scalar draw front-end and the threaded
///    fan-out loop. Runnable by hand but left out of BENCHMARK.json: its
///    rate follows the host's CPU-speed swings (up to ~35% between runs a
///    few minutes apart), beyond 0.25, the largest bound a metric may get.
///  - matrix_exchange: a 40x50 matrix per realization over the process
///    transport with a subtotal sent after every realization, sharded async
///    checkpoints and a histogram — serialize, wire, collector merge and
///    checkpoint commits, and the batch fill path of the Philox backend.
struct Workload {
  const char *Name;
  WorkloadId Id;
  int64_t Volume;      ///< realizations per runSimulation call
  int64_t SmokeVolume; ///< the same, in --smoke mode
  double Expectation;  ///< analytic mean of every matrix entry
  double Sigma;        ///< standard deviation of one realization's entry
};

const Workload Workloads[] = {
    {"engine_floor", WorkloadId::EngineFloor, 2'000'000, 20'000, 0.5, 0.5},
    {"fine_grain_default", WorkloadId::FineGrainDefault, 1'000, 40, 0.5, 0.5},
    {"draw_heavy", WorkloadId::DrawHeavy, 60'000, 400, 512.0, 16.0},
    {"matrix_exchange", WorkloadId::MatrixExchange, 4'000, 80, 0.5, 0.5},
};

RunConfig makeConfig(const Workload &Shape, uint64_t SequenceNumber,
                     int64_t Volume, const std::string &WorkDir) {
  RunConfig Config;
  Config.MaxSampleVolume = Volume;
  Config.SequenceNumber = SequenceNumber;
  Config.WorkDir = WorkDir;
  Config.DeterministicSchedule = true;
  Config.ProcessorCount = 4;
  switch (Shape.Id) {
  case WorkloadId::EngineFloor:
    Config.PassPeriodNanos = 10'000'000;
    Config.AveragePeriodNanos = 100'000'000;
    break;
  case WorkloadId::FineGrainDefault:
    break; // the default periods are the point of this workload
  case WorkloadId::DrawHeavy:
    Config.RngBackend = RngBackendKind::Philox;
    Config.ProcessorCount = 1;
    Config.WorkerThreadsPerRank = 4;
    Config.PassPeriodNanos = 10'000'000;
    Config.AveragePeriodNanos = 100'000'000;
    break;
  case WorkloadId::MatrixExchange:
    Config.Rows = MatrixRows;
    Config.Columns = MatrixColumns;
    // Philox, not the LCG: across realizations, the LCG's draws at a fixed
    // offset inside the realization (offsets 400 and 1170, for instance)
    // are biased beyond 6 sigma for most experiment numbers at this volume,
    // which would fail the per-entry check on a correct engine.
    Config.RngBackend = RngBackendKind::Philox;
    Config.Transport = TransportKind::Processes;
    Config.PassPeriodNanos = 0;
    Config.AveragePeriodNanos = 100'000'000;
    Config.CheckpointShards = true;
    Config.CheckpointAsync = true;
    Config.Histograms.push_back(HistogramSpec{0, 0, 0.0, 2.0, 64});
    break;
  }
  return Config;
}

// --- Lanes: the benchmark's own spans around the routine ------------------

struct Span {
  int64_t Start = 0;
  int64_t End = 0;
};

/// One thread that called the routine during one runSimulation call.
struct Lane {
  std::thread::id Thread;
  int64_t FirstCall = 0;
  int64_t DrawNanos = 0;   ///< time inside the routine's own draw calls
  std::vector<Span> Spans; ///< traced calls only
};

/// Everything one runSimulation call left in the benchmark's own
/// instrumentation. Lanes sit in a deque so a registered lane never moves
/// while other threads register theirs.
struct RunRecord {
  bool Traced = false;
  uint64_t Generation = 0;
  size_t ReservePerLane = 0;
  int64_t Entry = 0;
  int64_t Return = 0;
  std::mutex LanesMutex;
  std::deque<Lane> Lanes;
  // Written only by the thread running OnSavePoint (rank 0's), read after
  // runSimulation has joined it.
  bool SawSavePoint = false;
  std::thread::id CollectorThread;
  std::vector<int64_t> SavePointNanos;
};

// Per-thread cache of the lane registered for the current call; the
// generation tells a stale entry (an earlier call on a reused thread) apart.
thread_local uint64_t LaneGeneration = 0;
thread_local Lane *ThisLane = nullptr;
uint64_t LastGeneration = 0;

Lane &laneOfThisThread(RunRecord &Record, int64_t Now) {
  if (LaneGeneration != Record.Generation) {
    std::lock_guard<std::mutex> Guard(Record.LanesMutex);
    Lane &Fresh = Record.Lanes.emplace_back();
    Fresh.Thread = std::this_thread::get_id();
    Fresh.FirstCall = Now;
    if (Record.Traced)
      Fresh.Spans.reserve(Record.ReservePerLane);
    ThisLane = &Fresh;
    LaneGeneration = Record.Generation;
  }
  return *ThisLane;
}

/// The lane of rank 0: the thread that delivers OnSavePoint also runs rank
/// 0's realizations, except under the threaded fan-out, where the rank
/// thread only collects and every lane in the process belongs to rank 0 —
/// the earliest-starting one stands in for it.
const Lane *rankZeroLane(const RunRecord &Record) {
  const Lane *Earliest = nullptr;
  for (const Lane &Candidate : Record.Lanes) {
    if (Record.SawSavePoint && Candidate.Thread == Record.CollectorThread)
      return &Candidate;
    if (!Earliest || Candidate.FirstCall < Earliest->FirstCall)
      Earliest = &Candidate;
  }
  return Earliest;
}

// The routine bodies. Timing, when non-null, receives the time spent in the
// routine's own draw call (traced calls of matrix_exchange).

void indicatorBody(RandomSource &Source, double *Out, Lane *) {
  Out[0] = Source.nextUniform() < 0.5 ? 1.0 : 0.0;
}

void drawHeavyBody(RandomSource &Source, double *Out, Lane *) {
  int Below = 0;
  for (int Draw = 0; Draw < DrawHeavyDraws; ++Draw)
    Below += Source.nextUniform() < 0.5 ? 1 : 0;
  Out[0] = double(Below);
}

void matrixBody(RandomSource &Source, double *Out, Lane *Timing) {
  const int64_t Start = Timing ? nowNanos() : 0;
  Source.fillUniforms(Out, MatrixEntries);
  if (Timing)
    Timing->DrawNanos += nowNanos() - Start;
  for (size_t Index = 0; Index < MatrixEntries; ++Index)
    Out[Index] = Out[Index] < 0.5 ? 1.0 : 0.0;
}

template <typename Body>
RealizationFn instrument(Body Realize, RunRecord &Record) {
  return [Realize, &Record](RandomSource &Source, double *Out) {
    if (!Record.Traced) {
      // Untraced: one thread-local compare per call, a clock read only on
      // a lane's first call (for setup_s).
      if (LaneGeneration != Record.Generation)
        (void)laneOfThisThread(Record, nowNanos());
      Realize(Source, Out, nullptr);
      return;
    }
    const int64_t Start = nowNanos();
    Lane &Mine = laneOfThisThread(Record, Start);
    Realize(Source, Out, &Mine);
    Mine.Spans.push_back(Span{Start, nowNanos()});
  };
}

RealizationFn makeRoutine(const Workload &Shape, RunRecord &Record) {
  switch (Shape.Id) {
  case WorkloadId::DrawHeavy:
    return instrument(drawHeavyBody, Record);
  case WorkloadId::MatrixExchange:
    return instrument(matrixBody, Record);
  default:
    return instrument(indicatorBody, Record);
  }
}

// --- Output checks --------------------------------------------------------

enum class Injection { None, TamperMeans, ShortVolume };

/// Overwrites func.dat with every mean moved to the next representable
/// double, unsealed (readMeans still accepts unsealed files). Only the
/// bit-equality check can notice a change this small.
void tamperMeans(const ResultsStore &Store, const std::vector<double> &Means) {
  std::ofstream Out(Store.meansPath(), std::ios::trunc);
  char Buffer[64];
  for (double Mean : Means) {
    std::snprintf(Buffer, sizeof(Buffer), "%.17g\n",
                  std::nextafter(Mean, 2.0 * Mean + 1.0));
    Out << Buffer;
  }
}

/// Volume the final checkpoint restores to, from the legacy checkpoint.dat
/// or the sharded manifest (base + latest shard of every rank).
Result<int64_t> restoredVolume(const ResultsStore &Store,
                               const RunConfig &Config) {
  if (!Config.CheckpointShards) {
    Result<MomentSnapshot> Snapshot = Store.readSnapshot(Store.checkpointPath());
    if (!Snapshot)
      return Snapshot.status();
    return Snapshot.value().Moments.sampleVolume();
  }
  Result<ckpt::CheckpointStore::RestoredGeneration> Restored =
      ckpt::CheckpointStore(Store.checkpointDir()).restoreWithFallback();
  if (!Restored)
    return Restored.status();
  if (Restored.value().FromBackup)
    return ioError("the current manifest was rejected: " +
                   Restored.value().PrimaryError);
  int64_t Volume = Restored.value().Source.Base.Volume;
  for (const ckpt::ShardEntry &Shard : Restored.value().Source.Shards)
    Volume += Shard.Volume;
  return Volume;
}

/// Checks one call's output; returns an empty string when it passes.
/// \p Means receives func.dat's means; \p Reference, when non-null, holds
/// the first call's means for the same seed, which must match bit for bit.
std::string checkRun(const Workload &Shape, const RunConfig &Config,
                     const RunReport &Report, int64_t Expected,
                     const std::vector<double> *Reference,
                     std::vector<double> &Means) {
  if (Report.TotalSampleVolume != Expected)
    return "total sample volume " + std::to_string(Report.TotalSampleVolume) +
           ", expected " + std::to_string(Expected);
  int64_t PerProcessor = 0;
  for (int64_t Volume : Report.PerProcessorVolumes)
    PerProcessor += Volume;
  if (PerProcessor != Expected)
    return "per-processor volumes sum to " + std::to_string(PerProcessor);
  if (Report.Degraded)
    return "the run finished degraded";
  // A send that failed on any rank has already marked the run degraded
  // (forked ranks report theirs at exit). Retries are counted by rank 0
  // alone under the process transport, so one inside a forked rank is not
  // seen here.
  if (const int64_t *Retries = Report.Metrics.counterValue("comm.send_retries");
      Retries && *Retries != 0)
    return "comm.send_retries is " + std::to_string(*Retries);

  const ResultsStore Store(Config.WorkDir);
  Result<std::vector<double>> Read = Store.readMeans(Config.Rows, Config.Columns);
  if (!Read)
    return "func.dat: " + Read.status().toString();
  Means = std::move(Read).value();
  if (Reference && (Reference->size() != Means.size() ||
                    std::memcmp(Reference->data(), Means.data(),
                                Means.size() * sizeof(double)) != 0))
    return "func.dat means differ from the first call of this seed";
  const double Limit = 6.0 * Shape.Sigma / std::sqrt(double(Expected));
  for (size_t Index = 0; Index < Means.size(); ++Index)
    if (!(std::fabs(Means[Index] - Shape.Expectation) <= Limit))
      return "mean of entry " + std::to_string(Index) + " is " +
             std::to_string(Means[Index]) + ", outside 6 sigma of " +
             std::to_string(Shape.Expectation);

  Result<int64_t> Restored = restoredVolume(Store, Config);
  if (!Restored)
    return "checkpoint: " + Restored.status().toString();
  if (Restored.value() != Expected)
    return "checkpoint restores " + std::to_string(Restored.value()) +
           " realizations, expected " + std::to_string(Expected);
  return std::string();
}

// --- One runSimulation call -----------------------------------------------

double cpuSecondsSelfAndChildren() {
  double Seconds = 0.0;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage Usage{};
    getrusage(Who, &Usage);
    Seconds += double(Usage.ru_utime.tv_sec + Usage.ru_stime.tv_sec) +
               double(Usage.ru_utime.tv_usec + Usage.ru_stime.tv_usec) * 1e-6;
  }
  return Seconds;
}

/// Restarts this process's resident high-water mark (VmHWM) at its current
/// RSS, so the next peakResidentMb() covers one call only.
void resetPeakResident() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of this process image. Unlike getrusage's ru_maxrss it starts
/// afresh at exec, so the launcher's own footprint never leaks in.
double peakResidentMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

using MetricMap = std::map<std::string, double>;

struct CallResult {
  std::string Failure; ///< empty when every check passed
  double WallSeconds = 0.0;
  double CpuSeconds = 0.0;
  double SetupSeconds = 0.0;
  double PeakRssMb = 0.0;
  int64_t Volume = 0;
  std::vector<double> Means;
  MetricMap Layers; ///< traced calls only
  double LedgerOverheadNanos = 0.0; ///< traced calls only
  std::unique_ptr<RunRecord> Record;
};

/// Largest mean cost, per routine call, of the benchmark's own span
/// recording inside the engine's timing window (two clock reads and a
/// vector append); the stated tolerance of the ledger check below.
constexpr int64_t LedgerToleranceNanosPerCall = 1000;

/// Per-layer figures of one traced call. Rank 0's lane splits the call's
/// wall time into setup, routine self time, gaps and finalize; that sum
/// equals the wall time by construction, so what is checked is each term.
/// The self-time term must agree with the engine's own clock: the engine
/// times every routine call it makes (runner.realization, covering the
/// ranks hosted in this process), and each of those windows contains
/// exactly one span of ours. So the span count must equal the engine's
/// count, and the engine's sum may exceed ours by at most the recording
/// cost, LedgerToleranceNanosPerCall per call. Spans must also not overlap
/// and setup and finalize must not be negative. Otherwise the call fails.
/// \p OverheadNanos receives the measured excess per call.
std::string layerFigures(const Workload &Shape, const RunConfig &Config,
                         const RunReport &Report, const RunRecord &Record,
                         MetricMap &Out, double &OverheadNanos) {
  const Lane *Zero = rankZeroLane(Record);
  if (!Zero || Zero->Spans.empty())
    return "ledger: no routine span on rank 0's lane";
  const int64_t Wall = Record.Return - Record.Entry;
  const int64_t Setup = Zero->Spans.front().Start - Record.Entry;
  const int64_t Finalize = Record.Return - Zero->Spans.back().End;
  if (Setup < 0 || Finalize < 0)
    return "ledger: rank 0's routine spans lie outside the call";
  std::vector<double> SelfTimes;
  std::vector<double> CollectorGaps;
  SelfTimes.reserve(Zero->Spans.size());
  CollectorGaps.reserve(Zero->Spans.size());
  for (size_t Index = 0; Index < Zero->Spans.size(); ++Index) {
    const Span &Current = Zero->Spans[Index];
    SelfTimes.push_back(double(Current.End - Current.Start));
    if (Index > 0) {
      const int64_t Gap = Current.Start - Zero->Spans[Index - 1].End;
      if (Gap < 0)
        return "ledger: overlapping routine spans";
      CollectorGaps.push_back(double(Gap));
    }
  }
  // Spans recorded in this process must cover exactly the realizations of
  // the ranks hosted here: every rank under the thread transport, rank 0
  // alone under the process transport.
  const int64_t HostedVolume =
      Config.Transport == TransportKind::Processes
          ? Report.PerProcessorVolumes.at(0)
          : Report.NewSampleVolume;
  if (Config.WorkerThreadsPerRank == 1 &&
      int64_t(Zero->Spans.size()) != Report.PerProcessorVolumes.at(0))
    return "ledger: " + std::to_string(Zero->Spans.size()) +
           " routine spans on rank 0's lane for " +
           std::to_string(Report.PerProcessorVolumes.at(0)) +
           " realizations of rank 0";

  int64_t AllSelf = 0;
  int64_t Calls = 0;
  int64_t DrawNanos = 0;
  std::vector<double> WorkerGaps;
  for (const Lane &Each : Record.Lanes) {
    Calls += int64_t(Each.Spans.size());
    DrawNanos += Each.DrawNanos;
    for (size_t Index = 0; Index < Each.Spans.size(); ++Index) {
      AllSelf += Each.Spans[Index].End - Each.Spans[Index].Start;
      if (&Each != Zero && Index > 0)
        WorkerGaps.push_back(
            double(Each.Spans[Index].Start - Each.Spans[Index - 1].End));
    }
  }
  const obs::LatencySummary *EngineTimed =
      Report.Metrics.latencySummary("runner.realization");
  if (!EngineTimed || EngineTimed->Count != HostedVolume ||
      Calls != HostedVolume)
    return "ledger: " + std::to_string(Calls) + " routine spans, " +
           std::to_string(EngineTimed ? EngineTimed->Count : 0) +
           " engine-timed calls, " + std::to_string(HostedVolume) +
           " hosted realizations";
  const int64_t Excess = EngineTimed->SumNanos - AllSelf;
  OverheadNanos = double(Excess) / double(Calls);
  if (Excess < 0 || Excess > LedgerToleranceNanosPerCall * Calls)
    return "ledger: the engine timed " +
           std::to_string(EngineTimed->SumNanos) + " ns of routine calls, " +
           "the spans inside them " + std::to_string(AllSelf) + " ns";
  const double Lanes = double(Record.Lanes.size());
  const double Volume = double(Report.NewSampleVolume);
  Out["core.engine_share"] = 1.0 - double(AllSelf) / (double(Wall) * Lanes);
  Out["core.worker_gap_ns.p50"] = quantile(WorkerGaps, 0.50);
  Out["core.worker_gap_ns.p99"] = quantile(WorkerGaps, 0.99);
  Out["core.collector_gap_us.p50"] = quantile(CollectorGaps, 0.50) * 1e-3;
  Out["core.collector_gap_us.p99"] = quantile(CollectorGaps, 0.99) * 1e-3;
  Out["core.routine_us.p50"] = quantile(SelfTimes, 0.50) * 1e-3;
  Out["core.finalize_ms"] = double(Finalize) * 1e-6;
  // Save-points are made by rank 0's collector alone, so the count is
  // complete under both transports.
  Out["core.save_points_per_1k"] = double(Report.SavePointCount) * 1e3 / Volume;
  std::vector<double> Intervals;
  for (size_t Index = 1; Index < Record.SavePointNanos.size(); ++Index)
    Intervals.push_back(
        double(Record.SavePointNanos[Index] - Record.SavePointNanos[Index - 1]));
  Out["core.save_interval_ms.p50"] = quantile(Intervals, 0.50) * 1e-6;

  const obs::MetricsSnapshot &Engine = Report.Metrics;
  auto latencyMean = [&](const char *Name) {
    const obs::LatencySummary *Summary = Engine.latencySummary(Name);
    return Summary ? Summary->meanNanos() : 0.0;
  };
  auto latencyP99 = [&](const char *Name) {
    const obs::LatencySummary *Summary = Engine.latencySummary(Name);
    return Summary ? double(Summary->quantileUpperNanos(0.99)) : 0.0;
  };
  auto counter = [&](const char *Name) {
    const int64_t *Value = Engine.counterValue(Name);
    return Value ? double(*Value) : 0.0;
  };
  Out["core.save_point_us.mean"] = latencyMean("runner.save_point") * 1e-3;
  Out["core.save_point_us.p99"] = latencyP99("runner.save_point") * 1e-3;
  Out["core.snapshot_write_us.mean"] =
      latencyMean("store.snapshot_write") * 1e-3;
  Out["ckpt.save_stall_us.mean"] = latencyMean("ckpt.save_stall") * 1e-3;
  Out["ckpt.save_stall_us.p99"] = latencyP99("ckpt.save_stall") * 1e-3;
  Out["ckpt.coalesced_saves"] = double(Report.CoalescedCheckpoints);
  // Under the process transport the comm.* counters are rank 0's only; the
  // router's transport.* counters see every rank's frames. Under the
  // thread transport all ranks share one registry, so comm.* is complete.
  const bool Processes = Config.Transport == TransportKind::Processes;
  Out["mpsim.frames_per_realization"] =
      counter(Processes ? "transport.frames_routed" : "comm.messages_sent") /
      Volume;
  Out["mpsim.bytes_per_realization"] =
      counter(Processes ? "transport.bytes_routed" : "comm.bytes_sent") /
      Volume;
  Out["rng.fill_draw_ns"] =
      Shape.Id == WorkloadId::MatrixExchange
          ? double(DrawNanos) / (double(Calls) * double(MatrixEntries))
          : 0.0;
  return std::string();
}

/// Bytes of the last committed checkpoint: checkpoint.dat, or the base
/// shard plus every shard the final manifest references.
double checkpointBytesPerCommit(const RunConfig &Config) {
  const ResultsStore Store(Config.WorkDir);
  std::error_code Error;
  if (!Config.CheckpointShards) {
    const auto Size = fs::file_size(Store.checkpointPath(), Error);
    return Error ? 0.0 : double(Size);
  }
  Result<ckpt::CheckpointStore::RestoredGeneration> Restored =
      ckpt::CheckpointStore(Store.checkpointDir()).restoreWithFallback();
  if (!Restored)
    return 0.0;
  double Bytes = double(Restored.value().Source.Base.Bytes);
  for (const ckpt::ShardEntry &Shard : Restored.value().Source.Shards)
    Bytes += double(Shard.Bytes);
  return Bytes;
}

struct CallRequest {
  const Workload *Shape = nullptr;
  uint64_t SequenceNumber = 0;
  int64_t Volume = 0;
  fs::path Dir;
  bool Traced = false;
  std::optional<TransportKind> TransportOverride;
  Injection Inject = Injection::None;
  const std::vector<double> *Reference = nullptr;
};

CallResult runCall(const CallRequest &Request) {
  CallResult Outcome;
  std::error_code Error;
  fs::remove_all(Request.Dir, Error);
  fs::create_directories(Request.Dir, Error);
  if (Error) {
    Outcome.Failure = "cannot create " + Request.Dir.string();
    return Outcome;
  }
  // A short-volume injection runs one realization fewer than is checked.
  const int64_t RunVolume =
      Request.Volume - (Request.Inject == Injection::ShortVolume ? 1 : 0);
  RunConfig Config = makeConfig(*Request.Shape, Request.SequenceNumber,
                                RunVolume, Request.Dir.string());
  if (Request.TransportOverride)
    Config.Transport = *Request.TransportOverride;

  Outcome.Record = std::make_unique<RunRecord>();
  RunRecord &Record = *Outcome.Record;
  Record.Traced = Request.Traced;
  Record.Generation = ++LastGeneration;
  Record.ReservePerLane =
      size_t(RunVolume / (Config.ProcessorCount * Config.WorkerThreadsPerRank)) +
      1024;
  Config.OnSavePoint = [&Record](const RunProgress &) {
    const int64_t Now = nowNanos();
    if (!Record.SawSavePoint) {
      Record.CollectorThread = std::this_thread::get_id();
      Record.SawSavePoint = true;
    }
    if (Record.Traced)
      Record.SavePointNanos.push_back(Now);
  };
  const RealizationFn Routine = makeRoutine(*Request.Shape, Record);

  resetPeakResident();
  const double CpuBefore = cpuSecondsSelfAndChildren();
  Record.Entry = nowNanos();
  Result<RunReport> Ran = runSimulation(Routine, Config);
  Record.Return = nowNanos();
  Outcome.CpuSeconds = cpuSecondsSelfAndChildren() - CpuBefore;
  Outcome.PeakRssMb = peakResidentMb();
  Outcome.WallSeconds = double(Record.Return - Record.Entry) * 1e-9;
  Outcome.Volume = RunVolume;

  if (!Ran) {
    Outcome.Failure = "runSimulation: " + Ran.status().toString();
  } else {
    const RunReport &Report = Ran.value();
    Outcome.Volume = Report.NewSampleVolume;
    if (const Lane *Zero = rankZeroLane(Record))
      Outcome.SetupSeconds = double(Zero->FirstCall - Record.Entry) * 1e-9;
    // The first call of the seed stays intact: it is the reference.
    if (Request.Inject == Injection::TamperMeans && Request.Reference) {
      const ResultsStore Store(Config.WorkDir);
      if (Result<std::vector<double>> Means =
              Store.readMeans(Config.Rows, Config.Columns))
        tamperMeans(Store, Means.value());
    }
    Outcome.Failure = checkRun(*Request.Shape, Config, Report, Request.Volume,
                               Request.Reference, Outcome.Means);
    if (Outcome.Failure.empty() && Request.Traced) {
      Outcome.Failure = layerFigures(*Request.Shape, Config, Report, Record,
                                     Outcome.Layers, Outcome.LedgerOverheadNanos);
      Outcome.Layers["ckpt.shard_bytes_per_commit"] =
          checkpointBytesPerCommit(Config);
    }
  }
  fs::remove_all(Request.Dir, Error);
  return Outcome;
}

// --- Probes: the public functions of each layer on the same shapes --------

struct NamedSpan {
  std::string Name;
  int64_t Start = 0;
  int64_t End = 0;
};

volatile uint64_t ProbeSink = 0;

/// Runs \p Batches batches of \p Inner calls of \p Op, recording a span per
/// batch; returns the median nanoseconds per call.
template <typename OpT>
double probeNanos(const char *Name, int Batches, int Inner, OpT &&Op,
                  std::vector<NamedSpan> &Spans) {
  std::vector<double> PerCall;
  for (int Batch = 0; Batch < Batches; ++Batch) {
    const int64_t Start = nowNanos();
    for (int Call = 0; Call < Inner; ++Call)
      Op();
    const int64_t End = nowNanos();
    Spans.push_back(NamedSpan{Name, Start, End});
    PerCall.push_back(double(End - Start) / double(Inner));
  }
  return median(PerCall);
}

/// Nanoseconds per operation with \p Threads threads running \p Ops
/// operations each on one shared instrument.
template <typename OpT>
double contendedNanos(const char *Name, int Threads, int Ops, OpT &&Op,
                      std::vector<NamedSpan> &Spans) {
  std::vector<double> PerOp;
  for (int Repeat = 0; Repeat < 5; ++Repeat) {
    std::atomic<int> Ready{0};
    std::atomic<bool> Go{false};
    std::vector<std::thread> Pool;
    for (int Thread = 0; Thread < Threads; ++Thread)
      Pool.emplace_back([&] {
        Ready.fetch_add(1);
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        for (int Index = 0; Index < Ops; ++Index)
          Op(Index);
      });
    while (Ready.load() < Threads)
      std::this_thread::yield();
    const int64_t Start = nowNanos();
    Go.store(true, std::memory_order_release);
    for (std::thread &Worker : Pool)
      Worker.join();
    const int64_t End = nowNanos();
    Spans.push_back(NamedSpan{Name, Start, End});
    PerOp.push_back(double(End - Start) / double(Ops));
  }
  return median(PerOp);
}

/// A 40x50 snapshot shaped like one matrix_exchange subtotal, filled from
/// the seed's own stream.
MomentSnapshot probeSnapshot(uint64_t SequenceNumber, int Realizations) {
  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = SequenceNumber;
  Snapshot.Moments = EstimatorMatrix(MatrixRows, MatrixColumns);
  Snapshot.Histograms.emplace_back(0.0, 2.0, 64);
  Lcg128 Stream =
      StreamHierarchy().makeStream(StreamCoordinates{SequenceNumber, 0, 0});
  std::vector<double> Out(MatrixEntries);
  for (int Realization = 0; Realization < Realizations; ++Realization) {
    Stream.fillUniforms(Out.data(), Out.size());
    for (double &Value : Out)
      Value = Value < 0.5 ? 1.0 : 0.0;
    Snapshot.Moments.accumulate(Out.data());
    Snapshot.Histograms[0].add(Out[0]);
  }
  return Snapshot;
}

MetricMap runProbes(uint64_t SequenceNumber, const fs::path &Dir, bool Smoke,
                    std::vector<NamedSpan> &Spans, std::string &Failure) {
  MetricMap Out;
  const int Scale = Smoke ? 10 : 1;
  std::error_code Error;
  fs::remove_all(Dir, Error);
  fs::create_directories(Dir, Error);

  const MomentSnapshot Big = probeSnapshot(SequenceNumber, 64);
  const std::vector<uint8_t> Bytes = Big.toBytes();
  Out["core.snapshot_encode_us.40x50"] =
      probeNanos("probe.snapshot_encode", 15, 40 / Scale + 1,
                 [&] { ProbeSink = ProbeSink + Big.toBytes().size(); }, Spans) *
      1e-3;
  Out["core.snapshot_decode_us.40x50"] =
      probeNanos("probe.snapshot_decode", 15, 40 / Scale + 1, [&] {
        Result<MomentSnapshot> Decoded = MomentSnapshot::fromBytes(Bytes);
        ProbeSink = ProbeSink + uint64_t(Decoded.isOk());
      }, Spans) * 1e-3;

  const ResultsStore Store((Dir / "store").string());
  if (Status Prepared = Store.prepareDirectories(); !Prepared)
    Failure = "probe store: " + Prepared.toString();
  RunLogInfo Log;
  Log.ProcessorCount = 4;
  Log.SequenceNumber = SequenceNumber;
  EstimatorMatrix Small(1, 1);
  for (int Index = 0; Index < 64; ++Index) {
    const double Value = Index % 2;
    Small.accumulate(&Value);
  }
  for (const auto &[Name, Moments] :
       {std::pair<const char *, const EstimatorMatrix *>{
            "core.write_results_us.1x1", &Small},
        {"core.write_results_us.40x50", &Big.Moments}}) {
    Log.TotalSampleVolume = Log.NewSampleVolume = Moments->sampleVolume();
    Out[Name] = probeNanos(Name, 12 / Scale + 1, 1, [&, Moments = Moments] {
                  if (Status Written = Store.writeResults(*Moments, Log, 3.0);
                      !Written)
                    Failure = "probe writeResults: " + Written.toString();
                }, Spans) * 1e-3;
  }

  const StreamHierarchy Hierarchy;
  RealizationCursor Cursor(Hierarchy, StreamCoordinates{SequenceNumber, 0, 0});
  Out["rng.lcg_stream_setup_ns"] =
      probeNanos("probe.lcg_stream_setup", 15, 20000 / Scale, [&] {
        ProbeSink = ProbeSink + Cursor.beginRealization().state().low();
      }, Spans);
  // The LCG's batch kernel (Lcg128::batchKernelName) over one
  // matrix_exchange-sized fill, per draw; no gated workload draws through
  // it, so this probe is what keeps it in view.
  Lcg128 FillStream = Cursor.beginRealization();
  std::vector<double> FillOut(MatrixEntries);
  Out["rng.lcg_fill_draw_ns"] =
      probeNanos("probe.lcg_fill_draw", 15, 200 / Scale, [&] {
        FillStream.fillUniforms(FillOut.data(), FillOut.size());
        ProbeSink = ProbeSink + uint64_t(FillOut[0] < 0.5);
      }, Spans) / double(MatrixEntries);
  uint64_t Realization = 0;
  const LeapConfig Leaps;
  Out["rng.philox_stream_setup_ns"] =
      probeNanos("probe.philox_stream_setup", 15, 20000 / Scale, [&] {
        ProbeSink = ProbeSink +
                    Philox::streamFor(StreamCoordinates{SequenceNumber, 0,
                                                        Realization++},
                                      Leaps)
                        .position()
                        .low();
      }, Spans);
  // The draw_heavy routine body on one thread, per draw. The stream is
  // reached through a volatile pointer so the compiler cannot devirtualize
  // the calls a realization routine pays for.
  Philox ScalarStream =
      Philox::streamFor(StreamCoordinates{SequenceNumber, 0, 0}, Leaps);
  RandomSource *volatile Opaque = &ScalarStream;
  Out["rng.scalar_draw_ns"] =
      probeNanos("probe.scalar_draw", 15, 100 / Scale + 1, [&] {
        double Below = 0.0;
        drawHeavyBody(*Opaque, &Below, nullptr);
        ProbeSink = ProbeSink + uint64_t(Below);
      }, Spans) / DrawHeavyDraws;

  EstimatorMatrix One(1, 1);
  const double Indicator = 1.0;
  Out["stats.accumulate_ns.1x1"] =
      probeNanos("probe.accumulate_1x1", 15, 50000 / Scale,
                 [&] { One.accumulate(&Indicator); }, Spans);
  EstimatorMatrix Wide(MatrixRows, MatrixColumns);
  const std::vector<double> Row = Big.Moments.valueSums();
  Out["stats.accumulate_ns.40x50"] =
      probeNanos("probe.accumulate_40x50", 15, 200 / Scale,
                 [&] { Wide.accumulate(Row.data()); }, Spans);
  Out["stats.merge_us.40x50"] =
      probeNanos("probe.merge_40x50", 15, 200 / Scale, [&] {
        if (Status Merged = Wide.merge(Big.Moments); !Merged)
          Failure = "probe merge: " + Merged.toString();
      }, Spans) * 1e-3;

  Frame Outgoing;
  Outgoing.Kind = FrameKind::Data;
  Outgoing.A = 1;
  Outgoing.C = TagSubtotal;
  Outgoing.Payload = Bytes;
  const std::vector<uint8_t> Encoded = encodeFrame(Outgoing);
  Out["mpsim.wire_encode_us"] =
      probeNanos("probe.wire_encode", 15, 40 / Scale + 1, [&] {
        ProbeSink = ProbeSink + encodeFrame(Outgoing).size();
      }, Spans) * 1e-3;
  Out["mpsim.wire_decode_us"] =
      probeNanos("probe.wire_decode", 15, 40 / Scale + 1, [&] {
        FrameDecoder Decoder;
        Decoder.feed(Encoded.data(), Encoded.size());
        Result<std::optional<Frame>> Next = Decoder.next();
        if (!Next || !Next.value())
          Failure = "probe wire decode failed";
      }, Spans) * 1e-3;

  // Synchronous commits of a matrix_exchange-sized generation: four rank
  // shards (published untimed) plus the base, then the timed commit.
  const ckpt::CheckpointStore Ckpt((Dir / "ckpt").string());
  if (Status Prepared = Ckpt.prepareDirectories(); !Prepared)
    Failure = "probe ckpt: " + Prepared.toString();
  const std::string ShardBody = Big.toFileContents();
  MomentSnapshot Empty = Big;
  Empty.Moments.reset();
  ckpt::CheckpointStore::CommitRequest Commit;
  Commit.SequenceNumber = SequenceNumber;
  Commit.RankCount = 4;
  Commit.BaseBody = Empty.toFileContents();
  std::vector<double> CommitMillis;
  for (int Generation = 1; Generation <= 12 / Scale + 1; ++Generation) {
    Commit.Generation = Generation;
    Commit.Shards.clear();
    for (int Rank = 0; Rank < 4; ++Rank) {
      Result<ckpt::ShardEntry> Shard = Ckpt.writeShard(
          Rank, SequenceNumber, Generation, ShardBody,
          Big.Moments.sampleVolume());
      if (!Shard) {
        Failure = "probe writeShard: " + Shard.status().toString();
        break;
      }
      Commit.Shards.push_back(Shard.value());
    }
    const int64_t Start = nowNanos();
    if (Status Committed = Ckpt.commit(Commit); !Committed)
      Failure = "probe commit: " + Committed.toString();
    const int64_t End = nowNanos();
    Spans.push_back(NamedSpan{"probe.ckpt_commit", Start, End});
    CommitMillis.push_back(double(End - Start) * 1e-6);
  }
  Out["ckpt.commit_ms.40x50"] = median(CommitMillis);

  obs::Counter Shared;
  Out["obs.counter_add_ns.4t"] = contendedNanos(
      "probe.counter_add_4t", 4, 200000 / Scale,
      [&](int) { Shared.add(); }, Spans);
  obs::LatencyHistogram Histogram;
  Out["obs.latency_record_ns.4t"] = contendedNanos(
      "probe.latency_record_4t", 4, 200000 / Scale,
      [&](int Index) { Histogram.recordNanos(100 + Index % 4096); }, Spans);

  fs::remove_all(Dir, Error);
  return Out;
}

// --- Reporting ------------------------------------------------------------

std::string fileSystemName(const fs::path &Path) {
  struct statfs Info{};
  if (statfs(Path.c_str(), &Info) != 0)
    return "unknown";
  switch (uint64_t(Info.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x01021994:
    return "tmpfs";
  case 0x794C7630:
    return "overlayfs";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  case 0x6969:
    return "nfs";
  case 0x01021997:
    return "9p";
  case 0x65735546:
    return "fuse";
  case 0xF2F52010:
    return "f2fs";
  default: {
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), "0x%llx",
                  (unsigned long long)Info.f_type);
    return Buffer;
  }
  }
}

std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "0";
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  return Buffer;
}

struct Options {
  const Workload *Shape = nullptr;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  bool Smoke = false;
  Injection Inject = Injection::None;
  fs::path WorkDir;
  std::string TraceOut;
};

struct MetricUnit {
  const char *Name;
  const char *Unit;
};

// Every metric a run reports, with its unit; BENCHMARK.json lists the same
// names (perfbench/selftest.py checks that the two agree).
const MetricUnit EndToEndMetrics[] = {
    {"realizations_per_s", "1/s"},
    {"cpu_us_per_realization", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricUnit PerLayerMetrics[] = {
    {"core.engine_share", "ratio"},
    {"core.worker_gap_ns.p50", "ns"},
    {"core.worker_gap_ns.p99", "ns"},
    {"core.collector_gap_us.p50", "us"},
    {"core.collector_gap_us.p99", "us"},
    {"core.routine_us.p50", "us"},
    {"core.save_points_per_1k", "count"},
    {"core.save_point_us.mean", "us"},
    {"core.save_point_us.p99", "us"},
    {"core.snapshot_write_us.mean", "us"},
    {"core.save_interval_ms.p50", "ms"},
    {"core.finalize_ms", "ms"},
    {"core.snapshot_encode_us.40x50", "us"},
    {"core.snapshot_decode_us.40x50", "us"},
    {"core.write_results_us.1x1", "us"},
    {"core.write_results_us.40x50", "us"},
    {"rng.scalar_draw_ns", "ns"},
    {"rng.fill_draw_ns", "ns"},
    {"rng.lcg_fill_draw_ns", "ns"},
    {"rng.lcg_stream_setup_ns", "ns"},
    {"rng.philox_stream_setup_ns", "ns"},
    {"stats.accumulate_ns.1x1", "ns"},
    {"stats.accumulate_ns.40x50", "ns"},
    {"stats.merge_us.40x50", "us"},
    {"mpsim.frames_per_realization", "count"},
    {"mpsim.bytes_per_realization", "B"},
    {"mpsim.wire_encode_us", "us"},
    {"mpsim.wire_decode_us", "us"},
    {"ckpt.save_stall_us.mean", "us"},
    {"ckpt.save_stall_us.p99", "us"},
    {"ckpt.shard_bytes_per_commit", "B"},
    {"ckpt.coalesced_saves", "count"},
    {"ckpt.commit_ms.40x50", "ms"},
    {"obs.counter_add_ns.4t", "ns"},
    {"obs.latency_record_ns.4t", "ns"},
    {"bench.trace_overhead", "ratio"},
};

void writeTrace(const std::string &Path, const RunRecord *Record,
                const std::vector<NamedSpan> &Probes) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return;
  Out << "{\"traceEvents\":[";
  bool First = true;
  auto event = [&](const std::string &Name, int Tid, int64_t Start,
                   int64_t End) {
    Out << (First ? "" : ",") << "{\"name\":\"" << Name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << Tid
        << ",\"ts\":" << jsonNumber(double(Start) * 1e-3)
        << ",\"dur\":" << jsonNumber(double(End - Start) * 1e-3) << "}";
    First = false;
  };
  for (const NamedSpan &Probe : Probes)
    event(Probe.Name, 0, Probe.Start, Probe.End);
  if (Record) {
    event("runSimulation", 1, Record->Entry, Record->Return);
    const Lane *Zero = rankZeroLane(*Record);
    int Tid = 2;
    // Rank 0's lane first; at most 5000 routine spans per lane keep the
    // file small enough to open in a trace viewer.
    std::vector<const Lane *> Order{Zero};
    for (const Lane &Each : Record->Lanes)
      if (&Each != Zero)
        Order.push_back(&Each);
    for (const Lane *Each : Order) {
      if (!Each)
        continue;
      const size_t Count = std::min<size_t>(Each->Spans.size(), 5000);
      for (size_t Index = 0; Index < Count; ++Index)
        event("routine", Tid, Each->Spans[Index].Start,
              Each->Spans[Index].End);
      ++Tid;
    }
    for (int64_t At : Record->SavePointNanos)
      event("OnSavePoint", 1, At, At);
  }
  Out << "]}\n";
}

int runBenchmark(const Options &Opts) {
  const Workload &Shape = *Opts.Shape;
  // The hierarchy's default leaps give 2^10 experiment subsequences.
  const uint64_t SequenceNumber = Opts.Seed % 1024;
  const int64_t Volume = Opts.Smoke ? Shape.SmokeVolume : Shape.Volume;
  std::error_code Error;
  fs::create_directories(Opts.WorkDir, Error);
  if (Error) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 Opts.WorkDir.c_str());
    return 2;
  }

  std::printf("# host {\"nproc\": %u, \"build_type\": \"%s\", "
              "\"rngsimd_backend\": \"%s\", \"batch_kernel\": \"%s\", "
              "\"native_int128\": %s, \"workdir_fs\": \"%s\"}\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              rngsimd::backendName(rngsimd::CompiledBackend),
              Lcg128::batchKernelName(),
              UInt128::hasNativeMultiply() ? "true" : "false",
              fileSystemName(Opts.WorkDir).c_str());
  std::printf("# run {\"workload\": \"%s\", \"seed\": %llu, "
              "\"sequence_number\": %llu, \"volume\": %lld, \"trace\": %d}\n",
              Shape.Name, (unsigned long long)Opts.Seed,
              (unsigned long long)SequenceNumber, (long long)Volume,
              Opts.Trace ? 1 : 0);

  int64_t Attempted = 0;
  int64_t Failed = 0;
  int CallIndex = 0;
  std::vector<double> Reference;
  auto call = [&](bool Traced, std::optional<TransportKind> Transport =
                                   std::nullopt) {
    CallRequest Request;
    Request.Shape = &Shape;
    Request.SequenceNumber = SequenceNumber;
    Request.Volume = Volume;
    Request.Dir = Opts.WorkDir / ("call-" + std::to_string(CallIndex++));
    Request.Traced = Traced;
    Request.TransportOverride = Transport;
    Request.Inject = Opts.Inject;
    Request.Reference = Reference.empty() ? nullptr : &Reference;
    CallResult Outcome = runCall(Request);
    ++Attempted;
    if (!Outcome.Failure.empty()) {
      ++Failed;
      std::fprintf(stderr, "perfbench: %s call %d failed: %s\n", Shape.Name,
                   CallIndex - 1, Outcome.Failure.c_str());
    } else if (Reference.empty()) {
      Reference = Outcome.Means;
    }
    return Outcome;
  };

  std::vector<NamedSpan> ProbeSpans;
  MetricMap Probes;
  if (Opts.Trace) {
    std::string ProbeFailure;
    Probes = runProbes(SequenceNumber, Opts.WorkDir / "probes", Opts.Smoke,
                       ProbeSpans, ProbeFailure);
    if (!ProbeFailure.empty()) {
      ++Failed;
      std::fprintf(stderr, "perfbench: probes failed: %s\n",
                   ProbeFailure.c_str());
    }
  }

  // Warm-up: lazy set-up (leap tables, allocator, page cache) settles here,
  // and its means become the reference every later call must reproduce.
  (void)call(false);

  const int64_t Deadline = nowNanos() + int64_t(Opts.Seconds * 1e9);
  const int MinCalls = Opts.Smoke ? 1 : 3;
  std::vector<double> Rates, CpuPer, Setups, PeakRss, TracedRates,
      LedgerOverheads;
  std::vector<MetricMap> LayerSamples;
  std::unique_ptr<RunRecord> LastTraced;
  while (true) {
    const bool Enough = int(Rates.size()) >= MinCalls;
    if (Enough && nowNanos() >= Deadline)
      break;
    if (!Enough && Failed > MinCalls)
      break; // calls keep failing; more of them prove nothing
    CallResult Plain = call(false);
    if (Plain.Failure.empty()) {
      Rates.push_back(double(Plain.Volume) / Plain.WallSeconds);
      CpuPer.push_back(Plain.CpuSeconds * 1e6 / double(Plain.Volume));
      Setups.push_back(Plain.SetupSeconds);
      PeakRss.push_back(Plain.PeakRssMb);
    }
    if (Opts.Trace) {
      CallResult Traced = call(true);
      if (Traced.Failure.empty()) {
        TracedRates.push_back(double(Traced.Volume) / Traced.WallSeconds);
        LedgerOverheads.push_back(Traced.LedgerOverheadNanos);
        LayerSamples.push_back(std::move(Traced.Layers));
        LastTraced = std::move(Traced.Record);
      }
    }
  }

  // Cross-transport oracle: the same seed over the thread transport must
  // reproduce the process transport's means bit for bit.
  if (Shape.Id == WorkloadId::MatrixExchange) {
    const int64_t FailedBefore = Failed;
    (void)call(false, TransportKind::Threads);
    std::printf("# oracle {\"transport\": \"threads\", \"pass\": %s}\n",
                Failed == FailedBefore ? "true" : "false");
  }

  auto printSamples = [](const char *Name, const std::vector<double> &Values) {
    std::printf("# samples {\"metric\": \"%s\", \"n\": %zu, \"values\": [",
                Name, Values.size());
    for (size_t Index = 0; Index < Values.size(); ++Index)
      std::printf("%s%.6g", Index ? ", " : "", Values[Index]);
    std::printf("]}\n");
  };
  printSamples("realizations_per_s", Rates);
  printSamples("cpu_us_per_realization", CpuPer);
  printSamples("setup_s", Setups);
  printSamples("peak_rss_mb", PeakRss);
  if (Opts.Trace) {
    printSamples("traced_realizations_per_s", TracedRates);
    std::printf("# ledger {\"tolerance_ns_per_call\": %lld, "
                "\"median_recording_ns_per_call\": %.1f, \"closed\": %zu}\n",
                (long long)LedgerToleranceNanosPerCall,
                median(LedgerOverheads), LedgerOverheads.size());
  }

  MetricMap Metrics;
  if (!Opts.Trace) {
    Metrics["realizations_per_s"] = median(Rates);
    Metrics["cpu_us_per_realization"] = median(CpuPer);
    Metrics["setup_s"] = median(Setups);
    Metrics["peak_rss_mb"] = median(PeakRss);
  } else {
    Metrics = Probes;
    std::map<std::string, std::vector<double>> Collected;
    for (const MetricMap &Sample : LayerSamples)
      for (const auto &[Name, Value] : Sample)
        Collected[Name].push_back(Value);
    for (const auto &[Name, Values] : Collected)
      Metrics[Name] = median(Values);
    const double Untraced = median(Rates);
    Metrics["bench.trace_overhead"] =
        Untraced > 0.0 ? median(TracedRates) / Untraced : 0.0;
    if (!Opts.TraceOut.empty())
      writeTrace(Opts.TraceOut, LastTraced.get(), ProbeSpans);
  }
  fs::remove_all(Opts.WorkDir / "probes", Error);

  // Every listed metric appears; one no call could measure (all failed)
  // reads 0 beside "correct": false.
  std::string Json = "{\"correct\": ";
  Json += Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const MetricUnit &Metric :
       Opts.Trace ? std::vector<MetricUnit>(std::begin(PerLayerMetrics),
                                            std::end(PerLayerMetrics))
                  : std::vector<MetricUnit>(std::begin(EndToEndMetrics),
                                            std::end(EndToEndMetrics))) {
    const auto Found = Metrics.find(Metric.Name);
    Json += std::string(First ? "\"" : ", \"") + Metric.Name +
            "\": {\"value\": " +
            jsonNumber(Found == Metrics.end() ? 0.0 : Found->second) +
            ", \"unit\": \"" + Metric.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}

int usage(const char *Message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--smoke] [--trace-out <file>] "
               "[--inject tamper-means|short-volume]\n",
               Message);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int Index = 1; Index < Argc; ++Index) {
    const std::string Flag = Argv[Index];
    if (Flag == "--smoke") {
      Opts.Smoke = true;
      continue;
    }
    if (Index + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const std::string Value = Argv[++Index];
    char *End = nullptr;
    if (Flag == "--workload") {
      for (const Workload &Candidate : Workloads)
        if (Value == Candidate.Name)
          Opts.Shape = &Candidate;
      if (!Opts.Shape)
        return usage(("unknown workload " + Value).c_str());
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End != '\0')
        return usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End != '\0' || !(Opts.Seconds >= 0.0))
        return usage("--seconds takes a non-negative number");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Opts.Trace = Value == "1";
    } else if (Flag == "--workdir") {
      Opts.WorkDir = Value;
    } else if (Flag == "--trace-out") {
      Opts.TraceOut = Value;
    } else if (Flag == "--inject") {
      if (Value == "tamper-means")
        Opts.Inject = Injection::TamperMeans;
      else if (Value == "short-volume")
        Opts.Inject = Injection::ShortVolume;
      else
        return usage(("unknown injection " + Value).c_str());
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!Opts.Shape || Opts.WorkDir.empty())
    return usage("--workload and --workdir are required");
  return runBenchmark(Opts);
}
