//===- parmonc/core/RunConfig.h - Simulation run configuration ------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parameters of a PARMONC run — the C++ face of the parmoncc argument
/// list (§3.2): matrix shape (nrow, ncol), maximal sample volume (maxsv),
/// resumption flag (res), experiment subsequence number (seqnum), and the
/// data-passing / averaging periods (perpass, peraver). Extended with the
/// knobs the paper leaves to the cluster environment: processor count
/// (mpirun -np equivalent), working directory, optional stopping targets.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_CORE_RUNCONFIG_H
#define PARMONC_CORE_RUNCONFIG_H

#include "parmonc/mpsim/Transport.h"
#include "parmonc/obs/Metrics.h"
#include "parmonc/obs/Trace.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/support/Status.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace parmonc {

namespace fault {
struct FaultPlan;
} // namespace fault

/// A save-point progress report, delivered to RunConfig::OnSavePoint.
struct RunProgress {
  int64_t TotalSampleVolume = 0;           ///< merged volume so far
  double MaxAbsoluteError = 0.0;           ///< ε_max at this save-point
  double MaxRelativeErrorPercent = 0.0;    ///< ρ_max at this save-point
  double ElapsedSeconds = 0.0;
  int SavePointCount = 0;                  ///< 1-based index of this save
};

/// Which production generator realizes the three-level stream hierarchy.
/// Both backends share the exact same StreamCoordinates discipline, so a
/// realization routine sees the identical RandomSource seam either way.
enum class RngBackendKind {
  /// The paper's rnd128: 128-bit LCG with windowed leap multiplies.
  Lcg128,
  /// Philox4x32-10 counter partitioning (rng/Philox.h): the hierarchy is
  /// realized by counter intervals instead of leap multiplies, so jumping
  /// to any stream position is constant time with no power table.
  Philox,
};

/// The stable lower-case token for a backend, as recorded in
/// parmonc_exp.dat and RunReport.
inline const char *rngBackendName(RngBackendKind Kind) {
  return Kind == RngBackendKind::Philox ? "philox" : "lcg128";
}

/// Requests a distribution estimate (fixed-grid histogram) of one entry
/// of the realization matrix, accumulated alongside the moments with the
/// same exact merge/resume semantics.
struct HistogramSpec {
  size_t Row = 0;       ///< matrix row of the observable (0-based)
  size_t Column = 0;    ///< matrix column of the observable (0-based)
  double Low = 0.0;     ///< left edge of the binned range
  double High = 1.0;    ///< right edge (exclusive)
  size_t BinCount = 64; ///< equal-width bins over [Low, High)
};

/// Configuration of one stochastic experiment run.
struct RunConfig {
  /// Realization matrix shape [ζ_ij]: nrow x ncol (§2.1). Scalar estimators
  /// use 1 x 1.
  size_t Rows = 1;
  size_t Columns = 1;

  /// Maximal total sample volume to simulate (the paper's maxsv). Choose a
  /// huge value for an "endless" run bounded by TimeLimitNanos instead.
  int64_t MaxSampleVolume = 0;

  /// Resumption flag (res): false = brand-new simulation, true = load the
  /// previous checkpoint and average into it per eq. (5).
  bool Resume = false;

  /// The "experiments" subsequence number (seqnum). When resuming, it must
  /// differ from the previous run's number (§3.2) — enforced.
  uint64_t SequenceNumber = 0;

  /// Number of simulated processors M. Rank 0 both simulates and collects,
  /// as in the paper's performance test.
  int ProcessorCount = 1;

  /// How the ranks are hosted: Threads = one thread per rank inside this
  /// process (the differential oracle), Processes = forked worker
  /// processes exchanging CRC-framed messages over Unix-domain socket
  /// pairs (mpsim/SocketTransport.h). Rank 0 runs in the calling process
  /// either way, so reports and result files are identical. Processes
  /// requires DeterministicSchedule (there is no cross-process shared
  /// work counter) — enforced by validate().
  TransportKind Transport = TransportKind::Threads;

  /// Period with which each worker passes its subtotal to rank 0
  /// (perpass). The paper expresses this in minutes; the engine takes
  /// nanoseconds so tests can compress time. 0 = send after every
  /// realization (the paper's "strictest conditions").
  int64_t PassPeriodNanos = 0;

  /// Period with which rank 0 averages and saves results (peraver);
  /// 0 = at every collector poll.
  int64_t AveragePeriodNanos = 0;

  /// Directory that receives the parmonc_data/ tree (§3.6).
  std::string WorkDir = ".";

  /// Leap configuration of the stream hierarchy. Callers normally leave
  /// the default; the engine overrides it from parmonc_genparam.dat when
  /// that file exists in WorkDir (§3.5).
  LeapConfig Leaps;

  /// Which generator backs every realization stream. Default Lcg128 is
  /// byte-identical to before this knob existed. Philox draws from the
  /// same (experiment, processor, realization) coordinates, so per-rank
  /// stream assignment, merge order and resume semantics are unchanged —
  /// only the pseudorandom numbers themselves differ. A
  /// parmonc_genparam.dat that overrides the LCG *multiplier* is
  /// rejected under Philox (the multiplier has no counter-based
  /// equivalent); its exponent overrides apply to both backends.
  RngBackendKind RngBackend = RngBackendKind::Lcg128;

  /// Error multiplier γ for reported absolute errors (§2.1; 3 ≙ λ=0.997).
  double ErrorMultiplier = 3.0;

  /// Optional: stop early once the max absolute error over all entries
  /// falls below this bound (0 = disabled). Checked at save-points.
  double TargetMaxAbsoluteError = 0.0;

  /// Optional: stop early once the max relative error (percent) falls
  /// below this bound (0 = disabled).
  double TargetMaxRelativeErrorPercent = 0.0;

  /// Optional wall-clock budget for the run (0 = unlimited) — the cluster
  /// job time limit the paper relies on for "endless" simulations.
  int64_t TimeLimitNanos = 0;

  /// Optional distribution observables: one histogram per entry, written
  /// to results/hist_r<row>_c<col>.dat at every save-point.
  std::vector<HistogramSpec> Histograms;

  /// Optional observer invoked on rank 0's thread at every save-point,
  /// after result files are written. Must be fast and thread-agnostic;
  /// it runs concurrently with the other workers.
  std::function<void(const RunProgress &)> OnSavePoint;

  /// Optional external metrics registry. When null the engine uses a
  /// private registry; either way RunReport::Metrics carries the final
  /// snapshot and results/metrics.dat is written. Supplying one lets
  /// callers share a registry across runs or pre-register extra metrics.
  obs::MetricsRegistry *Metrics = nullptr;

  /// Optional trace sink. When set, the engine emits Chrome-trace spans
  /// (per-realization compute, subtotal sends, collector merges, saves,
  /// checkpoint I/O) and writes results/trace.json at the end. Tracing
  /// never perturbs simulation results; with an injected deterministic
  /// clock the emitted JSON is byte-identical across runs (tested).
  obs::TraceWriter *Trace = nullptr;

  /// Optional fault-injection plan (testing only; null = no faults and
  /// zero added cost). The plan must outlive the run. Because worker
  /// subtotals are cumulative, every injected message fault is recoverable
  /// and the recovery paths (§3.2 res=1, §3.4 manaver) reproduce the
  /// unfailed moment sums bit-exactly — tested.
  const fault::FaultPlan *Faults = nullptr;

  /// When true, each rank simulates a fixed quota (MaxSampleVolume split
  /// as evenly as ranks allow, earlier ranks taking the remainder) instead
  /// of claiming work from a shared counter. Per-rank volumes — and hence
  /// merged sums — become independent of thread scheduling, which the
  /// byte-exact fault-recovery tests require.
  bool DeterministicSchedule = false;

  /// Worker threads per simulated processor (>= 1). The rank's one
  /// realization loop runs on N threads: thread t runs the rank's
  /// realization subsequences t, t + N, t + 2N, ... on a stride-N
  /// RealizationCursor with a private accumulator, and the rank merges the
  /// thread partials in thread order before anything enters the §2.2
  /// collector protocol. The consumed substreams are exactly the N = 1
  /// assignment, so moment sums match it whenever the accumulated sums
  /// are exact (and are run-to-run deterministic under
  /// DeterministicSchedule regardless). Default 1 = the paper's
  /// one-thread-per-processor engine, with no intra-rank mailbox.
  /// Incompatible with injected worker crashes, which model whole-rank
  /// death.
  int WorkerThreadsPerRank = 1;

  /// Attempts per subtotal send before the worker gives up on the message
  /// (it keeps simulating; the next cumulative subtotal covers the loss).
  int SendMaxAttempts = 4;

  /// Backoff slept on the run clock between send retries.
  int64_t SendRetryBackoffNanos = 1'000'000;

  /// Collector-side liveness deadline: if no worker message arrives for
  /// this long during final collection, the remaining workers are declared
  /// dead and the run completes degraded over the survivors' subtotals
  /// (eq. 5 over fewer ranks). 0 = wait forever (the pre-fault behavior).
  int64_t WorkerDeadlineNanos = 0;

  /// Sharded checkpointing: every rank publishes its own CRC-sealed
  /// cumulative shard (at subtotal-persist cadence) and rank 0 commits a
  /// manifest referencing the latest shard of every rank instead of
  /// writing the monolithic checkpoint.dat. Restore merges base + shards
  /// in rank order, bit-identical to the single-file path, and falls back
  /// to the previous manifest generation on any validation failure.
  /// Default off: the legacy checkpoint.dat path, byte-identical to
  /// before this knob existed. Either kind of checkpoint can be resumed
  /// regardless of the flag's value in the resuming run
  /// (restoreResumeBase in core/CheckpointBridge.h picks the fresher).
  bool CheckpointShards = false;

  /// Hands manifest commits to a background writer thread on rank 0 so
  /// save-points return after a queue push instead of stalling on
  /// checkpoint I/O. Queue overflow coalesces (newest request wins —
  /// always safe, snapshots are cumulative) and is counted in
  /// RunReport::CoalescedCheckpoints and "ckpt.coalesced_saves".
  /// Requires CheckpointShards.
  bool CheckpointAsync = false;

  /// Bound of the background writer's commit queue (>= 1).
  int CheckpointQueueDepth = 2;

  /// Shard files retained per rank beyond the manifest-referenced ones
  /// when commits prune the shard directory (>= 1).
  int CheckpointKeepShards = 2;

  /// Checks ranges and cross-field constraints.
  [[nodiscard]] Status validate() const;
};

/// Summary of a finished run, mirroring what func_log.dat records.
struct RunReport {
  /// Total accumulated sample volume (including any resumed volume).
  int64_t TotalSampleVolume = 0;

  /// Volume contributed by this run only.
  int64_t NewSampleVolume = 0;

  /// Mean compute time per realization in seconds (this run).
  double MeanRealizationSeconds = 0.0;

  /// Wall-clock duration of the run in seconds.
  double ElapsedSeconds = 0.0;

  /// ε_max, ρ_max, σ²_max at the end of the run.
  double MaxAbsoluteError = 0.0;
  double MaxRelativeErrorPercent = 0.0;
  double MaxVariance = 0.0;

  /// Save-points written (periodic + final).
  int SavePointCount = 0;

  /// Final per-processor volumes l_m (eq. 4); diverge under jitter.
  std::vector<int64_t> PerProcessorVolumes;

  /// True if the run stopped because an error target was met.
  bool StoppedOnErrorTarget = false;

  /// True if the run stopped on the time limit.
  bool StoppedOnTimeLimit = false;

  /// True if any worker died or any subtotal send was permanently lost:
  /// the results cover the survivors per eq. (5) and manaver can rebuild
  /// the full total from the on-disk subtotals (§3.4).
  bool Degraded = false;

  /// Ranks declared dead during final collection (deadline expiry or
  /// injected crash), sorted.
  std::vector<int> DeadWorkers;

  /// Subtotal sends that failed even after retries.
  int64_t FailedSends = 0;

  /// True if the (injected) collector crash fired: the run ended without
  /// final saves, exactly as a killed job would.
  bool SimulatedCrash = false;

  /// True if the checkpoint failed its integrity check on resume and the
  /// previous generation (checkpoint.dat.prev, or the .prev manifest when
  /// sharded) was loaded instead.
  bool ResumedFromBackup = false;

  /// True when the resume state came from a sharded checkpoint manifest
  /// rather than the legacy checkpoint.dat.
  bool RestoredFromShards = false;

  /// Sharded async checkpointing only: save-point commits that were
  /// coalesced away by queue backpressure (each one subsumed by a newer
  /// commit; never a silent loss).
  int64_t CoalescedCheckpoints = 0;

  /// The generator backend that produced every draw of this run
  /// (rngBackendName of RunConfig::RngBackend), as also recorded in the
  /// run's parmonc_exp.dat line.
  std::string RngBackendName;

  /// Final values of every engine metric (runner.*, rng.*, comm.*,
  /// store.*), also persisted to results/metrics.dat for mcstat.
  obs::MetricsSnapshot Metrics;

  /// Process transport only: per-worker exit diagnostics (exit code or
  /// terminating signal, whether the orderly GOODBYE arrived, send
  /// counters). Empty under the thread transport.
  std::vector<ProcessRankStatus> ProcessRanks;
};

} // namespace parmonc

#endif // PARMONC_CORE_RUNCONFIG_H
