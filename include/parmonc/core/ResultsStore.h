//===- parmonc/core/ResultsStore.h - Result & checkpoint files (§3.6) -----===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk layout the paper describes in §3.6, rooted at the user's
/// working directory:
///
///   parmonc_data/
///     parmonc_exp.dat        – registry of every experiment started
///     base.dat               – moment sums inherited at run start (resume)
///     checkpoint.dat         – merged moment sums at the last save-point
///     subtotals/rank_<m>.dat – each worker's own latest subtotal
///     results/func.dat       – matrix of sample means
///     results/func_ci.dat    – means + absolute/relative errors + variances
///     results/func_log.dat   – run log (volume, mean τ, error bounds, ...)
///
/// All moment files store raw sums (Σζ, Σζ², l) at full precision, which is
/// what makes resumption and manaver averaging exact. base.dat plus the
/// rank subtotal files exist precisely so manaver can rebuild results that
/// are *fresher* than the collector's last save after a killed job (§3.4).
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_CORE_RESULTSSTORE_H
#define PARMONC_CORE_RESULTSSTORE_H

#include "parmonc/core/RunConfig.h"
#include "parmonc/obs/Metrics.h"
#include "parmonc/obs/Trace.h"
#include "parmonc/stats/EstimatorMatrix.h"
#include "parmonc/stats/HistogramEstimator.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {

namespace fault {
class FaultInjector;
} // namespace fault

/// A set of moment sums together with its provenance — the unit of both
/// checkpointing and worker-to-collector messages.
struct MomentSnapshot {
  /// The experiment subsequence number the sums were produced under.
  uint64_t SequenceNumber = 0;

  /// Total compute seconds spent on the accumulated realizations (for the
  /// mean-τ statistic in func_log.dat).
  double ComputeSeconds = 0.0;

  /// The raw moment sums.
  EstimatorMatrix Moments;

  /// Optional distribution observables (one histogram per configured
  /// RunConfig::Histograms entry, in the same order). Like the moment
  /// sums, these are raw counts: merging and resumption are exact.
  std::vector<HistogramEstimator> Histograms;

  /// Serializes to the text snapshot format (checkpoint/base/subtotal
  /// files).
  std::string toFileContents() const;

  /// Parses the text snapshot format.
  [[nodiscard]] static Result<MomentSnapshot> fromFileContents(std::string_view Contents);

  /// Serializes to the compact binary form used for mailbox messages.
  std::vector<uint8_t> toBytes() const;

  /// Parses the binary message form.
  [[nodiscard]] static Result<MomentSnapshot> fromBytes(const std::vector<uint8_t> &Bytes);

  /// Accumulates \p Other into this snapshot: moment sums, histogram
  /// counts and compute seconds add; the sequence number stays. Fails when
  /// the shapes or histogram geometries disagree — discard *this then, it
  /// may be partially merged. This is the collector's merge (paper eq. 5);
  /// the sharded-checkpoint restore path goes through the same arithmetic
  /// in the same rank order, which is what makes recovery bit-identical.
  [[nodiscard]] Status mergeFrom(const MomentSnapshot &Other);
};

/// The per-run log block written to func_log.dat.
struct RunLogInfo {
  int64_t TotalSampleVolume = 0;
  int64_t NewSampleVolume = 0;
  double MeanRealizationSeconds = 0.0;
  double ElapsedSeconds = 0.0;
  double MaxAbsoluteError = 0.0;
  double MaxRelativeErrorPercent = 0.0;
  double MaxVariance = 0.0;
  int ProcessorCount = 0;
  uint64_t SequenceNumber = 0;
  bool Resumed = false;
  bool Degraded = false;        ///< survivors-only results (dead workers
                                ///< or permanently failed sends)
  int DeadWorkerCount = 0;      ///< ranks declared dead during collection
  bool ResumedFromBackup = false; ///< checkpoint.dat.prev was loaded
  /// Generator backend token ("lcg128", "philox"); empty omits the
  /// parmonc_exp.dat "rng" field, matching pre-backend-era lines.
  std::string RngBackend;
};

/// Owns the parmonc_data/ tree under one working directory.
class ResultsStore {
public:
  explicit ResultsStore(std::string WorkDir);

  /// Creates parmonc_data/, results/ and subtotals/. Idempotent.
  [[nodiscard]] Status prepareDirectories() const;

  // Paths (all absolute or relative to the process CWD, derived from
  // WorkDir).
  std::string dataDir() const;
  std::string resultsDir() const;
  std::string subtotalsDir() const;
  /// Root of the sharded checkpoint tree (ckpt::CheckpointStore home).
  std::string checkpointDir() const;
  std::string checkpointPath() const;
  std::string basePath() const;
  std::string subtotalPath(int Rank) const;
  std::string meansPath() const;       ///< results/func.dat
  std::string confidencePath() const;  ///< results/func_ci.dat
  std::string logPath() const;         ///< results/func_log.dat
  std::string experimentLogPath() const;
  std::string metricsPath() const; ///< results/metrics.dat
  std::string tracePath() const;   ///< results/trace.json
  /// parmonc_genparam.dat lives in the working directory itself (§3.5).
  std::string genparamPath() const;

  /// The previous-generation sibling of a snapshot file ("<path>.prev"),
  /// rotated into place on every write. Loads fall back to it when the
  /// primary fails its CRC — a half-written checkpoint never loses a run.
  static std::string backupPath(const std::string &Path);

  /// Attaches observability sinks: checkpoint/subtotal writes and reads
  /// get "store.snapshot_write"/"store.snapshot_read" spans and latency
  /// histograms plus snapshots-written/read and bytes counters. All three
  /// pointers may be null independently; timing needs \p TimeSource.
  void attachObservers(obs::MetricsRegistry *Metrics,
                       obs::TraceWriter *Trace, const Clock *TimeSource);

  /// Installs a fault injector whose corruptWrite hook may damage snapshot
  /// writes (testing only; the pointer must outlive the store's use).
  void setFaultInjector(fault::FaultInjector *Injector);

  /// Writes one snapshot file: the body is sealed with a CRC32 integrity
  /// header, the previous generation is rotated to backupPath(Path), and
  /// the new contents land via atomic rename — a crash mid-save leaves
  /// either the old sealed file or the new one, never a torn mix.
  [[nodiscard]] Status writeSnapshot(const std::string &Path,
                       const MomentSnapshot &Snapshot) const;

  /// writeSnapshot for a body already rendered by
  /// MomentSnapshot::toFileContents, so one rendering can feed several
  /// files (a rank's subtotal file and its checkpoint shard). The
  /// "store.snapshot_write" latency covers sealing, rotation and the
  /// atomic write, not the rendering.
  [[nodiscard]] Status writeSnapshotBody(const std::string &Path,
                                         std::string_view Body) const;

  /// Reads one snapshot file, verifying the seal when present (files from
  /// before the seal era still load). A corrupted file is an IoError and
  /// is never parsed into moments.
  [[nodiscard]] Result<MomentSnapshot> readSnapshot(const std::string &Path) const;

  /// readSnapshot result plus where the data actually came from.
  struct RecoveredSnapshot {
    MomentSnapshot Snapshot;
    bool FromBackup = false; ///< the primary failed; .prev was loaded
  };

  /// Reads \p Path, falling back to backupPath(Path) when the primary is
  /// missing or fails its integrity check. Reports the *primary's* error
  /// when both generations are unreadable.
  [[nodiscard]] Result<RecoveredSnapshot>
  readSnapshotWithFallback(const std::string &Path) const;

  /// Writes func.dat, func_ci.dat and func_log.dat from the merged moments.
  [[nodiscard]] Status writeResults(const EstimatorMatrix &Merged, const RunLogInfo &Log,
                      double ErrorMultiplier) const;

  /// Appends one line to parmonc_exp.dat describing a started experiment.
  /// The append is durable (O_APPEND + fsync) and each line carries its own
  /// CRC32 suffix so a torn trailing line from a crash is detectable.
  [[nodiscard]] Status appendExperimentLog(const RunLogInfo &Log) const;

  /// One parsed parmonc_exp.dat line.
  struct ExperimentLogEntry {
    uint64_t SequenceNumber = 0;
    bool Resumed = false;
    int ProcessorCount = 0;
    int64_t StartVolume = 0;
    /// Generator backend token; empty for lines from before the backend
    /// field existed (which implicitly ran the LCG).
    std::string RngBackend;
  };

  /// Everything readExperimentLog learned, including damage it skipped.
  struct ExperimentLogContents {
    std::vector<ExperimentLogEntry> Entries;
    /// 1-based line numbers that failed their CRC or would not parse and
    /// were skipped (a torn trailing line from a crashed append lands
    /// here — the registry before it is still fully usable).
    std::vector<int> SkippedLines;
  };

  /// Reads parmonc_exp.dat, verifying each line's CRC suffix when present
  /// (pre-CRC-era lines still load). Damaged lines are skipped and
  /// reported, never fatal; a missing file yields an empty registry.
  [[nodiscard]] Result<ExperimentLogContents> readExperimentLog() const;

  /// Reads the means matrix back from func.dat (tests, manaver, tools).
  [[nodiscard]] Result<std::vector<double>> readMeans(size_t Rows, size_t Columns) const;

  /// Lists the rank subtotal files currently present, as (rank, path).
  std::vector<std::pair<int, std::string>> listSubtotalFiles() const;

  /// Removes checkpoint/base/subtotal/result files from a previous
  /// simulation (the res=0 "brand new files" behaviour).
  [[nodiscard]] Status clearPreviousRun() const;

  const std::string &workDir() const { return WorkDir; }

private:
  std::string WorkDir;
  // Observability (attachObservers); null = uninstrumented.
  obs::MetricsRegistry *Metrics = nullptr;
  obs::TraceWriter *Trace = nullptr;
  const Clock *Time = nullptr;
  // Fault injection (setFaultInjector); null = writes are never damaged.
  fault::FaultInjector *Injector = nullptr;
};

/// Writes/reads the per-observable histogram files under results/
/// (hist_r<row>_c<col>.dat).
std::string histogramPath(const ResultsStore &Store, size_t Row,
                          size_t Column);

/// The manaver command's core (§3.4): rebuilds merged results from
/// base.dat plus every subtotal file in the store and writes result files
/// and a fresh checkpoint. Returns the merged snapshot. Corrupted inputs
/// fall back to their .prev generation; when \p RecoveredPaths is non-null
/// it receives the primary paths that needed the fallback.
[[nodiscard]] Result<MomentSnapshot>
runManualAverage(const ResultsStore &Store, double ErrorMultiplier = 3.0,
                 std::vector<std::string> *RecoveredPaths = nullptr);

} // namespace parmonc

#endif // PARMONC_CORE_RESULTSSTORE_H
