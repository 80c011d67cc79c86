//===- core/ResultsStore.cpp - Result & checkpoint files (§3.6) ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/ResultsStore.h"

#include "parmonc/fault/FaultPlan.h"
#include "parmonc/mpsim/Serialize.h"
#include "parmonc/obs/Stopwatch.h"
#include "parmonc/support/Checksum.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <filesystem>

namespace parmonc {

// A "%.17e" number plus its separator: "-d.<17 digits>e-308 ".
static constexpr size_t ScientificFieldChars = 26;

std::string MomentSnapshot::toFileContents() const {
  const std::vector<double> &Sums = Moments.valueSums();
  const std::vector<double> &Squares = Moments.squareSums();
  std::string Text;
  Text.reserve(256 + ScientificFieldChars * (Sums.size() + Squares.size()));
  Text += "# PARMONC moment snapshot: raw sums, full precision\n";
  Text += "seqnum " + std::to_string(SequenceNumber) + "\n";
  Text += "shape " + std::to_string(Moments.rows()) + " " +
          std::to_string(Moments.columns()) + "\n";
  Text += "volume " + std::to_string(Moments.sampleVolume()) + "\n";
  Text += "compute_seconds ";
  appendScientific(Text, ComputeSeconds);
  Text += "\nsums";
  for (double Sum : Sums) {
    Text += ' ';
    appendScientific(Text, Sum);
  }
  Text += "\nsquares";
  for (double Square : Squares) {
    Text += ' ';
    appendScientific(Text, Square);
  }
  Text += '\n';
  for (const HistogramEstimator &Histogram : Histograms) {
    Text += "histogram ";
    appendScientific(Text, Histogram.low());
    Text += ' ';
    appendScientific(Text, Histogram.high());
    Text += ' ' + std::to_string(Histogram.binCount()) + ' ' +
            std::to_string(Histogram.underflowCount()) + ' ' +
            std::to_string(Histogram.overflowCount());
    for (size_t Index = 0; Index < Histogram.binCount(); ++Index) {
      Text += ' ';
      Text += std::to_string(Histogram.countOf(Index));
    }
    Text += '\n';
  }
  return Text;
}

/// Parses one "histogram <low> <high> <bins> <under> <over> <counts...>"
/// line back into an estimator.
static Result<HistogramEstimator> parseHistogramLine(
    const std::vector<std::string_view> &Fields) {
  if (Fields.size() < 6)
    return parseError("malformed histogram line in snapshot");
  Result<double> Low = parseDouble(Fields[1]);
  Result<double> High = parseDouble(Fields[2]);
  Result<uint64_t> Bins = parseUInt64(Fields[3]);
  Result<int64_t> Under = parseInt64(Fields[4]);
  Result<int64_t> Over = parseInt64(Fields[5]);
  if (!Low || !High || !Bins || !Under || !Over)
    return parseError("malformed histogram header in snapshot");
  if (Fields.size() != 6 + Bins.value())
    return parseError("histogram count list does not match bin count");
  std::vector<int64_t> Counts;
  Counts.reserve(Bins.value());
  for (size_t Index = 6; Index < Fields.size(); ++Index) {
    Result<int64_t> Count = parseInt64(Fields[Index]);
    if (!Count)
      return Count.status();
    Counts.push_back(Count.value());
  }
  return HistogramEstimator::fromCounts(Low.value(), High.value(),
                                        std::move(Counts), Under.value(),
                                        Over.value());
}

Result<MomentSnapshot> MomentSnapshot::fromFileContents(
    std::string_view Contents) {
  uint64_t SequenceNumber = 0;
  size_t Rows = 0, Columns = 0;
  int64_t Volume = -1;
  double ComputeSeconds = 0.0;
  std::vector<double> Sums, Squares;
  std::vector<HistogramEstimator> PendingHistograms;
  bool HaveShape = false, HaveVolume = false, HaveSums = false,
       HaveSquares = false;

  for (std::string_view Line : splitChar(Contents, '\n')) {
    std::string_view Stripped = trim(Line);
    if (Stripped.empty() || Stripped[0] == '#')
      continue;
    auto Fields = splitWhitespace(Stripped);
    const std::string_view Key = Fields[0];
    if (Key == "seqnum" && Fields.size() == 2) {
      Result<uint64_t> Value = parseUInt64(Fields[1]);
      if (!Value)
        return Value.status();
      SequenceNumber = Value.value();
    } else if (Key == "shape" && Fields.size() == 3) {
      Result<uint64_t> RowsValue = parseUInt64(Fields[1]);
      Result<uint64_t> ColumnsValue = parseUInt64(Fields[2]);
      if (!RowsValue || !ColumnsValue)
        return parseError("bad shape line in snapshot");
      Rows = RowsValue.value();
      Columns = ColumnsValue.value();
      HaveShape = true;
    } else if (Key == "volume" && Fields.size() == 2) {
      Result<int64_t> Value = parseInt64(Fields[1]);
      if (!Value)
        return Value.status();
      Volume = Value.value();
      HaveVolume = true;
    } else if (Key == "compute_seconds" && Fields.size() == 2) {
      Result<double> Value = parseDouble(Fields[1]);
      if (!Value)
        return Value.status();
      ComputeSeconds = Value.value();
    } else if (Key == "sums") {
      for (size_t Index = 1; Index < Fields.size(); ++Index) {
        Result<double> Value = parseDouble(Fields[Index]);
        if (!Value)
          return Value.status();
        Sums.push_back(Value.value());
      }
      HaveSums = true;
    } else if (Key == "histogram") {
      Result<HistogramEstimator> Histogram = parseHistogramLine(Fields);
      if (!Histogram)
        return Histogram.status();
      // Collected below once the snapshot object exists.
      PendingHistograms.push_back(std::move(Histogram).value());
    } else if (Key == "squares") {
      for (size_t Index = 1; Index < Fields.size(); ++Index) {
        Result<double> Value = parseDouble(Fields[Index]);
        if (!Value)
          return Value.status();
        Squares.push_back(Value.value());
      }
      HaveSquares = true;
    } else {
      return parseError("unknown snapshot directive '" + std::string(Key) +
                        "'");
    }
  }

  if (!HaveShape || !HaveVolume || !HaveSums || !HaveSquares)
    return parseError("snapshot file is missing required entries");

  Result<EstimatorMatrix> Moments = EstimatorMatrix::fromRawSums(
      Rows, Columns, std::move(Sums), std::move(Squares), Volume);
  if (!Moments)
    return Moments.status();

  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = SequenceNumber;
  Snapshot.ComputeSeconds = ComputeSeconds;
  Snapshot.Moments = std::move(Moments).value();
  Snapshot.Histograms = std::move(PendingHistograms);
  return Snapshot;
}

// The message form: a fixed header, the two moment-sum vectors, then
// per histogram its range, side counts and bin counts — all binary, so
// encoding and decoding cost about a memcpy of the sums.
std::vector<uint8_t> MomentSnapshot::toBytes() const {
  size_t Size = 8 * 8 + 16 * Moments.valueSums().size();
  for (const HistogramEstimator &Histogram : Histograms)
    Size += 8 * 5 + 8 * Histogram.binCount();
  ByteWriter Writer;
  Writer.reserve(Size);
  Writer.writeU64(SequenceNumber);
  Writer.writeU64(Moments.rows());
  Writer.writeU64(Moments.columns());
  Writer.writeI64(Moments.sampleVolume());
  Writer.writeDouble(ComputeSeconds);
  Writer.writeDoubleVector(Moments.valueSums());
  Writer.writeDoubleVector(Moments.squareSums());
  Writer.writeU64(Histograms.size());
  for (const HistogramEstimator &Histogram : Histograms) {
    Writer.writeDouble(Histogram.low());
    Writer.writeDouble(Histogram.high());
    Writer.writeI64(Histogram.underflowCount());
    Writer.writeI64(Histogram.overflowCount());
    Writer.writeI64Vector(Histogram.counts());
  }
  return Writer.takeBytes();
}

Result<MomentSnapshot> MomentSnapshot::fromBytes(
    const std::vector<uint8_t> &Bytes) {
  ByteReader Reader(Bytes);
  Result<uint64_t> SequenceNumber = Reader.readU64();
  Result<uint64_t> Rows = Reader.readU64();
  Result<uint64_t> Columns = Reader.readU64();
  Result<int64_t> Volume = Reader.readI64();
  Result<double> ComputeSeconds = Reader.readDouble();
  if (!SequenceNumber || !Rows || !Columns || !Volume || !ComputeSeconds)
    return parseError("truncated snapshot message header");
  Result<std::vector<double>> Sums = Reader.readDoubleVector();
  if (!Sums)
    return Sums.status();
  Result<std::vector<double>> Squares = Reader.readDoubleVector();
  if (!Squares)
    return Squares.status();
  Result<uint64_t> HistogramCount = Reader.readU64();
  if (!HistogramCount)
    return HistogramCount.status();
  std::vector<HistogramEstimator> Histograms;
  for (uint64_t Index = 0; Index < HistogramCount.value(); ++Index) {
    Result<double> Low = Reader.readDouble();
    Result<double> High = Reader.readDouble();
    Result<int64_t> Under = Reader.readI64();
    Result<int64_t> Over = Reader.readI64();
    if (!Low || !High || !Under || !Over)
      return parseError("truncated histogram in snapshot message");
    Result<std::vector<int64_t>> Counts = Reader.readI64Vector();
    if (!Counts)
      return Counts.status();
    Result<HistogramEstimator> Histogram = HistogramEstimator::fromCounts(
        Low.value(), High.value(), std::move(Counts).value(), Under.value(),
        Over.value());
    if (!Histogram)
      return Histogram.status();
    Histograms.push_back(std::move(Histogram).value());
  }
  if (!Reader.atEnd())
    return parseError("trailing bytes in snapshot message");

  Result<EstimatorMatrix> Moments = EstimatorMatrix::fromRawSums(
      Rows.value(), Columns.value(), std::move(Sums).value(),
      std::move(Squares).value(), Volume.value());
  if (!Moments)
    return Moments.status();

  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = SequenceNumber.value();
  Snapshot.ComputeSeconds = ComputeSeconds.value();
  Snapshot.Moments = std::move(Moments).value();
  Snapshot.Histograms = std::move(Histograms);
  return Snapshot;
}

Status MomentSnapshot::mergeFrom(const MomentSnapshot &Other) {
  if (Status MergedOk = Moments.merge(Other.Moments); !MergedOk)
    return MergedOk;
  ComputeSeconds += Other.ComputeSeconds;
  if (Histograms.size() != Other.Histograms.size())
    return failedPrecondition("snapshot histogram count mismatch");
  for (size_t Index = 0; Index < Histograms.size(); ++Index)
    if (Status HistogramOk = Histograms[Index].merge(Other.Histograms[Index]);
        !HistogramOk)
      return HistogramOk;
  return Status::ok();
}

ResultsStore::ResultsStore(std::string WorkDir)
    : WorkDir(std::move(WorkDir)) {
  assert(!this->WorkDir.empty() && "work directory must not be empty");
}

Status ResultsStore::prepareDirectories() const {
  if (Status Created = createDirectories(resultsDir()); !Created)
    return Created;
  return createDirectories(subtotalsDir());
}

std::string ResultsStore::dataDir() const {
  return WorkDir + "/parmonc_data";
}
std::string ResultsStore::resultsDir() const {
  return dataDir() + "/results";
}
std::string ResultsStore::subtotalsDir() const {
  return dataDir() + "/subtotals";
}
std::string ResultsStore::checkpointDir() const {
  return dataDir() + "/ckpt";
}
std::string ResultsStore::checkpointPath() const {
  return dataDir() + "/checkpoint.dat";
}
std::string ResultsStore::basePath() const { return dataDir() + "/base.dat"; }
std::string ResultsStore::subtotalPath(int Rank) const {
  return subtotalsDir() + "/rank_" + std::to_string(Rank) + ".dat";
}
std::string ResultsStore::meansPath() const {
  return resultsDir() + "/func.dat";
}
std::string ResultsStore::confidencePath() const {
  return resultsDir() + "/func_ci.dat";
}
std::string ResultsStore::logPath() const {
  return resultsDir() + "/func_log.dat";
}
std::string ResultsStore::experimentLogPath() const {
  return dataDir() + "/parmonc_exp.dat";
}
std::string ResultsStore::genparamPath() const {
  return WorkDir + "/parmonc_genparam.dat";
}
std::string ResultsStore::metricsPath() const {
  return resultsDir() + "/metrics.dat";
}
std::string ResultsStore::tracePath() const {
  return resultsDir() + "/trace.json";
}
std::string ResultsStore::backupPath(const std::string &Path) {
  return Path + ".prev";
}

void ResultsStore::attachObservers(obs::MetricsRegistry *Metrics,
                                   obs::TraceWriter *Trace,
                                   const Clock *TimeSource) {
  this->Metrics = Metrics;
  this->Trace = Trace;
  this->Time = TimeSource;
}

void ResultsStore::setFaultInjector(fault::FaultInjector *Injector) {
  this->Injector = Injector;
}

Status ResultsStore::writeSnapshot(const std::string &Path,
                                   const MomentSnapshot &Snapshot) const {
  return writeSnapshotBody(Path, Snapshot.toFileContents());
}

Status ResultsStore::writeSnapshotBody(const std::string &Path,
                                       std::string_view Body) const {
  const int64_t Start = Time ? Time->nowNanos() : 0;
  std::string Contents = sealFileContents(Body);
  if (Injector)
    if (std::optional<std::string> Damaged =
            // mclint: allow(R8): fault-injection seam; the injector is
            // plain data here, its raw-sync lives in the fault harness.
            Injector->corruptWrite(Path, Contents))
      Contents = std::move(*Damaged);
  // Rotate the intact previous generation aside before the replace, so a
  // corrupted new file (crash, bad disk, injected fault) still leaves a
  // loadable checkpoint behind.
  if (fileExists(Path)) {
    std::error_code RotateError;
    std::filesystem::rename(Path, backupPath(Path), RotateError);
    // Best effort: an unrotatable backup must not block the save itself.
    if (!RotateError) {
      // Persist the rotation before the replace lands: after a power cut
      // mid-save the .prev generation must actually be on disk, or the
      // fallback ladder has nothing to stand on. This fsync stays best
      // effort, like the rotation it follows: writeFileAtomic below syncs
      // the same directory after its rename and returns a real failure,
      // so ignoring one here loses no error.
      const std::string Parent =
          std::filesystem::path(Path).parent_path().string();
      (void)fsyncDirectory(Parent.empty() ? "." : Parent);
    }
  }
  Status Written = writeFileAtomic(Path, Contents);
  if (Metrics && Written) {
    Metrics->counter("store.snapshots_written").add();
    Metrics->counter("store.snapshot_bytes_written")
        .add(int64_t(Contents.size()));
    if (Time)
      Metrics->latency("store.snapshot_write")
          .recordNanos(Time->nowNanos() - Start);
  }
  if (Trace && Time)
    Trace->completeSpan("store.snapshot_write", 0, Start, Time->nowNanos());
  return Written;
}

Result<MomentSnapshot> ResultsStore::readSnapshot(
    const std::string &Path) const {
  const int64_t Start = Time ? Time->nowNanos() : 0;
  Result<std::string> Contents = readFileToString(Path);
  if (!Contents)
    return Contents.status();
  std::string Body = std::move(Contents).value();
  if (hasFileSeal(Body)) {
    Result<std::string> Unsealed = unsealFileContents(Path, Body);
    if (!Unsealed)
      return Unsealed.status();
    Body = std::move(Unsealed).value();
  }
  Result<MomentSnapshot> Parsed = MomentSnapshot::fromFileContents(Body);
  if (Parsed && Metrics) {
    Metrics->counter("store.snapshots_read").add();
    if (Time)
      Metrics->latency("store.snapshot_read")
          .recordNanos(Time->nowNanos() - Start);
  }
  if (Trace && Time)
    Trace->completeSpan("store.snapshot_read", 0, Start, Time->nowNanos());
  return Parsed;
}

Result<ResultsStore::RecoveredSnapshot>
ResultsStore::readSnapshotWithFallback(const std::string &Path) const {
  Result<MomentSnapshot> Primary = readSnapshot(Path);
  if (Primary)
    return RecoveredSnapshot{std::move(Primary).value(), false};
  const std::string Backup = backupPath(Path);
  if (fileExists(Backup)) {
    Result<MomentSnapshot> Previous = readSnapshot(Backup);
    if (Previous) {
      if (Metrics)
        Metrics->counter("store.snapshot_fallbacks").add();
      return RecoveredSnapshot{std::move(Previous).value(), true};
    }
  }
  // Both generations unreadable: the primary's error is the useful one.
  return Primary.status();
}

Status ResultsStore::writeResults(const EstimatorMatrix &Merged,
                                  const RunLogInfo &Log,
                                  double ErrorMultiplier) const {
  if (Merged.sampleVolume() <= 0)
    return failedPrecondition("cannot write results with zero volume");

  std::vector<double> Means, AbsoluteErrors, RelativeErrors, Variances;
  Merged.computeMatrices(&Means, &AbsoluteErrors, &RelativeErrors,
                         &Variances, ErrorMultiplier);

  // func.dat: one row of the mean matrix per line.
  std::string MeansText;
  MeansText.reserve(ScientificFieldChars * Means.size());
  for (size_t Row = 0; Row < Merged.rows(); ++Row) {
    for (size_t Column = 0; Column < Merged.columns(); ++Column) {
      if (Column > 0)
        MeansText += ' ';
      appendScientific(MeansText, Means[Row * Merged.columns() + Column]);
    }
    MeansText += '\n';
  }
  if (Status Written =
          writeFileAtomic(meansPath(), sealFileContents(MeansText));
      !Written)
    return Written;

  // func_ci.dat: one entry per line with all four statistics.
  std::string ConfidenceText;
  ConfidenceText.reserve(64 + (16 + 4 * ScientificFieldChars) * Means.size());
  ConfidenceText += "# row col mean abs_error rel_error_percent variance\n";
  for (size_t Row = 0; Row < Merged.rows(); ++Row) {
    for (size_t Column = 0; Column < Merged.columns(); ++Column) {
      const size_t Index = Row * Merged.columns() + Column;
      ConfidenceText += std::to_string(Row + 1);
      ConfidenceText += ' ';
      ConfidenceText += std::to_string(Column + 1);
      for (double Value : {Means[Index], AbsoluteErrors[Index],
                           RelativeErrors[Index], Variances[Index]}) {
        ConfidenceText += ' ';
        appendScientific(ConfidenceText, Value);
      }
      ConfidenceText += '\n';
    }
  }
  if (Status Written = writeFileAtomic(confidencePath(),
                                       sealFileContents(ConfidenceText));
      !Written)
    return Written;

  // func_log.dat: the run summary of §3.6.
  std::string LogText;
  LogText += "total_sample_volume " + std::to_string(Log.TotalSampleVolume) +
             "\n";
  LogText += "new_sample_volume " + std::to_string(Log.NewSampleVolume) +
             "\n";
  LogText += "mean_time_per_realization_seconds " +
             formatScientific(Log.MeanRealizationSeconds, 6) + "\n";
  LogText += "elapsed_seconds " + formatScientific(Log.ElapsedSeconds, 6) +
             "\n";
  LogText += "max_absolute_error " +
             formatScientific(Log.MaxAbsoluteError, 6) + "\n";
  LogText += "max_relative_error_percent " +
             formatScientific(Log.MaxRelativeErrorPercent, 6) + "\n";
  LogText += "max_variance " + formatScientific(Log.MaxVariance, 6) + "\n";
  LogText += "processors " + std::to_string(Log.ProcessorCount) + "\n";
  LogText += "experiment " + std::to_string(Log.SequenceNumber) + "\n";
  LogText += std::string("resumed ") + (Log.Resumed ? "1" : "0") + "\n";
  LogText += std::string("degraded ") + (Log.Degraded ? "1" : "0") + "\n";
  LogText += "dead_workers " + std::to_string(Log.DeadWorkerCount) + "\n";
  LogText += std::string("resumed_from_backup ") +
             (Log.ResumedFromBackup ? "1" : "0") + "\n";
  return writeFileAtomic(logPath(), sealFileContents(LogText));
}

/// Parses exactly eight lowercase/uppercase hex digits.
static Result<uint32_t> parseCrc32(std::string_view Hex) {
  if (Hex.size() != 8)
    return parseError("CRC suffix must be eight hex digits");
  uint32_t Value = 0;
  for (char Digit : Hex) {
    Value <<= 4;
    if (Digit >= '0' && Digit <= '9')
      Value |= uint32_t(Digit - '0');
    else if (Digit >= 'a' && Digit <= 'f')
      Value |= uint32_t(Digit - 'a' + 10);
    else if (Digit >= 'A' && Digit <= 'F')
      Value |= uint32_t(Digit - 'A' + 10);
    else
      return parseError("CRC suffix holds a non-hex digit");
  }
  return Value;
}

Status ResultsStore::appendExperimentLog(const RunLogInfo &Log) const {
  std::string Line = "experiment " + std::to_string(Log.SequenceNumber) +
                     " resumed " + (Log.Resumed ? "1" : "0") +
                     " processors " + std::to_string(Log.ProcessorCount) +
                     " start_volume " +
                     std::to_string(Log.TotalSampleVolume);
  // The backend field is appended only when known, so registries written
  // by older engines and new ones interleave in one file.
  if (!Log.RngBackend.empty())
    Line += " rng " + Log.RngBackend;
  // Per-line CRC over everything before the suffix: the whole-file seal
  // does not fit an append-only registry, but a torn or rotted line must
  // still be detectable on load.
  Line += " crc " + formatCrc32Hex(crc32(Line));
  // Durable O_APPEND write: the registry accumulates one line per started
  // experiment across the directory's lifetime, and a crash mid-append can
  // tear at most the line being written — which the CRC then catches.
  return appendLineDurable(experimentLogPath(), Line + "\n");
}

Result<ResultsStore::ExperimentLogContents>
ResultsStore::readExperimentLog() const {
  ExperimentLogContents Registry;
  if (!fileExists(experimentLogPath()))
    return Registry; // no experiments started yet
  Result<std::string> Contents = readFileToString(experimentLogPath());
  if (!Contents)
    return Contents.status();
  int LineNumber = 0;
  for (std::string_view Line : splitChar(Contents.value(), '\n')) {
    ++LineNumber;
    std::string_view Stripped = trim(Line);
    if (Stripped.empty() || Stripped[0] == '#')
      continue;
    // Verify the CRC suffix when present (pre-CRC-era lines have none).
    std::string_view Body = Stripped;
    const size_t CrcAt = Stripped.rfind(" crc ");
    if (CrcAt != std::string_view::npos) {
      Result<uint32_t> Declared = parseCrc32(trim(Stripped.substr(CrcAt + 5)));
      Body = Stripped.substr(0, CrcAt);
      if (!Declared || Declared.value() != crc32(Body)) {
        Registry.SkippedLines.push_back(LineNumber);
        continue;
      }
    }
    auto Fields = splitWhitespace(Body);
    ExperimentLogEntry Entry;
    bool Parsed = false;
    // Eight fields is the pre-backend-era line; ten adds "rng <token>".
    const bool Shape =
        (Fields.size() == 8 ||
         (Fields.size() == 10 && Fields[8] == "rng")) &&
        Fields[0] == "experiment" && Fields[2] == "resumed" &&
        Fields[4] == "processors" && Fields[6] == "start_volume";
    if (Shape) {
      Result<uint64_t> Sequence = parseUInt64(Fields[1]);
      Result<int64_t> Resumed = parseInt64(Fields[3]);
      Result<int64_t> Processors = parseInt64(Fields[5]);
      Result<int64_t> Volume = parseInt64(Fields[7]);
      if (Sequence && Resumed && Processors && Volume) {
        Entry.SequenceNumber = Sequence.value();
        Entry.Resumed = Resumed.value() != 0;
        Entry.ProcessorCount = int(Processors.value());
        Entry.StartVolume = Volume.value();
        if (Fields.size() == 10)
          Entry.RngBackend = std::string(Fields[9]);
        Parsed = true;
      }
    }
    if (Parsed)
      Registry.Entries.push_back(Entry);
    else
      Registry.SkippedLines.push_back(LineNumber);
  }
  return Registry;
}

Result<std::vector<double>> ResultsStore::readMeans(size_t Rows,
                                                    size_t Columns) const {
  Result<std::string> Contents = readFileToString(meansPath());
  if (!Contents)
    return Contents.status();
  std::string Body = std::move(Contents).value();
  if (hasFileSeal(Body)) {
    Result<std::string> Unsealed = unsealFileContents(meansPath(), Body);
    if (!Unsealed)
      return Unsealed.status();
    Body = std::move(Unsealed).value();
  }
  std::vector<double> Means;
  Means.reserve(Rows * Columns);
  for (std::string_view Line : splitChar(Body, '\n')) {
    std::string_view Stripped = trim(Line);
    if (Stripped.empty() || Stripped[0] == '#')
      continue;
    for (std::string_view Field : splitWhitespace(Stripped)) {
      Result<double> Value = parseDouble(Field);
      if (!Value)
        return Value.status();
      Means.push_back(Value.value());
    }
  }
  if (Means.size() != Rows * Columns)
    return parseError("'" + meansPath() + "' holds " +
                      std::to_string(Means.size()) + " entries, expected " +
                      std::to_string(Rows * Columns));
  return Means;
}

std::vector<std::pair<int, std::string>>
ResultsStore::listSubtotalFiles() const {
  std::vector<std::pair<int, std::string>> Files;
  std::error_code Error;
  std::filesystem::directory_iterator Directory(subtotalsDir(), Error);
  if (Error)
    return Files;
  for (const auto &Entry : Directory) {
    const std::string Name = Entry.path().filename().string();
    if (!startsWith(Name, "rank_") || Entry.path().extension() != ".dat")
      continue;
    Result<int64_t> Rank =
        parseInt64(Name.substr(5, Name.size() - 5 - 4));
    if (!Rank)
      continue;
    Files.emplace_back(int(Rank.value()), Entry.path().string());
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

Status ResultsStore::clearPreviousRun() const {
  std::error_code Error;
  for (const std::string &Path :
       {checkpointPath(), basePath(), meansPath(), confidencePath(),
        logPath(), metricsPath(), tracePath()}) {
    std::filesystem::remove(Path, Error); // missing files are fine
    std::filesystem::remove(backupPath(Path), Error);
  }
  for (const auto &[Rank, Path] : listSubtotalFiles()) {
    std::filesystem::remove(Path, Error);
    std::filesystem::remove(backupPath(Path), Error);
  }
  // The sharded checkpoint tree (manifest + shards) belongs to the run
  // being discarded as well.
  std::filesystem::remove_all(checkpointDir(), Error);
  return Status::ok();
}

std::string histogramPath(const ResultsStore &Store, size_t Row,
                          size_t Column) {
  return Store.resultsDir() + "/hist_r" + std::to_string(Row + 1) + "_c" +
         std::to_string(Column + 1) + ".dat";
}

Result<MomentSnapshot> runManualAverage(const ResultsStore &Store,
                                        double ErrorMultiplier,
                                        std::vector<std::string> *RecoveredPaths) {
  // Start from the base (resumed) moments if present, else from scratch
  // with the shape of the first subtotal.
  const auto SubtotalFiles = Store.listSubtotalFiles();
  if (SubtotalFiles.empty() && !fileExists(Store.basePath()))
    return notFound("no base.dat and no subtotal files under " +
                    Store.subtotalsDir());

  MomentSnapshot Merged;
  bool HaveShape = false;
  if (fileExists(Store.basePath())) {
    Result<ResultsStore::RecoveredSnapshot> Base =
        Store.readSnapshotWithFallback(Store.basePath());
    if (!Base)
      return Base.status();
    if (Base.value().FromBackup && RecoveredPaths)
      RecoveredPaths->push_back(Store.basePath());
    Merged = std::move(Base).value().Snapshot;
    HaveShape = true;
  }

  for (const auto &[Rank, Path] : SubtotalFiles) {
    Result<ResultsStore::RecoveredSnapshot> Recovered =
        Store.readSnapshotWithFallback(Path);
    if (!Recovered)
      return Recovered.status();
    if (Recovered.value().FromBackup && RecoveredPaths)
      RecoveredPaths->push_back(Path);
    const MomentSnapshot &Part = Recovered.value().Snapshot;
    if (!HaveShape) {
      Merged.Moments =
          EstimatorMatrix(Part.Moments.rows(), Part.Moments.columns());
      Merged.SequenceNumber = Part.SequenceNumber;
      HaveShape = true;
    }
    if (Status MergedOk = Merged.Moments.merge(Part.Moments); !MergedOk)
      return MergedOk;
    if (Merged.Histograms.empty() && !Part.Histograms.empty() &&
        Merged.Moments.sampleVolume() == Part.Moments.sampleVolume())
      // First contribution defines the histogram set (no base file case).
      Merged.Histograms = Part.Histograms;
    else if (Part.Histograms.size() != Merged.Histograms.size())
      return failedPrecondition(
          "subtotal files disagree on histogram observables");
    else
      for (size_t Index = 0; Index < Merged.Histograms.size(); ++Index)
        if (Status HistogramOk =
                Merged.Histograms[Index].merge(Part.Histograms[Index]);
            !HistogramOk)
          return HistogramOk;
    Merged.ComputeSeconds += Part.ComputeSeconds;
    Merged.SequenceNumber = Part.SequenceNumber;
  }

  if (Merged.Moments.sampleVolume() <= 0)
    return failedPrecondition("manual average found zero sample volume");

  RunLogInfo Log;
  Log.TotalSampleVolume = Merged.Moments.sampleVolume();
  Log.NewSampleVolume = 0; // unknown after a crash; manaver reports totals
  Log.MeanRealizationSeconds =
      Merged.ComputeSeconds / double(Merged.Moments.sampleVolume());
  Log.SequenceNumber = Merged.SequenceNumber;
  Log.ProcessorCount = int(SubtotalFiles.size());
  const ErrorBounds Bounds = Merged.Moments.errorBounds(ErrorMultiplier);
  Log.MaxAbsoluteError = Bounds.MaxAbsoluteError;
  Log.MaxRelativeErrorPercent = Bounds.MaxRelativeError;
  Log.MaxVariance = Bounds.MaxVariance;

  if (Status Written =
          Store.writeResults(Merged.Moments, Log, ErrorMultiplier);
      !Written)
    return Written;
  if (Status Written = Store.writeSnapshot(Store.checkpointPath(), Merged);
      !Written)
    return Written;
  return Merged;
}

} // namespace parmonc
