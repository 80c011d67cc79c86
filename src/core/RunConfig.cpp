//===- core/RunConfig.cpp - Simulation run configuration ------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/RunConfig.h"

#include "parmonc/fault/FaultPlan.h"

#include <string>

namespace parmonc {

Status RunConfig::validate() const {
  if (Rows < 1 || Columns < 1)
    return invalidArgument("realization matrix must be at least 1x1");
  if (MaxSampleVolume < 1)
    return invalidArgument("maximal sample volume must be >= 1");
  if (ProcessorCount < 1)
    return invalidArgument("processor count must be >= 1");
  if (Status LeapsOk = Leaps.validate(); !LeapsOk)
    return LeapsOk;
  const unsigned MaxProcessorsLog2 = Leaps.maxProcessorsLog2();
  if (MaxProcessorsLog2 < 63 &&
      uint64_t(ProcessorCount) > (uint64_t(1) << MaxProcessorsLog2))
    return invalidArgument(
        "processor count exceeds the hierarchy capacity 2^" +
        std::to_string(MaxProcessorsLog2));
  const unsigned MaxExperimentsLog2 = Leaps.maxExperimentsLog2();
  if (MaxExperimentsLog2 < 63 &&
      SequenceNumber >= (uint64_t(1) << MaxExperimentsLog2))
    return invalidArgument(
        "experiment number exceeds the hierarchy capacity 2^" +
        std::to_string(MaxExperimentsLog2));
  if (PassPeriodNanos < 0 || AveragePeriodNanos < 0 || TimeLimitNanos < 0)
    return invalidArgument("periods must be non-negative");
  if (ErrorMultiplier <= 0.0)
    return invalidArgument("error multiplier must be positive");
  if (TargetMaxAbsoluteError < 0.0 || TargetMaxRelativeErrorPercent < 0.0)
    return invalidArgument("error targets must be non-negative");
  if (WorkDir.empty())
    return invalidArgument("work directory must not be empty");
  for (const HistogramSpec &Spec : Histograms) {
    if (Spec.Row >= Rows || Spec.Column >= Columns)
      return invalidArgument("histogram observable outside the matrix");
    if (Spec.Low >= Spec.High)
      return invalidArgument("histogram range is empty");
    if (Spec.BinCount < 1)
      return invalidArgument("histogram needs at least one bin");
  }
  if (SendMaxAttempts < 1)
    return invalidArgument("send attempts must be >= 1");
  if (SendRetryBackoffNanos < 0 || WorkerDeadlineNanos < 0)
    return invalidArgument("retry backoff and worker deadline must be "
                           "non-negative");
  if (CheckpointAsync && !CheckpointShards)
    return invalidArgument(
        "asynchronous checkpointing requires CheckpointShards");
  if (CheckpointQueueDepth < 1)
    return invalidArgument("checkpoint queue depth must be >= 1");
  if (CheckpointKeepShards < 1)
    return invalidArgument("checkpoint shard retention must be >= 1");
  if (WorkerThreadsPerRank < 1)
    return invalidArgument("worker threads per rank must be >= 1");
  if (WorkerThreadsPerRank > 1) {
    const unsigned MaxRealizationsLog2 = Leaps.maxRealizationsLog2();
    if (MaxRealizationsLog2 < 63 &&
        uint64_t(WorkerThreadsPerRank) > (uint64_t(1) << MaxRealizationsLog2))
      return invalidArgument(
          "worker thread count exceeds the per-processor realization "
          "capacity 2^" +
          std::to_string(MaxRealizationsLog2));
    if (Faults && !Faults->WorkerCrashes.empty())
      return invalidArgument(
          "injected worker crashes model whole-rank death and require "
          "WorkerThreadsPerRank == 1");
  }
  if (Transport == TransportKind::Processes && !DeterministicSchedule)
    return invalidArgument(
        "the process transport has no cross-process work counter; "
        "DeterministicSchedule must be on so every rank owns a fixed "
        "quota");
  if (Faults && Transport != TransportKind::Processes)
    for (const fault::WorkerCrashSpec &Crash : Faults->WorkerCrashes)
      if (Crash.RaiseKillSignal)
        return invalidArgument(
            "RaiseKillSignal kills a worker with SIGKILL and requires "
            "Transport == TransportKind::Processes");
  if (Faults)
    if (Status PlanOk = Faults->validate(); !PlanOk)
      return PlanOk;
  return Status::ok();
}

} // namespace parmonc
