//===- parmonc/rng/StreamHierarchy.h - Leap-ahead stream partition --------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's three-level partition of the general sequence {alpha_k}
/// (§2.4). "Leaps" of length n are taken with the auxiliary generator
///
///   û_0 = 1, û_{m+1} = û_m * A(n) (mod 2^128),  A(n) = A^n (mod 2^128)
///
/// producing the initial numbers of disjoint subsequences:
///
///   general sequence  ⊃ "experiments"  subsequences  (leap n_e = 2^115)
///   experiment        ⊃ "processors"   subsequences  (leap n_p = 2^98)
///   processor         ⊃ "realizations" subsequences  (leap n_r = 2^43)
///
/// so experiment e / processor p / realization k starts at
/// u = A(n_e)^e * A(n_p)^p * A(n_r)^k (mod 2^128) — position
/// e*n_e + p*n_p + k*n_r of the general sequence. With the defaults one
/// gets 2^10 experiments x 2^17 processors x 2^55 realizations, each
/// realization owning 2^43 ≈ 10^13 numbers, all within the recommended
/// first half (2^125) of the period.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_RNG_STREAMHIERARCHY_H
#define PARMONC_RNG_STREAMHIERARCHY_H

#include "parmonc/int128/UInt128.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/LeapWindow.h"
#include "parmonc/support/Status.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

namespace parmonc {

/// The three leap lengths, stored as exponents of two. This is what the
/// genparam tool computes and what parmonc_genparam.dat stores.
struct LeapConfig {
  /// Experiment leap exponent: n_e = 2^ExperimentLog2.
  unsigned ExperimentLog2 = DefaultExperimentLog2;
  /// Processor leap exponent: n_p = 2^ProcessorLog2.
  unsigned ProcessorLog2 = DefaultProcessorLog2;
  /// Realization leap exponent: n_r = 2^RealizationLog2.
  unsigned RealizationLog2 = DefaultRealizationLog2;

  static constexpr unsigned DefaultExperimentLog2 = 115;
  static constexpr unsigned DefaultProcessorLog2 = 98;
  static constexpr unsigned DefaultRealizationLog2 = 43;

  /// Checks the paper's ordering requirement n_e > n_p > n_r and that the
  /// experiment subsequences fit in the usable half of the period.
  [[nodiscard]] Status validate() const;

  /// Capacity at each level implied by the exponents, as log2 counts:
  /// usable half / n_e experiments, n_e / n_p processors per experiment,
  /// n_p / n_r realizations per processor.
  unsigned maxExperimentsLog2() const {
    return Lcg128::UsableLog2 - ExperimentLog2;
  }
  unsigned maxProcessorsLog2() const { return ExperimentLog2 - ProcessorLog2; }
  unsigned maxRealizationsLog2() const {
    return ProcessorLog2 - RealizationLog2;
  }
};

/// Precomputed leap multipliers A(n_e), A(n_p), A(n_r) for a multiplier A,
/// plus the windowed power table of A that makes every later A^n query
/// O(log n) (see LeapWindow.h and docs/RNG.md#windowed-leap).
class LeapTable {
public:
  /// Builds the windowed power table of \p Multiplier and reads the three
  /// leap multipliers A(2^Config.*Log2) mod 2^128 out of it. \p Config
  /// must validate().
  LeapTable(UInt128 Multiplier, const LeapConfig &Config);

  /// Default table: A = 5^101, default exponents.
  LeapTable() : LeapTable(Lcg128::defaultMultiplier(), LeapConfig()) {}

  UInt128 experimentLeap() const { return ExperimentLeap; }
  UInt128 processorLeap() const { return ProcessorLeap; }
  UInt128 realizationLeap() const { return RealizationLeap; }
  UInt128 baseMultiplier() const { return BaseMultiplier; }
  const LeapConfig &config() const { return Config; }

  /// A^Exponent (mod 2^128) through the windowed table: at most 31
  /// multiplies for any 128-bit exponent, bit-identical to
  /// UInt128::powModPow2 on the same inputs.
  UInt128 powerOfBase(UInt128 Exponent) const {
    return BaseWindow->pow(Exponent);
  }

  /// The underlying windowed table of the base multiplier. Shared (and
  /// immutable) across every copy of this LeapTable — copying a table
  /// into a RealizationCursor does not re-derive the 8 KiB of windows.
  const PowerWindow &baseWindow() const { return *BaseWindow; }

  /// Serializes to the parmonc_genparam.dat format (§3.5).
  std::string toFileContents() const;

  /// Parses a parmonc_genparam.dat and revalidates the multipliers against
  /// the recorded exponents, so a corrupted file cannot silently produce
  /// overlapping streams.
  [[nodiscard]] static Result<LeapTable> fromFileContents(std::string_view Contents);

  /// Loads from \p Path if the file exists, otherwise returns the default
  /// table — matching the library behaviour described in §3.5.
  [[nodiscard]] static Result<LeapTable> loadOrDefault(const std::string &Path);

private:
  LeapConfig Config;
  UInt128 BaseMultiplier;
  UInt128 ExperimentLeap;
  UInt128 ProcessorLeap;
  UInt128 RealizationLeap;
  std::shared_ptr<const PowerWindow> BaseWindow;
};

/// Identifies one realization subsequence inside the hierarchy.
struct StreamCoordinates {
  uint64_t Experiment = 0;  ///< seqnum, the user-chosen experiment index.
  uint64_t Processor = 0;   ///< MPI-rank equivalent.
  uint64_t Realization = 0; ///< realization counter on that processor.
};

/// Factory for the initial numbers of the hierarchy and for per-realization
/// generator streams.
class StreamHierarchy {
public:
  explicit StreamHierarchy(LeapTable Table) : Table(std::move(Table)) {}
  StreamHierarchy() = default;

  /// Initial number u of the subsequence at \p Where:
  /// A(n_e)^e * A(n_p)^p * A(n_r)^k (mod 2^128). Asserts each index is
  /// within the capacity implied by the leap exponents.
  UInt128 initialNumber(const StreamCoordinates &Where) const;

  /// A generator positioned at the start of the realization subsequence
  /// \p Where.
  Lcg128 makeStream(const StreamCoordinates &Where) const;

  const LeapTable &leapTable() const { return Table; }

private:
  LeapTable Table;
};

/// Iterates the realization subsequences of one processor. The cursor keeps
/// the *start* of the current realization subsequence separately from any
/// consuming stream: beginning realization k+1 multiplies the start marker
/// by A(n_r), abandoning whatever tail of subsequence k went unused. That
/// abandonment is what keeps realizations independent regardless of how
/// many base numbers each one consumed (as long as it is at most n_r).
class RealizationCursor {
public:
  /// Positions the cursor at realization \p Start.Realization of processor
  /// \p Start.Processor in experiment \p Start.Experiment. \p Stride (>= 1)
  /// makes successive beginRealization() calls visit realizations
  /// Start.Realization, Start.Realization + Stride, ... — the leap-ahead
  /// partition the threaded engine uses to give each of N worker threads
  /// every N-th realization subsequence: thread t strides by N from start
  /// index t, and the N cursors jointly cover exactly the serial stream
  /// assignment. The stride leap A(n_r)^Stride = A^(Stride·2^nr) is read
  /// from the table's power window (O(log n) multiplies, no squaring
  /// chain), so striding costs the same one multiply per realization as
  /// stride 1.
  RealizationCursor(const StreamHierarchy &Hierarchy, StreamCoordinates Start,
                    uint64_t Stride = 1)
      : Table(Hierarchy.leapTable()),
        StartState(Hierarchy.initialNumber(Start)),
        StrideLeap(Stride == 1
                       ? Table.realizationLeap()
                       : Table.powerOfBase(
                             UInt128(Stride)
                             << Table.config().RealizationLog2)),
        NextRealization(Start.Realization), Stride(Stride) {
    assert(Stride >= 1 && "cursor stride must be at least 1");
  }

  /// Index of the realization the next beginRealization() call will start.
  uint64_t nextRealizationIndex() const { return NextRealization; }

  /// The stride between successive realization indices (1 = every one).
  uint64_t stride() const { return Stride; }

  /// Returns a generator positioned at the start of the next realization
  /// subsequence and advances the cursor by the stride.
  Lcg128 beginRealization() {
    Lcg128 Stream(Table.baseMultiplier(), StartState);
    StartState = StartState * StrideLeap;
    NextRealization += Stride;
    return Stream;
  }

  /// Advances the cursor by one stride without touching the LCG state —
  /// for backends (Philox) that position by the cursor's *coordinates*
  /// rather than by its leap-multiplied state.
  void noteRealizationIssued() { NextRealization += Stride; }

  /// Skips \p Count *stride steps* (i.e. Count * stride() realization
  /// subsequences) without producing streams — used when resuming a
  /// processor mid-run.
  void skipRealizations(uint64_t Count) {
    StartState = StartState *
                 UInt128::powModPow2(StrideLeap, UInt128(Count), 128);
    NextRealization += Count * Stride;
  }

private:
  LeapTable Table;
  UInt128 StartState;
  UInt128 StrideLeap;
  uint64_t NextRealization;
  uint64_t Stride = 1;
};

} // namespace parmonc

#endif // PARMONC_RNG_STREAMHIERARCHY_H
