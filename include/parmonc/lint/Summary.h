//===- parmonc/lint/Summary.h - Per-function interprocedural summaries ----===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocedural stage of the mclint pipeline: per-function evidence
/// extracted locally from each body, and the function summaries the
/// call-graph engine derives from it bottom-up over SCCs (CallGraph.h).
/// The interprocedural rules (R14-R16) consult the summaries through the
/// LintContext instead of re-walking other translation units, so a finding
/// in one file can carry a witness path whose steps span the files its
/// call chain crosses.
///
/// Evidence is deliberately token-level: it rides inside the per-file
/// facts, so the summaries are pure graph work over the index and never
/// re-walk a translation unit.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_SUMMARY_H
#define PARMONC_LINT_SUMMARY_H

#include "parmonc/lint/SourceFile.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {
namespace lint {

class ProjectIndex;
class CallGraph;

/// What kind of nondeterminism a taint source introduces (R14).
enum class TaintKind : uint8_t {
  WallClock,     ///< time(), gettimeofday(), system_clock::now(), ...
  Entropy,       ///< rand(), drand48(), std::random_device, ...
  Environment,   ///< getenv() / secure_getenv()
  UnorderedIter, ///< iteration order of an unordered container
  PointerHash,   ///< std::hash over a pointer / reinterpret_cast to uintptr_t
};

/// Human-readable label for a taint kind ("wall-clock read", ...).
std::string_view taintKindLabel(TaintKind Kind);

/// Which determinism-critical output a sink call feeds (R14).
enum class SinkKind : uint8_t {
  Estimator, ///< EstimatorMatrix accumulation
  Snapshot,  ///< snapshot / manifest payload writes
  ExpLog,    ///< the parmonc_exp.dat registry
};

/// Human-readable label for a sink kind ("estimator accumulation", ...).
std::string_view sinkKindLabel(SinkKind Kind);

/// True when \p Name is a direct determinism-taint call (time, rand,
/// getenv, ...); sets \p Kind. Shared by the evidence extractor and R14's
/// in-body argument matching.
bool taintCallName(std::string_view Name, TaintKind &Kind);

/// True when \p Name is a determinism-critical sink callee (accumulate,
/// writeSnapshot, appendExperimentLog, ...); sets \p Kind.
bool sinkCallName(std::string_view Name, SinkKind &Kind);

/// One call site inside a function body.
struct CallSiteRecord {
  std::string Callee;   ///< Unqualified callee name.
  uint32_t Line = 0;    ///< 0-based line of the callee token.
  bool UnderLock = false; ///< A lock is held at the call (linear scan).
  /// The mutexes held at the call (R15's double-acquire check compares
  /// them against the callee's transitive acquire set).
  std::vector<std::string> HeldMutexes;
};

/// One local determinism-taint source (R14).
struct TaintSiteRecord {
  TaintKind Kind = TaintKind::WallClock;
  uint32_t Line = 0; ///< 0-based line.
};

/// One local sink call (R14).
struct SinkSiteRecord {
  SinkKind Kind = SinkKind::Estimator;
  uint32_t Line = 0; ///< 0-based line.
};

/// One lock acquire/release site (R15). Scoped covers lock_guard /
/// unique_lock / scoped_lock; Acquire and Release are raw .lock()/.unlock()
/// member calls.
struct LockOpRecord {
  enum class Op : uint8_t { Scoped, Acquire, Release };
  Op Kind = Op::Scoped;
  std::string Mutex; ///< The mutex variable's (unqualified) name.
  uint32_t Line = 0; ///< 0-based line.
};

/// One write to a name that is neither a local nor a parameter — a member
/// field, in this codebase's idiom (R15).
struct FieldWriteRecord {
  std::string Field;
  bool UnderLock = false; ///< A lock is held at the write (linear scan).
  uint32_t Line = 0;      ///< 0-based line.
};

/// A `return callee(...);` statement: the function forwards the callee's
/// result as its own, which is how returns-fallible propagates through
/// `auto` wrappers (R16).
struct ReturnCallRecord {
  std::string Callee;
  uint32_t Line = 0; ///< 0-based line of the return statement.
};

/// Everything the summary engine needs to know about one function body,
/// extracted locally and serialized with the file facts.
struct FunctionEvidence {
  std::string Name;    ///< Unqualified defined name.
  uint32_t Line = 0;   ///< 0-based line of the name token.
  /// The declared return type is Status / Result<...>.
  bool ReturnsFallibleType = false;
  /// The body reads a Status/Result-typed parameter (the function consumes
  /// its caller's fallible value for it).
  bool ConsumesStatusParam = false;
  std::vector<ReturnCallRecord> ReturnCalls;
  std::vector<CallSiteRecord> Calls;
  std::vector<TaintSiteRecord> TaintSources;
  std::vector<SinkSiteRecord> Sinks;
  std::vector<LockOpRecord> LockOps;
  std::vector<FieldWriteRecord> FieldWrites;
};

/// Extracts the evidence for every function \p File defines, in source
/// order. Shares the CFG function finder with the flow rules, so the two
/// stages agree on what a "function definition" is.
std::vector<FunctionEvidence> extractFunctionEvidence(const SourceFile &File);

/// The bottom-up summary of one function (merged over its overload set:
/// same-name definitions are folded conservatively, so a call edge by name
/// covers every candidate). Derived facts hold transitively: a function
/// "taints determinism" when any call chain out of it reaches a source.
struct FunctionSummary {
  std::string File;  ///< Defining file (first definition in index order).
  uint32_t Line = 0; ///< 0-based line of that definition's name token.

  /// Returns Status/Result — by declared type or by forwarding a fallible
  /// callee's result up the chain (R16).
  bool ReturnsFallible = false;
  /// The callee the fallible return is forwarded from; empty when the
  /// declared type itself is fallible.
  std::string FallibleVia;
  /// 0-based line of the forwarding return (or of the definition).
  uint32_t FallibleLine = 0;

  /// Some call chain out of this function reaches a determinism-taint
  /// source (R14). Sanctioned layers (obs/, support/Clock.h) never carry.
  bool TaintsDeterminism = false;
  TaintKind TaintOrigin = TaintKind::WallClock;
  /// The callee the taint arrives through; empty when the source is local.
  std::string TaintVia;
  /// 0-based line of the local source or of the tainting call site.
  uint32_t TaintLine = 0;

  /// Mutexes this function acquires, directly or through any callee (R15).
  std::set<std::string> AcquiresLocks;
  /// Witness provenance per acquired mutex: the callee the acquire happens
  /// in (empty for a local acquire) and the 0-based local site line.
  std::map<std::string, std::pair<std::string, uint32_t>> LockVia;

  /// Some caller invokes this function while holding a lock; its lock-free
  /// field writes are treated as protected by the caller's lock (R15).
  bool CalledUnderLock = false;

  /// The function consumes a Status/Result parameter (R16 treats passing a
  /// fallible result into it as handled).
  bool ConsumesStatusParam = false;

  /// A stream-hierarchy handle constructed here can escape through calls
  /// (reserved evidence for the stream rules; informational).
  bool EscapesStream = false;
};

/// The project-wide summary store, name-addressed.
class SummaryStore {
public:
  const FunctionSummary *find(std::string_view Name) const {
    auto It = Map.find(Name);
    return It == Map.end() ? nullptr : &It->second;
  }

  std::map<std::string, FunctionSummary, std::less<>> Map;
};

/// Computes every summary bottom-up over the call graph's SCC condensation,
/// iterating each SCC to a fixed point so recursion converges.
SummaryStore computeSummaries(const ProjectIndex &Index,
                              const CallGraph &Graph);

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_SUMMARY_H
