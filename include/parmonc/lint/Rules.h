//===- parmonc/lint/Rules.h - The enforced project invariants -------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-checkable invariants mclint enforces. Each rule guards one
/// way a Monte Carlo run can go silently wrong (see DESIGN.md, "Enforced
/// invariants", and docs/LINT_RULES.md for rationale and examples):
///
///   R1  discarded-status     — no fallible call may drop its Status/Result;
///                              a swallowed save-point failure corrupts the
///                              eq. (5) merged results undetectably.
///   R2  nondeterminism       — no wall-clock/entropy sources outside the
///                              support/Clock.h seam; reproducibility of the
///                              §2.4 stream hierarchy depends on it.
///   R3  raw-concurrency      — thread/mutex/atomic primitives only inside
///                              mpsim/, obs/ and core/ (where R8 applies the
///                              stricter mailbox-discipline check instead).
///   R4  include-hygiene      — canonical PARMONC_* header guards, quoted
///                              includes only for project headers, no
///                              <bits/...>, no using-namespace in headers.
///   R5  narrowing-estimator  — no float in stats/ and core/: the eq. (5)
///                              moment sums must stay double end to end.
///   R6  stream-discipline    — no Lcg128/LcgPow2 seeding or raw-recurrence
///                              stepping outside rng/; realization code must
///                              obtain randomness from the cursor so the
///                              eq. (8) leap partition is never bypassed.
///   R7  unchecked-snapshot   — a sealed-checkpoint load must reach the
///                              readSnapshotWithFallback/".prev" path.
///   R8  mailbox-discipline   — core/ must not use raw std:: synchronization
///                              directly nor call functions that do; all
///                              cross-thread state flows through
///                              mpsim::Mailbox / WorkerGroup.
///   R9  include-layering     — no include cycles, no upward layer includes
///                              (e.g. rng/ including core/).
///   R10 stale-waiver         — a waiver whose rule no longer fires on its
///                              lines is itself a diagnostic.
///
/// The flow-sensitive rules run a forward dataflow over per-function CFGs
/// (Cfg.h, Dataflow.h) and attach step-by-step witness paths to their
/// findings (SARIF code flows):
///
///   R11 must-check           — a Status/Result local must be consumed on
///                              every path before scope exit; inside
///                              analyzable bodies it supersedes R1, which
///                              stands down there (see
///                              LintContext::FlowRulesActive).
///   R12 stream-lifecycle     — a stream handle must not be copied, escape
///                              by reference into a lambda, or be touched
///                              after std::move handoff to a worker.
///   R13 wire-protocol        — frame sends follow the session state
///                              machine (no sends after Goodbye/Abort, one
///                              Hello) and FrameDecoder results are
///                              checked before their value is consumed.
///
/// The interprocedural rules follow call chains across translation units
/// through the project call graph and the bottom-up function summaries
/// (CallGraph.h, Summary.h); their witness paths span files:
///
///   R14 determinism-taint    — wall-clock/entropy/environment reads,
///                              unordered iteration order and pointer
///                              hashing must not flow through any call
///                              chain into estimator accumulation,
///                              snapshot payloads or the parmonc_exp.dat
///                              registry; obs/ and support/Clock.h are the
///                              sanctioned carriers.
///   R15 lock-discipline      — a field written under a lock somewhere
///                              must be locked everywhere, including in
///                              helpers only ever called with the lock
///                              held; double-acquires through a callee and
///                              raw locks leaked on early return are
///                              flagged.
///   R16 deep-must-check      — a Status/Result forwarded up a call chain
///                              (e.g. through `auto` wrappers returning a
///                              fallible callee's result) must be consumed
///                              by some frame; extends R11 past the
///                              declared-type heuristic.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_RULES_H
#define PARMONC_LINT_RULES_H

#include "parmonc/lint/Diagnostic.h"
#include "parmonc/lint/Index.h"
#include "parmonc/lint/SourceFile.h"

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {
namespace lint {

/// One enforced invariant.
///
/// Rules emit every violation they find; the analyzer applies waivers
/// centrally (so it can also audit unused waivers for R10) and filters the
/// diagnostics afterwards.
class Rule {
public:
  virtual ~Rule() = default;

  /// Stable identifier, "R1".."R16".
  virtual std::string_view id() const = 0;

  /// Short kebab-case name, e.g. "discarded-status".
  virtual std::string_view name() const = 0;

  /// One-line description for `mclint --list-rules`.
  virtual std::string_view summary() const = 0;

  /// A paragraph explaining why the rule exists (`mclint --explain R6`).
  virtual std::string_view rationale() const = 0;

  /// A short violating/compliant example pair (`mclint --explain R6`).
  virtual std::string_view example() const = 0;

  /// Appends a diagnostic to \p Out for every violation in \p File.
  virtual void check(const SourceFile &File, const LintContext &Context,
                     std::vector<Diagnostic> &Out) const {
    (void)File;
    (void)Context;
    (void)Out;
  }

  /// Project-wide pass over the index, for rules whose evidence spans
  /// files (R9). Runs once per analysis, after every per-file check.
  virtual void checkProject(const ProjectIndex &Index,
                            const LintContext &Context,
                            std::vector<Diagnostic> &Out) const {
    (void)Index;
    (void)Context;
    (void)Out;
  }

  /// True when the rule checks one file at a time through check(). False
  /// for rules that walk the whole project index through checkProject()
  /// (R9) or are synthesized by the analyzer (R10).
  virtual bool isPerFile() const { return true; }
};

/// All rules, in id order.
std::vector<std::unique_ptr<Rule>> makeAllRules();

/// The flow-sensitive rules, defined in FlowRules.cpp.
std::unique_ptr<Rule> makeMustCheckRule();       ///< R11
std::unique_ptr<Rule> makeStreamLifecycleRule(); ///< R12
std::unique_ptr<Rule> makeWireProtocolRule();    ///< R13

/// The interprocedural rules, defined in InterRules.cpp. They consult
/// LintContext::Summaries / Graph and stand down when the summary stage
/// did not run.
std::unique_ptr<Rule> makeDeterminismTaintRule(); ///< R14
std::unique_ptr<Rule> makeLockDisciplineRule();   ///< R15
std::unique_ptr<Rule> makeDeepMustCheckRule();    ///< R16

/// The project's fallible APIs that R1 knows about even when their headers
/// are outside the scanned roots.
std::set<std::string, std::less<>> builtinFallibleFunctions();

/// Adds every function \p File declares [[nodiscard]] to \p Names.
void harvestNodiscardFunctions(const SourceFile &File,
                               std::set<std::string, std::less<>> &Names);

/// True when \p Text contains \p Token bounded by non-identifier chars.
/// Returns the offset of the first such occurrence, or npos.
size_t findWordToken(std::string_view Text, std::string_view Token);

/// The std:: synchronization type names R3/R8 ban and the project index
/// uses as its taint evidence.
const std::vector<std::string_view> &rawConcurrencyTypeNeedles();

/// The concurrency headers R3/R8 ban (`<thread>`, `<mutex>`, ...).
const std::vector<std::string_view> &rawConcurrencyIncludeNeedles();

/// The raw socket identifiers R8 bans outside mpsim/ (`socketpair`,
/// `AF_UNIX`, ...): wire I/O belongs to the transport layer.
const std::vector<std::string_view> &rawSocketTokenNeedles();

/// The socket headers R8 bans outside mpsim/ (`<sys/socket.h>`, ...).
const std::vector<std::string_view> &rawSocketIncludeNeedles();

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_RULES_H
