//===- parmonc/lint/Diagnostic.h - Lint findings --------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The finding type produced by mclint rules and its rendering. One
/// diagnostic pins one rule violation to a file and line; the textual form
///
///   <path>:<line>: warning: <message> [R3:raw-concurrency]
///
/// is byte-stable so the lint test fixtures can assert exact output and CI
/// logs stay greppable.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_DIAGNOSTIC_H
#define PARMONC_LINT_DIAGNOSTIC_H

#include <string>
#include <vector>

namespace parmonc {
namespace lint {

/// A mechanically safe, line-granular repair attached to a diagnostic.
/// Applied by `mclint --fix`: either the whole line is replaced by NewText
/// or deleted outright.
struct FixIt {
  unsigned Line = 0;      ///< 1-based line to edit.
  bool RemoveLine = false; ///< Delete the line instead of replacing it.
  std::string NewText;    ///< Replacement text (without trailing newline).
};

/// One step of a flow-sensitive finding's witness path, in source order.
/// A step defaults to the diagnostic's own file (the CFG rules R11-R13
/// never leave it); the interprocedural rules (R14-R16) set Path on steps
/// that land in another translation unit, and SARIF renders each step at
/// its own location.
struct FlowStep {
  FlowStep() = default;
  FlowStep(unsigned Line, unsigned Column, std::string Message,
           std::string Path = {})
      : Line(Line), Column(Column), Message(std::move(Message)),
        Path(std::move(Path)) {}

  unsigned Line = 0;   ///< 1-based line number.
  unsigned Column = 0; ///< 1-based column, 0 when unknown.
  std::string Message; ///< What happens at this step.
  /// File the step points into; empty means the diagnostic's own file.
  std::string Path;
};

/// One rule violation at a specific source location.
struct Diagnostic {
  Diagnostic() = default;
  /// The token-level rules' one-liner: location + identity + message,
  /// optionally with an autofix. Flow and Column stay at their defaults;
  /// the flow rules (R11-R13) fill those in member-by-member.
  Diagnostic(std::string Path, unsigned Line, std::string RuleId,
             std::string RuleName, std::string Message,
             std::vector<FixIt> Fixes = {})
      : Path(std::move(Path)), Line(Line), RuleId(std::move(RuleId)),
        RuleName(std::move(RuleName)), Message(std::move(Message)),
        Fixes(std::move(Fixes)) {}

  std::string Path;   ///< File path as given to the analyzer.
  unsigned Line = 0;  ///< 1-based line number.
  std::string RuleId; ///< "R1".."R16".
  std::string RuleName; ///< e.g. "discarded-status".
  std::string Message;  ///< Human-readable explanation.
  std::vector<FixIt> Fixes; ///< Optional autofix (R4, R10).
  /// Witness path for flow-sensitive findings (R11-R13), rendered as a
  /// SARIF codeFlow. Empty for token-level findings.
  std::vector<FlowStep> Flow;
  /// 1-based column, 0 when unknown. Token-level rules leave this 0 and
  /// nothing downstream renders it; the flow rules set it so SARIF regions
  /// and code-flow steps point at the exact token.
  unsigned Column = 0;
};

/// Renders one diagnostic. \p AsError selects "error:" over "warning:"
/// (mclint --werror).
std::string formatDiagnostic(const Diagnostic &Diag, bool AsError);

/// Sorts by (path, line, rule id, column, message) — a total order, so
/// output is byte-identical regardless of rule execution order or --jobs
/// count.
void sortDiagnostics(std::vector<Diagnostic> &Diags);

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_DIAGNOSTIC_H
