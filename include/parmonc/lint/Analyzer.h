//===- parmonc/lint/Analyzer.h - Project-wide lint driver -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver behind the mclint tool. One run is a pipeline:
///
///   collect files -> lex / extract facts -> build the project index,
///   cross-file context and function summaries -> per-file rules ->
///   project-wide rules (R9) -> central waiver filtering -> stale-waiver
///   synthesis (R10) -> sorted diagnostics.
///
/// Waivers are applied here, centrally, rather than inside each rule: the
/// analyzer is the only place that can know a waiver suppressed nothing
/// at all, which is exactly what R10 reports.
///
/// The library form exists so the lint test suite can run the analyzer
/// in-process against fixture trees and assert exact findings.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_ANALYZER_H
#define PARMONC_LINT_ANALYZER_H

#include "parmonc/lint/Diagnostic.h"
#include "parmonc/support/Status.h"

#include <string>
#include <vector>

namespace parmonc {
namespace lint {

/// What to lint and how strictly.
struct AnalyzerOptions {
  /// Files and/or directories; directories are walked recursively for
  /// .h/.hpp/.cpp/.cc/.cxx files. Build trees (build*/), dot directories
  /// and lint fixture trees (fixtures/) are skipped — fixtures are full
  /// of deliberate violations and are linted by naming them as a root.
  /// A file reached under several spellings is analyzed once.
  std::vector<std::string> Paths;

  /// Rule ids or names to run ("R1".."R16", "stream-discipline");
  /// empty means all rules.
  std::vector<std::string> RuleIds;

  /// Compute autofixes (R4, R10) and attach them to the diagnostics.
  bool ComputeFixes = false;
};

/// Outcome of one analyzer run.
struct LintReport {
  std::vector<Diagnostic> Diagnostics;
  size_t FileCount = 0; ///< Source files scanned.
  /// The raw text of the line each diagnostic points at, for SARIF
  /// fingerprints; parallel to Diagnostics.
  std::vector<std::string> DiagnosticLineText;
};

/// Runs the analyzer. Fails (as a Status) only on environmental errors —
/// unknown rule id, unreadable path; rule findings are data, not errors.
[[nodiscard]] Result<LintReport> runAnalyzer(const AnalyzerOptions &Options);

/// Applies the FixIts attached to \p Diags to the files on disk, editing
/// bottom-up per file so line numbers stay valid, writing atomically.
/// Returns the number of files rewritten (or the first write error).
[[nodiscard]] Result<size_t> applyFixes(const std::vector<Diagnostic> &Diags);

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_ANALYZER_H
