//===- parmonc/lint/Index.h - Cross-TU project index for mclint -----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The middle stage of the mclint pipeline: per-file facts extracted from
/// the token stream in one pass over every TU, and the project-wide index
/// the interprocedural rules consult.
///
/// What the facts capture:
///   - the include list (for R4 and the R9 include-cycle/layering checks),
///   - [[nodiscard]] declarations and heuristic function definitions (the
///     fallible-API and taint sets for R1 and R8),
///   - call edges into the fallible-API set (R7's snapshot-load analysis),
///   - raw-synchronization usage (the R8 taint source),
///   - which files construct Lcg128 / StreamHierarchy / RealizationCursor
///     (the R6 stream-discipline evidence),
///   - the file's waiver directives (R10 stale-waiver auditing).
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_INDEX_H
#define PARMONC_LINT_INDEX_H

#include "parmonc/lint/SourceFile.h"
#include "parmonc/lint/Summary.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {
namespace lint {

/// Normalizes a path to forward slashes for suffix/substring matching.
std::string normalizedPath(std::string_view Path);

/// True when \p Path contains \p Dir as a whole path component.
bool pathContainsComponent(std::string_view Path, std::string_view Dir);

/// True when the normalized \p Path ends with \p Suffix.
bool pathEndsWith(std::string_view Path, std::string_view Suffix);

/// True for macro-style ALL_CAPS names (no lowercase, at least one upper).
bool isMacroStyleName(std::string_view Name);

/// One #include directive.
struct IncludeRecord {
  std::string Spec;   ///< The path between the delimiters.
  uint32_t Line = 0;  ///< 0-based line of the directive.
  bool Quoted = false; ///< "..." rather than <...>.
};

/// Everything the project index knows about one file, extracted from the
/// token stream.
struct FileFacts {
  std::vector<IncludeRecord> Includes;
  /// Functions this file declares [[nodiscard]].
  std::vector<std::string> NodiscardFunctions;
  /// Functions this file appears to define (identifier + parameter list +
  /// body). Heuristic; ALL_CAPS macro-style names are excluded.
  std::vector<std::string> DefinedFunctions;
  /// Call sites into the fallible-API set: callee -> 0-based lines.
  std::map<std::string, std::vector<uint32_t>> FallibleCalls;
  /// True when the file uses raw std:: synchronization primitives or
  /// includes a concurrency header (the R8 taint source).
  bool UsesRawSync = false;
  /// True when any string literal mentions the ".prev" snapshot
  /// generation (evidence of a handled fallback path, R7).
  bool MentionsPrevGeneration = false;
  /// Stream-construction evidence for R6.
  bool ConstructsLcg128 = false;
  bool ConstructsStreamHierarchy = false;
  bool ConstructsCursor = false;
  /// Waiver directives parsed from comments.
  std::vector<Waiver> Waivers;
  /// Per-function interprocedural evidence (call sites, taint sources,
  /// lock operations, field writes — see Summary.h), in source order. The
  /// call-graph/summary stage runs entirely off this.
  std::vector<FunctionEvidence> Functions;
};

/// Extracts facts from one lexed file.
FileFacts extractFileFacts(const SourceFile &File);

/// The functions \p File appears to define (same heuristic as
/// FileFacts::DefinedFunctions), for rules that need the caller's own
/// definition set without a full index entry.
std::vector<std::string> definedFunctions(const SourceFile &File);

/// The project-wide index: facts for every scanned file, path-addressable.
class ProjectIndex {
public:
  void add(std::string Path, FileFacts Facts);

  size_t fileCount() const { return Paths.size(); }
  const std::string &path(size_t I) const { return Paths[I]; }
  const FileFacts &facts(size_t I) const { return Facts[I]; }

  /// Facts for an exact path, or nullptr.
  const FileFacts *factsFor(std::string_view Path) const;

  /// Resolves an include spec from \p FromPath to the index of the
  /// included project file, or npos when the target is outside the scanned
  /// set. "parmonc/..." specs resolve by path suffix; other quoted specs
  /// resolve relative to the including file's directory.
  static constexpr size_t npos = size_t(-1);
  size_t resolveInclude(std::string_view FromPath,
                        const IncludeRecord &Include) const;

private:
  std::vector<std::string> Paths;
  std::vector<FileFacts> Facts;
  std::map<std::string, size_t, std::less<>> ByPath;
};

/// Cross-file facts rules may consult. Built from the project index in a
/// pre-pass over every scanned file, before any rule runs.
struct LintContext {
  /// Names of functions whose return value must not be discarded: the
  /// project's known fallible APIs plus every function declared
  /// [[nodiscard]] in the scanned files.
  std::set<std::string, std::less<>> NodiscardFunctions;
  /// Functions defined in files that use raw synchronization primitives,
  /// outside the blessed mpsim/ and obs/ layers (the R8 taint set).
  std::set<std::string, std::less<>> TaintedFunctions;
  /// Functions also defined in some synchronization-free file; an
  /// ambiguous name appearing in both sets is silenced.
  std::set<std::string, std::less<>> CleanFunctions;
  /// True when the flow-sensitive rules (R11-R13) are part of this run.
  /// R1 consults it to demote itself to declarations-only territory:
  /// inside analyzable function bodies the path-sensitive R11 supersedes
  /// the token-level heuristic, and double-reporting would force users to
  /// waive the same line twice.
  bool FlowRulesActive = false;
  /// The project-wide function summaries (null when the interprocedural
  /// stage did not run). The interprocedural rules (R14-R16) consult this
  /// to follow call chains across translation units.
  const SummaryStore *Summaries = nullptr;
  /// The call graph the summaries were propagated over (null with
  /// Summaries). Used to reconstruct cross-file witness paths.
  const CallGraph *Graph = nullptr;
};

/// Derives the cross-file rule context from the index: the union of
/// builtin + harvested nodiscard names, the R8 taint set, and the clean
/// set that silences ambiguous names.
void populateContextFromIndex(const ProjectIndex &Index, LintContext &Context);

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_INDEX_H
