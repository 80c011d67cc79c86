//===- lint/Analyzer.cpp - Project-wide lint driver -----------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The pipeline (see Analyzer.h) runs in two passes. Pass one lexes every
// file once and extracts its FileFacts, and from them the project index
// and the cross-file LintContext. Pass two runs the per-file rules over
// the lexed files, then the project-wide rules, then the central
// waiver/stale-waiver filtering that turns raw findings into the report.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"

#include "parmonc/lint/CallGraph.h"
#include "parmonc/lint/Index.h"
#include "parmonc/lint/Rules.h"
#include "parmonc/lint/SourceFile.h"
#include "parmonc/lint/Summary.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

namespace parmonc {
namespace lint {

namespace {

namespace fs = std::filesystem;

bool isSourceExtension(const fs::path &Path) {
  const std::string Ext = Path.extension().string();
  return Ext == ".h" || Ext == ".hpp" || Ext == ".cpp" || Ext == ".cc" ||
         Ext == ".cxx";
}

/// Directories never worth walking into: build trees, VCS/tooling state,
/// and lint fixture trees (deliberate violations; linted only when named
/// as a root).
bool isSkippedDirectory(const fs::path &Path) {
  const std::string Name = Path.filename().string();
  return startsWith(Name, "build") || startsWith(Name, ".") ||
         Name == "fixtures";
}

/// Collects every source file under \p Root (or \p Root itself when it is
/// a file) into \p Files, sorted later for determinism.
Status collectFiles(const std::string &Root, std::vector<std::string> &Files) {
  std::error_code Error;
  const fs::file_status RootStatus = fs::status(Root, Error);
  if (Error)
    return ioError("cannot stat '" + Root + "': " + Error.message());
  if (fs::is_regular_file(RootStatus)) {
    Files.push_back(Root);
    return Status::ok();
  }
  if (!fs::is_directory(RootStatus))
    return invalidArgument("'" + Root + "' is neither a file nor a directory");

  fs::recursive_directory_iterator It(Root, Error), End;
  if (Error)
    return ioError("cannot open '" + Root + "': " + Error.message());
  for (; It != End; It.increment(Error)) {
    if (Error)
      return ioError("error walking '" + Root + "': " + Error.message());
    const fs::directory_entry &Entry = *It;
    if (Entry.is_directory()) {
      if (isSkippedDirectory(Entry.path()))
        It.disable_recursion_pending();
      continue;
    }
    if (Entry.is_regular_file() && isSourceExtension(Entry.path()))
      Files.push_back(Entry.path().generic_string());
  }
  return Status::ok();
}

/// Keeps one spelling per file in the sorted \p Paths. `x.cpp`, `./x.cpp`
/// and `d/../x.cpp` name the same file; analyzing it twice would double
/// its findings and apply its fixes twice. The first spelling in sorted
/// order is the one diagnostics show.
void dropDuplicateFiles(std::vector<std::string> &Paths) {
  std::set<fs::path> Identities;
  std::vector<std::string> Unique;
  for (std::string &Path : Paths) {
    std::error_code Error;
    fs::path Identity = fs::weakly_canonical(Path, Error);
    if (Error)
      Identity = Path;
    if (Identities.insert(std::move(Identity)).second)
      Unique.push_back(std::move(Path));
  }
  Paths = std::move(Unique);
}

/// Raw source lines of \p Contents, SourceFile's splitting rules: '\n'
/// separated, trailing '\r' stripped, empty trailing line dropped.
std::vector<std::string_view> splitRawLines(std::string_view Contents) {
  std::vector<std::string_view> Lines;
  for (std::string_view Line : splitChar(Contents, '\n')) {
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    Lines.push_back(Line);
  }
  if (!Lines.empty() && Lines.back().empty())
    Lines.pop_back();
  return Lines;
}

/// The per-run state for one scanned file.
struct FileState {
  SourceFile Source;
  FileFacts Facts;
  std::vector<Diagnostic> RawDiags; ///< Per-file rules, pre-filtering.
  /// Parallel to Facts.Waivers: suppressed at least one finding this run.
  std::vector<bool> WaiverUsed;

  explicit FileState(SourceFile Lexed)
      : Source(std::move(Lexed)), Facts(extractFileFacts(Source)),
        WaiverUsed(Facts.Waivers.size(), false) {}

  std::string_view rawLine(size_t Index) const {
    return Index < Source.lineCount() ? Source.rawLine(Index)
                                      : std::string_view{};
  }
};

/// True when \p W suppresses a finding of \p RuleId at 1-based \p Line.
bool waiverCovers(const Waiver &W, std::string_view RuleId, unsigned Line) {
  if (W.RuleId != RuleId)
    return false;
  if (W.FileScope)
    return true;
  const uint32_t Index = Line == 0 ? 0 : Line - 1;
  return Index >= W.CoverBegin && Index <= W.CoverEnd;
}

/// True when one of \p File's waivers suppresses \p Diag; marks every
/// waiver that covers it as used.
bool waive(FileState &File, const Diagnostic &Diag) {
  bool Suppressed = false;
  for (size_t I = 0; I < File.Facts.Waivers.size(); ++I)
    if (waiverCovers(File.Facts.Waivers[I], Diag.RuleId, Diag.Line)) {
      File.WaiverUsed[I] = true;
      Suppressed = true;
    }
  return Suppressed;
}

/// The stale-waiver (R10) synthesis: one finding per waiver directive
/// whose every audited rule id suppressed nothing this run. Waivers for
/// rules outside the active set are not audited (they could not have
/// fired), and allow(R10) itself is exempt — it only filters.
void synthesizeStaleWaiverDiags(
    FileState &File, const std::set<std::string, std::less<>> &ActiveIds,
    bool ComputeFixes, std::vector<Diagnostic> &Out) {
  const std::vector<Waiver> &Waivers = File.Facts.Waivers;
  std::map<uint32_t, std::vector<size_t>> Groups; // directive -> waivers
  for (size_t I = 0; I < Waivers.size(); ++I)
    Groups[Waivers[I].DirectiveIndex].push_back(I);
  for (const auto &[Directive, Members] : Groups) {
    bool AllStale = true;
    std::string RuleList;
    for (size_t I : Members) {
      const Waiver &W = Waivers[I];
      if (W.RuleId == "R10" || !ActiveIds.count(W.RuleId) ||
          File.WaiverUsed[I]) {
        AllStale = false;
        break;
      }
      if (!RuleList.empty())
        RuleList += ",";
      RuleList += W.RuleId;
    }
    if (!AllStale || Members.empty())
      continue;
    const Waiver &First = Waivers[Members.front()];
    Diagnostic Diag;
    Diag.Path = File.Source.path();
    Diag.Line = First.DirectiveLine + 1;
    Diag.RuleId = "R10";
    Diag.RuleName = "stale-waiver";
    Diag.Message = "waiver 'allow" +
                   std::string(First.FileScope ? "-file" : "") + "(" +
                   RuleList +
                   ")' suppresses no finding; the covered code is "
                   "clean — remove the directive";
    if (ComputeFixes) {
      if (First.Standalone) {
        // The comment is the whole line (possibly several): delete them.
        for (uint32_t Line = First.DirectiveLine;
             Line <= First.DirectiveEndLine; ++Line)
          Diag.Fixes.push_back({Line + 1, true, ""});
      } else {
        // Trailing comment: cut it off, keeping the code.
        std::string_view Raw = File.rawLine(First.DirectiveLine);
        if (First.DirectiveColumn < Raw.size() &&
            Raw.substr(First.DirectiveColumn, 2) == "//") {
          std::string Kept(Raw.substr(0, First.DirectiveColumn));
          while (!Kept.empty() &&
                 (Kept.back() == ' ' || Kept.back() == '\t'))
            Kept.pop_back();
          Diag.Fixes.push_back({First.DirectiveLine + 1, false, Kept});
        }
      }
    }
    Out.push_back(std::move(Diag));
  }
}

} // namespace

Result<LintReport> runAnalyzer(const AnalyzerOptions &Options) {
  if (Options.Paths.empty())
    return invalidArgument("no paths to lint");

  // Resolve the rule subset.
  std::vector<std::unique_ptr<Rule>> AllRules = makeAllRules();
  std::vector<const Rule *> Active;
  if (Options.RuleIds.empty()) {
    for (const auto &RulePtr : AllRules)
      Active.push_back(RulePtr.get());
  } else {
    for (const std::string &Id : Options.RuleIds) {
      const Rule *Found = nullptr;
      for (const auto &RulePtr : AllRules)
        if (RulePtr->id() == Id || RulePtr->name() == Id)
          Found = RulePtr.get();
      if (!Found)
        return invalidArgument("unknown lint rule '" + Id + "'");
      Active.push_back(Found);
    }
  }
  std::set<std::string, std::less<>> ActiveIds;
  for (const Rule *ActiveRule : Active)
    ActiveIds.insert(std::string(ActiveRule->id()));

  // Gather the file set.
  std::vector<std::string> Paths;
  for (const std::string &Root : Options.Paths)
    if (Status Collected = collectFiles(Root, Paths); !Collected)
      return Collected;
  std::sort(Paths.begin(), Paths.end());
  dropDuplicateFiles(Paths);

  // Pass one: read and lex every file once, and extract its facts.
  std::vector<FileState> Files;
  Files.reserve(Paths.size());
  for (const std::string &Path : Paths) {
    Result<std::string> Contents = readFileToString(Path);
    if (!Contents)
      return Contents.status();
    Files.emplace_back(SourceFile(Path, Contents.value()));
  }

  // The project index and the cross-file context.
  ProjectIndex Index;
  for (const FileState &File : Files)
    Index.add(File.Source.path(), File.Facts);
  LintContext Context;
  populateContextFromIndex(Index, Context);
  // R1 stands down inside bodies the dataflow stage covers — but only
  // when R11 is actually part of this run.
  Context.FlowRulesActive = ActiveIds.count("R11") != 0;

  // The interprocedural stage: call graph and bottom-up summaries, built
  // from the per-function evidence in the facts.
  const CallGraph Graph = CallGraph::build(Index);
  const SummaryStore Summaries = computeSummaries(Index, Graph);
  Context.Summaries = &Summaries;
  Context.Graph = &Graph;

  // Pass two: raw per-file diagnostics.
  LintReport Report;
  Report.FileCount = Files.size();
  for (FileState &File : Files)
    for (const Rule *ActiveRule : Active)
      if (ActiveRule->isPerFile())
        ActiveRule->check(File.Source, Context, File.RawDiags);

  // Project-wide rules (R9) run over the index: their evidence spans
  // files.
  std::vector<Diagnostic> ProjectDiags;
  for (const Rule *ActiveRule : Active)
    if (!ActiveRule->isPerFile())
      ActiveRule->checkProject(Index, Context, ProjectDiags);

  // Central waiver filtering: per-file diags against their own file,
  // project diags against the file each one names.
  std::map<std::string_view, FileState *> ByPath;
  for (FileState &File : Files)
    ByPath[File.Source.path()] = &File;
  for (FileState &File : Files)
    for (Diagnostic &Diag : File.RawDiags)
      if (!waive(File, Diag))
        Report.Diagnostics.push_back(std::move(Diag));
  ProjectDiags.erase(
      std::remove_if(ProjectDiags.begin(), ProjectDiags.end(),
                     [&](const Diagnostic &Diag) {
                       const auto It = ByPath.find(Diag.Path);
                       return It != ByPath.end() && waive(*It->second, Diag);
                     }),
      ProjectDiags.end());
  for (Diagnostic &Diag : ProjectDiags)
    Report.Diagnostics.push_back(std::move(Diag));

  // R10: audit the waivers themselves, then filter the audit findings
  // through allow(R10) waivers.
  if (ActiveIds.count("R10")) {
    std::vector<Diagnostic> StaleDiags;
    for (FileState &File : Files)
      synthesizeStaleWaiverDiags(File, ActiveIds, Options.ComputeFixes,
                                 StaleDiags);
    StaleDiags.erase(
        std::remove_if(StaleDiags.begin(), StaleDiags.end(),
                       [&](const Diagnostic &Diag) {
                         FileState &File = *ByPath.at(Diag.Path);
                         for (const Waiver &W : File.Facts.Waivers)
                           if (waiverCovers(W, Diag.RuleId, Diag.Line))
                             return true;
                         return false;
                       }),
        StaleDiags.end());
    for (Diagnostic &Diag : StaleDiags)
      Report.Diagnostics.push_back(std::move(Diag));
  }

  sortDiagnostics(Report.Diagnostics);
  Report.DiagnosticLineText.reserve(Report.Diagnostics.size());
  for (const Diagnostic &Diag : Report.Diagnostics) {
    const auto It = ByPath.find(Diag.Path);
    Report.DiagnosticLineText.emplace_back(
        It == ByPath.end() || Diag.Line == 0
            ? std::string_view{}
            : It->second->rawLine(Diag.Line - 1));
  }
  return Report;
}

Result<size_t> applyFixes(const std::vector<Diagnostic> &Diags) {
  // Collect edits per file; later-line edits apply first so earlier line
  // numbers stay valid. One edit per line — duplicates are dropped.
  std::map<std::string, std::map<unsigned, const FixIt *>> EditsByFile;
  for (const Diagnostic &Diag : Diags)
    for (const FixIt &Fix : Diag.Fixes)
      if (Fix.Line > 0)
        EditsByFile[Diag.Path].emplace(Fix.Line, &Fix);

  size_t FilesRewritten = 0;
  for (const auto &[Path, Edits] : EditsByFile) {
    Result<std::string> Contents = readFileToString(Path);
    if (!Contents)
      return Contents.status();
    const bool HadTrailingNewline =
        !Contents.value().empty() && Contents.value().back() == '\n';
    std::vector<std::string> Lines;
    for (std::string_view Line : splitRawLines(Contents.value()))
      Lines.emplace_back(Line);
    for (auto It = Edits.rbegin(); It != Edits.rend(); ++It) {
      const auto &[LineNumber, Fix] = *It;
      if (LineNumber > Lines.size())
        continue; // the file shrank since analysis — skip, do not guess
      if (Fix->RemoveLine)
        Lines.erase(Lines.begin() + (LineNumber - 1));
      else
        Lines[LineNumber - 1] = Fix->NewText;
    }
    std::string Rewritten;
    for (size_t I = 0; I < Lines.size(); ++I) {
      Rewritten += Lines[I];
      if (I + 1 < Lines.size() || HadTrailingNewline)
        Rewritten += '\n';
    }
    if (Status Wrote = writeFileAtomic(Path, Rewritten); !Wrote)
      return Wrote;
    ++FilesRewritten;
  }
  return FilesRewritten;
}

} // namespace lint
} // namespace parmonc
