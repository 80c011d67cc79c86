//===- tools/mclint.cpp - Project invariant linter ------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//
//   $ mclint [options] <path>...
//
// Scans the given files/directories for violations of the project's
// enforced invariants R1–R16 (see docs/LINT_RULES.md). Without --werror,
// findings are warnings and the exit code is 0; with --werror they are
// errors and any finding exits 1 — that is the CI gate:
//
//   $ mclint --werror src include tools tests examples
//
// Exit codes: 0 clean (or warnings only), 1 findings under --werror,
// 2 usage or environmental error.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"
#include "parmonc/lint/Rules.h"
#include "parmonc/lint/Sarif.h"
#include "parmonc/support/Text.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace parmonc;

static int printUsage(const char *Program) {
  std::fprintf(
      stderr,
      "usage: %s [options] <path>...\n"
      "  --werror               findings are errors: any finding exits 1\n"
      "  --rule=IDS             run only the named rules, e.g. --rule=R1,R3\n"
      "  --format=text|sarif    output format (default: text)\n"
      "  --fix                  apply safe autofixes (R4, R10) in place\n"
      "  --list-rules           print the rule table and exit\n"
      "  --explain RULE         print a rule's rationale and example\n",
      Program);
  return 2;
}

static int listRules() {
  for (const auto &RulePtr : lint::makeAllRules())
    std::printf("%s  %-20s  %s\n", std::string(RulePtr->id()).c_str(),
                std::string(RulePtr->name()).c_str(),
                std::string(RulePtr->summary()).c_str());
  return 0;
}

static int explainRule(const char *Id) {
  for (const auto &RulePtr : lint::makeAllRules()) {
    if (RulePtr->id() != Id && RulePtr->name() != Id)
      continue;
    std::printf("%s: %s\n  %s\n\nWhy:\n  %s\n\nExample:\n%s\n",
                std::string(RulePtr->id()).c_str(),
                std::string(RulePtr->name()).c_str(),
                std::string(RulePtr->summary()).c_str(),
                std::string(RulePtr->rationale()).c_str(),
                std::string(RulePtr->example()).c_str());
    std::printf("\nWaive with: // mclint: allow(%s): <reason>  (or "
                "allow-file)\nDocs: docs/LINT_RULES.md\n",
                std::string(RulePtr->id()).c_str());
    return 0;
  }
  std::fprintf(stderr, "mclint: unknown rule '%s' (try --list-rules)\n", Id);
  return 2;
}

int main(int Argc, char **Argv) {
  lint::AnalyzerOptions Options;
  bool Werror = false;
  bool Fix = false;
  bool Sarif = false;
  for (int Index = 1; Index < Argc; ++Index) {
    const char *Arg = Argv[Index];
    if (std::strcmp(Arg, "--werror") == 0) {
      Werror = true;
    } else if (std::strcmp(Arg, "--fix") == 0) {
      Fix = true;
    } else if (std::strcmp(Arg, "--list-rules") == 0) {
      return listRules();
    } else if (std::strcmp(Arg, "--explain") == 0) {
      if (Index + 1 >= Argc)
        return printUsage(Argv[0]);
      return explainRule(Argv[Index + 1]);
    } else if (std::strncmp(Arg, "--explain=", 10) == 0) {
      return explainRule(Arg + 10);
    } else if (std::strncmp(Arg, "--rule=", 7) == 0) {
      for (std::string_view Id : splitChar(Arg + 7, ','))
        if (!trim(Id).empty())
          Options.RuleIds.emplace_back(trim(Id));
    } else if (std::strncmp(Arg, "--format=", 9) == 0) {
      const std::string_view Format = Arg + 9;
      if (Format == "sarif")
        Sarif = true;
      else if (Format != "text")
        return printUsage(Argv[0]);
    } else if (Arg[0] == '-') {
      return printUsage(Argv[0]);
    } else {
      Options.Paths.emplace_back(Arg);
    }
  }
  if (Options.Paths.empty())
    return printUsage(Argv[0]);
  Options.ComputeFixes = Fix;

  Result<lint::LintReport> Report = lint::runAnalyzer(Options);
  if (!Report) {
    std::fprintf(stderr, "mclint: %s\n", Report.status().toString().c_str());
    return 2;
  }
  const lint::LintReport &R = Report.value();

  const auto LineTextOf =
      [&](const lint::Diagnostic &Diag) -> std::string_view {
    for (size_t I = 0; I < R.Diagnostics.size(); ++I)
      if (&R.Diagnostics[I] == &Diag)
        return R.DiagnosticLineText[I];
    return {};
  };

  if (Fix) {
    Result<size_t> Fixed = lint::applyFixes(R.Diagnostics);
    if (!Fixed) {
      std::fprintf(stderr, "mclint: %s\n", Fixed.status().toString().c_str());
      return 2;
    }
    std::fprintf(stderr, "mclint: rewrote %zu file(s)\n", Fixed.value());
  }

  if (Sarif) {
    std::vector<const lint::Rule *> RulePointers;
    const auto AllRules = lint::makeAllRules();
    for (const auto &RulePtr : AllRules)
      RulePointers.push_back(RulePtr.get());
    std::fputs(
        lint::formatSarif(R.Diagnostics, RulePointers, Werror, LineTextOf)
            .c_str(),
        stdout);
  } else {
    for (const lint::Diagnostic &Diag : R.Diagnostics)
      std::printf("%s\n", lint::formatDiagnostic(Diag, Werror).c_str());
  }

  const size_t Count = R.Diagnostics.size();
  if (Count == 0) {
    std::fprintf(stderr, "mclint: %zu file(s) clean\n", R.FileCount);
    return 0;
  }
  std::fprintf(stderr, "mclint: %zu finding(s) in %zu file(s)%s\n", Count,
               R.FileCount, Werror ? " (--werror: failing)" : "");
  return Werror ? 1 : 0;
}
