//===- lint/Index.cpp - Cross-TU project index for mclint -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Index.h"

#include "parmonc/lint/Rules.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <cctype>

namespace parmonc {
namespace lint {

std::string normalizedPath(std::string_view Path) {
  std::string Normal(Path);
  for (char &C : Normal)
    if (C == '\\')
      C = '/';
  return Normal;
}

bool pathContainsComponent(std::string_view Path, std::string_view Dir) {
  const std::string Normal = normalizedPath(Path);
  const std::string Needle = "/" + std::string(Dir) + "/";
  return Normal.find(Needle) != std::string::npos ||
         startsWith(Normal, std::string(Dir) + "/");
}

bool pathEndsWith(std::string_view Path, std::string_view Suffix) {
  const std::string Normal = normalizedPath(Path);
  return Normal.size() >= Suffix.size() &&
         Normal.compare(Normal.size() - Suffix.size(), Suffix.size(),
                        Suffix) == 0;
}

bool isMacroStyleName(std::string_view Name) {
  bool HasUpper = false;
  for (char C : Name) {
    if (C >= 'a' && C <= 'z')
      return false;
    if (C >= 'A' && C <= 'Z')
      HasUpper = true;
  }
  return HasUpper;
}

namespace {

/// Keywords that look like `name ( ... ) {` but are not definitions.
bool isControlKeyword(std::string_view Name) {
  return Name == "if" || Name == "for" || Name == "while" ||
         Name == "switch" || Name == "catch" || Name == "return" ||
         Name == "sizeof" || Name == "alignof" || Name == "decltype" ||
         Name == "noexcept" || Name == "new" || Name == "delete";
}

/// The next non-comment token index after \p I, or Tokens.size().
size_t nextCode(const std::vector<Token> &Tokens, size_t I) {
  ++I;
  while (I < Tokens.size() && Tokens[I].Kind == TokenKind::Comment)
    ++I;
  return I;
}

bool isPunct(const Token &T, char C) {
  return T.Kind == TokenKind::Punct && T.Text.size() == 1 && T.Text[0] == C;
}

/// Heuristic definition scan: identifier + balanced parameter list + `{`.
void collectDefinedFunctions(const std::vector<Token> &Tokens,
                             std::vector<std::string> &Out) {
  std::set<std::string> Seen;
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.Kind != TokenKind::Identifier || isControlKeyword(T.Text) ||
        isMacroStyleName(T.Text))
      continue;
    size_t Open = nextCode(Tokens, I);
    if (Open >= Tokens.size() || !isPunct(Tokens[Open], '('))
      continue;
    int Depth = 1;
    size_t J = Open;
    while (Depth > 0) {
      J = nextCode(Tokens, J);
      if (J >= Tokens.size())
        break;
      if (isPunct(Tokens[J], '('))
        ++Depth;
      else if (isPunct(Tokens[J], ')'))
        --Depth;
    }
    if (Depth != 0)
      break; // unbalanced to EOF
    size_t After = nextCode(Tokens, J);
    if (After < Tokens.size() && isPunct(Tokens[After], '{') &&
        Seen.insert(T.Text).second)
      Out.push_back(T.Text);
  }
}

/// Records stream-construction evidence: `TypeName Ident ...`.
bool constructsType(const std::vector<Token> &Tokens,
                    std::string_view TypeName) {
  for (size_t I = 0; I < Tokens.size(); ++I) {
    if (Tokens[I].Kind != TokenKind::Identifier || Tokens[I].Text != TypeName)
      continue;
    size_t Next = nextCode(Tokens, I);
    if (Next < Tokens.size() &&
        Tokens[Next].Kind == TokenKind::Identifier &&
        !isControlKeyword(Tokens[Next].Text))
      return true;
  }
  return false;
}

} // namespace

std::vector<std::string> definedFunctions(const SourceFile &File) {
  std::vector<std::string> Names;
  collectDefinedFunctions(File.tokens(), Names);
  return Names;
}

FileFacts extractFileFacts(const SourceFile &File) {
  FileFacts Facts;
  const std::vector<Token> &Tokens = File.tokens();

  // Includes, from the raw lines (the preprocessor view).
  for (size_t Index = 0; Index < File.lineCount(); ++Index) {
    std::string_view Raw = trim(File.rawLine(Index));
    if (!startsWith(Raw, "#include"))
      continue;
    std::string_view Spec = trim(Raw.substr(8));
    IncludeRecord Record;
    Record.Line = static_cast<uint32_t>(Index);
    if (startsWith(Spec, "\"")) {
      const size_t Close = Spec.find('"', 1);
      Record.Spec = std::string(Close == std::string_view::npos
                                    ? Spec.substr(1)
                                    : Spec.substr(1, Close - 1));
      Record.Quoted = true;
    } else if (startsWith(Spec, "<")) {
      const size_t Close = Spec.find('>', 1);
      Record.Spec = std::string(Close == std::string_view::npos
                                    ? Spec.substr(1)
                                    : Spec.substr(1, Close - 1));
      Record.Quoted = false;
    } else {
      continue; // computed include; out of scope
    }
    Facts.Includes.push_back(std::move(Record));
  }

  // Symbols.
  std::set<std::string, std::less<>> Nodiscard;
  harvestNodiscardFunctions(File, Nodiscard);
  Facts.NodiscardFunctions.assign(Nodiscard.begin(), Nodiscard.end());
  collectDefinedFunctions(Tokens, Facts.DefinedFunctions);

  // Call edges into the fallible-API set.
  const std::set<std::string, std::less<>> Fallible =
      builtinFallibleFunctions();
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.Kind != TokenKind::Identifier || Fallible.find(T.Text) == Fallible.end())
      continue;
    size_t Next = nextCode(Tokens, I);
    if (Next < Tokens.size() && isPunct(Tokens[Next], '('))
      Facts.FallibleCalls[T.Text].push_back(T.Line);
  }

  // Raw synchronization: the R3/R8 needle sets over the scrubbed view.
  for (size_t Index = 0; Index < File.lineCount() && !Facts.UsesRawSync;
       ++Index) {
    std::string_view Raw = trim(File.rawLine(Index));
    if (startsWith(Raw, "#include")) {
      for (std::string_view Banned : rawConcurrencyIncludeNeedles())
        if (Raw.find(Banned) != std::string_view::npos)
          Facts.UsesRawSync = true;
      continue;
    }
    std::string_view Line = File.scrubbedLine(Index);
    for (std::string_view Banned : rawConcurrencyTypeNeedles())
      if (findWordToken(Line, Banned) != std::string_view::npos)
        Facts.UsesRawSync = true;
  }

  // Snapshot-fallback evidence: ".prev" inside any string literal.
  for (const Token &T : Tokens)
    if ((T.Kind == TokenKind::String || T.Kind == TokenKind::RawString) &&
        T.Text.find(".prev") != std::string::npos)
      Facts.MentionsPrevGeneration = true;

  Facts.ConstructsLcg128 =
      constructsType(Tokens, "Lcg128") || constructsType(Tokens, "LcgPow2");
  Facts.ConstructsStreamHierarchy = constructsType(Tokens, "StreamHierarchy");
  Facts.ConstructsCursor = constructsType(Tokens, "RealizationCursor");

  Facts.Waivers = File.waivers();
  Facts.Functions = extractFunctionEvidence(File);
  return Facts;
}

void ProjectIndex::add(std::string Path, FileFacts NewFacts) {
  ByPath.emplace(Path, Paths.size());
  Paths.push_back(std::move(Path));
  Facts.push_back(std::move(NewFacts));
}

const FileFacts *ProjectIndex::factsFor(std::string_view Path) const {
  auto It = ByPath.find(Path);
  return It == ByPath.end() ? nullptr : &Facts[It->second];
}

size_t ProjectIndex::resolveInclude(std::string_view FromPath,
                                    const IncludeRecord &Include) const {
  if (startsWith(Include.Spec, "parmonc/")) {
    const std::string Suffix = "include/" + Include.Spec;
    for (size_t I = 0; I < Paths.size(); ++I)
      if (pathEndsWith(Paths[I], Suffix))
        return I;
    return npos;
  }
  if (!Include.Quoted)
    return npos; // system header
  // Relative to the including file's directory.
  const std::string Normal = normalizedPath(FromPath);
  const size_t Slash = Normal.rfind('/');
  const std::string Candidate =
      (Slash == std::string::npos ? "" : Normal.substr(0, Slash + 1)) +
      Include.Spec;
  auto It = ByPath.find(Candidate);
  return It == ByPath.end() ? npos : It->second;
}

void populateContextFromIndex(const ProjectIndex &Index,
                              LintContext &Context) {
  Context.NodiscardFunctions = builtinFallibleFunctions();
  for (size_t I = 0; I < Index.fileCount(); ++I) {
    const FileFacts &Facts = Index.facts(I);
    for (const std::string &Name : Facts.NodiscardFunctions)
      Context.NodiscardFunctions.insert(Name);
    const std::string &Path = Index.path(I);
    // mpsim/ and obs/ are the sanctioned concurrency layers; core/ is
    // covered by R8's direct check on its own files, so its definitions
    // are not call-edge taint (a core-to-core call would double-report).
    const bool Blessed = pathContainsComponent(Path, "mpsim") ||
                         pathContainsComponent(Path, "obs") ||
                         pathContainsComponent(Path, "core") ||
                         pathEndsWith(Path, "support/Clock.h");
    for (const std::string &Name : Facts.DefinedFunctions) {
      if (!Blessed && Facts.UsesRawSync)
        Context.TaintedFunctions.insert(Name);
      else
        Context.CleanFunctions.insert(Name);
    }
  }
}

} // namespace lint
} // namespace parmonc
