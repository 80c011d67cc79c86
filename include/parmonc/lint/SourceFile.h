//===- parmonc/lint/SourceFile.h - Lexed view of one source file ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lexical model of a C++ source file for the mclint rules, built on the
/// token stream from Lexer.h. The file is kept in three forms: the raw
/// lines (for preprocessor-oriented checks like include hygiene and header
/// guards), a "scrubbed" copy in which comments and string/character
/// literal bodies are blanked out (spaces, preserving column positions) so
/// `std::thread` in a comment or a string never triggers a rule, and the
/// token stream itself for the project index and token-level rules.
///
/// Waivers: a comment containing `mclint: allow(Rn)` suppresses the named
/// rule(s) on the lines the comment spans — or on the next line when the
/// comment stands alone — and `mclint: allow-file(Rn)` suppresses them for
/// the whole file. Because waivers are parsed from comment tokens only, a
/// waiver-shaped string inside a raw string literal is never honored, and
/// a line comment continued with a backslash splice is honored once for
/// its whole physical extent. Waivers are the escape hatch for reviewed
/// exceptions and are themselves audited by rule R10 (stale-waiver).
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_SOURCEFILE_H
#define PARMONC_LINT_SOURCEFILE_H

#include "parmonc/lint/Cfg.h"
#include "parmonc/lint/Lexer.h"

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {
namespace lint {

/// One parsed waiver directive entry. A directive naming several rules
/// (`allow(R2,R3)`) produces one Waiver per rule id, sharing a
/// DirectiveIndex so autofix can tell when removing the comment is safe.
struct Waiver {
  /// The rule id this entry suppresses, e.g. "R3".
  std::string RuleId;
  /// 0-based ordinal of the directive comment within the file, shared by
  /// entries parsed from the same comment.
  uint32_t DirectiveIndex = 0;
  /// 0-based first and last physical line of the directive comment.
  uint32_t DirectiveLine = 0;
  uint32_t DirectiveEndLine = 0;
  /// Column of the comment's first byte on DirectiveLine.
  uint32_t DirectiveColumn = 0;
  /// True for `allow-file(...)`: covers the whole file.
  bool FileScope = false;
  /// True when the comment has no code on any line it spans (a stand-alone
  /// waiver, which also covers the following line).
  bool Standalone = false;
  /// Inclusive 0-based line range covered (unused when FileScope).
  uint32_t CoverBegin = 0;
  uint32_t CoverEnd = 0;
};

/// One source file, lexed for rule matching.
class SourceFile {
public:
  /// Builds the lexed view from in-memory contents (the analyzer reads the
  /// file; tests can lint synthetic buffers).
  SourceFile(std::string Path, std::string_view Contents);

  const std::string &path() const { return Path; }

  /// True for .h/.hpp files.
  bool isHeader() const;

  size_t lineCount() const { return RawLines.size(); }

  /// Raw text of 0-based line \p Index, without the trailing newline.
  std::string_view rawLine(size_t Index) const { return RawLines[Index]; }

  /// Scrubbed text of 0-based line \p Index: comments and string/char
  /// literal bodies replaced by spaces.
  std::string_view scrubbedLine(size_t Index) const {
    return ScrubbedLines[Index];
  }

  /// The file's token stream (comments included), in source order.
  const std::vector<Token> &tokens() const { return Tokens; }

  /// All waiver entries parsed from comments, in source order.
  const std::vector<Waiver> &waivers() const { return Waivers; }

  /// Control-flow graphs of every function defined in this file, built
  /// lazily on first use and cached. Only the flow-sensitive rules pay for
  /// CFG construction; token-level rules never touch it.
  const std::vector<FunctionCfg> &functions() const;

  /// True when \p RuleId is waived on 0-based line \p Index (line waiver,
  /// stand-alone-comment waiver on the preceding line, or file waiver).
  bool isWaived(size_t Index, std::string_view RuleId) const;

private:
  std::string Path;
  std::vector<std::string> RawLines;
  std::vector<std::string> ScrubbedLines;
  std::vector<Token> Tokens;
  std::vector<Waiver> Waivers;
  /// Rule ids waived per 0-based line.
  std::vector<std::set<std::string>> LineWaivers;
  /// Rule ids waived for the entire file.
  std::set<std::string> FileWaivers;
  /// Lazily built per-function CFGs; null until functions() is called.
  mutable std::unique_ptr<std::vector<FunctionCfg>> Cfgs;
};

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_SOURCEFILE_H
