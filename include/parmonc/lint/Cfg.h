//===- parmonc/lint/Cfg.h - Per-function control-flow graphs --------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third analysis stage of the mclint pipeline: per-function
/// control-flow graphs built directly over the token stream, between the
/// Lexer/Index stages and the rules. The flow-sensitive rules (R11-R13)
/// run dataflow fixed points over these graphs; see Dataflow.h.
///
/// The builder is a structured mini-parser, not a compiler front end. It
/// recognizes function definitions heuristically (identifier + balanced
/// parameter list + body brace, the same shape the project index uses),
/// then parses the body into basic blocks connected by edges for if/else,
/// while, do-while, for, switch (including case fallthrough), early
/// returns, break/continue and try/catch. Everything it cannot model
/// soundly — goto, preprocessor conditionals inside the body — sets a
/// conservative flag instead of guessing, and the flow rules skip such
/// functions entirely: a CFG can only ever cost a missed finding, never a
/// false one.
///
/// Statements keep their token range in the file's token stream plus the
/// physical line/column of their first token, so dataflow findings can
/// carry step-by-step SARIF code flows that point at real source
/// locations.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_CFG_H
#define PARMONC_LINT_CFG_H

#include "parmonc/lint/Lexer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parmonc {
namespace lint {

/// What role a statement plays in the graph; the dataflow transfer
/// functions use this to interpret the token range.
enum class StmtKind : uint8_t {
  Plain,     ///< Expression/declaration statement ending in ';'.
  Condition, ///< An if/while/switch head: `kw ( ... )`.
  LoopHeader,///< A for head: `for ( ... )`, condition truth unknown.
  CaseLabel, ///< `case X:` / `default:` inside a switch body.
  Return,    ///< `return ...;` — the block edges to the exit block.
};

/// One statement inside a function body.
struct CfgStatement {
  StmtKind Kind = StmtKind::Plain;
  /// Token range [TokenBegin, TokenEnd) in the file's token stream,
  /// comments included (clients skip them).
  uint32_t TokenBegin = 0;
  uint32_t TokenEnd = 0;
  /// 0-based physical line/column of the first token.
  uint32_t Line = 0;
  uint32_t Column = 0;
};

/// A basic block: a straight-line run of statements plus successor edges.
struct CfgBlock {
  std::vector<uint32_t> Statements; ///< Indices into FunctionCfg::Statements.
  std::vector<uint32_t> Successors; ///< Indices into FunctionCfg::Blocks.
};

/// The control-flow graph of one function definition.
struct FunctionCfg {
  std::string Name;          ///< The defined function's (unqualified) name.
  uint32_t NameLine = 0;     ///< 0-based line of the name token.
  uint32_t BodyBeginToken = 0; ///< Token index of the opening '{'.
  uint32_t BodyEndToken = 0;   ///< One past the matching '}'.
  uint32_t BodyFirstLine = 0;  ///< 0-based line of the opening '{'.
  uint32_t BodyLastLine = 0;   ///< 0-based line of the closing '}'.
  std::vector<CfgStatement> Statements;
  std::vector<CfgBlock> Blocks;
  uint32_t Entry = 0; ///< Index of the entry block.
  uint32_t Exit = 0;  ///< Index of the single synthetic exit block (empty).
  /// The body uses goto or a label the parser cannot model.
  bool HasGoto = false;
  /// The body contains preprocessor directives; both arms of an #if would
  /// appear as straight-line code, so flow analysis would be unsound.
  bool HasDirectives = false;
  /// True when the flow rules may analyze this function.
  bool analyzable() const { return !HasGoto && !HasDirectives; }
};

/// Builds a CFG for every function definition found in \p Tokens. Function
/// bodies never nest (local lambdas stay inside their enclosing
/// statement), so the result is a flat, source-ordered list.
std::vector<FunctionCfg> buildFunctionCfgs(const std::vector<Token> &Tokens);

/// Reverse postorder over the blocks reachable from Entry — the iteration
/// order under which a forward fixed point converges fastest.
std::vector<uint32_t> reversePostorder(const FunctionCfg &Cfg);

/// Shortest successor path From -> To (inclusive of both), or empty when
/// unreachable. Used to reconstruct one concrete witness path for SARIF
/// code flows.
std::vector<uint32_t> shortestBlockPath(const FunctionCfg &Cfg, uint32_t From,
                                        uint32_t To);

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_CFG_H
