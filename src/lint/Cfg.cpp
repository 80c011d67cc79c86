//===- lint/Cfg.cpp - Per-function control-flow graphs --------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Two passes. The definition scan finds `name ( params ) [qualifiers] {`
// shapes at any scope (free functions, member functions defined in-class,
// and ALL_CAPS macro definitions like TEST(...) — their bodies are real
// code the flow rules should see). The body parser is a recursive-descent
// statement walker that builds basic blocks; anything it cannot model sets
// a conservative flag on the function instead of producing a wrong graph.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Cfg.h"


#include <algorithm>
#include <deque>

namespace parmonc {
namespace lint {

namespace {

bool isPunct(const Token &T, char C) {
  return T.Kind == TokenKind::Punct && T.Text.size() == 1 && T.Text[0] == C;
}

bool isIdent(const Token &T, std::string_view Text) {
  return T.Kind == TokenKind::Identifier && T.Text == Text;
}

/// Keywords that can precede `( ... ) {` without being a definition.
bool isControlLikeKeyword(std::string_view Name) {
  return Name == "if" || Name == "for" || Name == "while" ||
         Name == "switch" || Name == "catch" || Name == "return" ||
         Name == "sizeof" || Name == "alignof" || Name == "decltype" ||
         Name == "noexcept" || Name == "new" || Name == "delete" ||
         Name == "throw" || Name == "do" || Name == "else" ||
         Name == "defined";
}

/// The next non-comment token at or after \p I, or Size when exhausted.
size_t skipComments(const std::vector<Token> &Tokens, size_t I) {
  while (I < Tokens.size() && Tokens[I].Kind == TokenKind::Comment)
    ++I;
  return I;
}

size_t nextCode(const std::vector<Token> &Tokens, size_t I) {
  return skipComments(Tokens, I + 1);
}

/// Balanced skip: \p I indexes an opening delimiter; returns the index of
/// its matching closer, or Size when unbalanced. Counts only the one
/// delimiter pair, so a lambda body inside a call's parentheses is passed
/// over without bookkeeping.
size_t matchDelimiter(const std::vector<Token> &Tokens, size_t I, char Open,
                      char Close) {
  int Depth = 0;
  for (size_t J = I; J < Tokens.size(); ++J) {
    if (Tokens[J].Kind != TokenKind::Punct)
      continue;
    if (isPunct(Tokens[J], Open))
      ++Depth;
    else if (isPunct(Tokens[J], Close) && --Depth == 0)
      return J;
  }
  return Tokens.size();
}

/// Finds the body '{' of a candidate definition whose parameter list
/// closed at \p CloseParen. Accepts trailing qualifiers (const, noexcept,
/// override, final, ref-qualifiers, trailing return types) and a
/// constructor initializer list; anything else means "not a definition".
/// Returns the body-brace token index or Size.
size_t findBodyBrace(const std::vector<Token> &Tokens, size_t CloseParen) {
  size_t I = nextCode(Tokens, CloseParen);
  while (I < Tokens.size()) {
    const Token &T = Tokens[I];
    if (isPunct(T, '{'))
      return I;
    if (isPunct(T, ';') || isPunct(T, '=') || isPunct(T, '}'))
      return Tokens.size(); // declaration, `= default`, end of scope
    if (isPunct(T, ':')) {
      // Either `::` inside a trailing return type or a constructor
      // initializer list. A lone ':' starts the initializer.
      const size_t After = nextCode(Tokens, I);
      if (After < Tokens.size() && isPunct(Tokens[After], ':')) {
        I = nextCode(Tokens, After);
        continue;
      }
      // Constructor initializer: `: member(init), member{init}, ... {`.
      I = After;
      bool SawMemberName = false;
      while (I < Tokens.size()) {
        const Token &M = Tokens[I];
        if (isPunct(M, '(')) {
          const size_t End = matchDelimiter(Tokens, I, '(', ')');
          if (End >= Tokens.size())
            return Tokens.size();
          I = nextCode(Tokens, End);
          SawMemberName = false;
        } else if (isPunct(M, '{')) {
          if (!SawMemberName)
            return I; // the body
          const size_t End = matchDelimiter(Tokens, I, '{', '}');
          if (End >= Tokens.size())
            return Tokens.size();
          I = nextCode(Tokens, End);
          SawMemberName = false;
        } else if (isPunct(M, ',')) {
          I = nextCode(Tokens, I);
        } else if (M.Kind == TokenKind::Identifier ||
                   M.Kind == TokenKind::Number || isPunct(M, ':') ||
                   isPunct(M, '<') || isPunct(M, '>') || isPunct(M, '.')) {
          SawMemberName |= M.Kind == TokenKind::Identifier;
          I = nextCode(Tokens, I);
        } else {
          return Tokens.size();
        }
      }
      return Tokens.size();
    }
    if (T.Kind == TokenKind::Identifier) {
      // const / noexcept / override / final / trailing-return-type names.
      I = nextCode(Tokens, I);
      continue;
    }
    if (isPunct(T, '(')) {
      // noexcept(...) or a parenthesized trailing-return piece.
      const size_t End = matchDelimiter(Tokens, I, '(', ')');
      if (End >= Tokens.size())
        return Tokens.size();
      I = nextCode(Tokens, End);
      continue;
    }
    if (isPunct(T, '&') || isPunct(T, '*') || isPunct(T, '<') ||
        isPunct(T, '>') || isPunct(T, '-') || isPunct(T, ',') ||
        isPunct(T, '[') || isPunct(T, ']')) {
      I = nextCode(Tokens, I);
      continue;
    }
    return Tokens.size();
  }
  return Tokens.size();
}

/// Builds the block structure for one function body.
class BodyParser {
public:
  BodyParser(const std::vector<Token> &Tokens, FunctionCfg &Cfg)
      : Tokens(Tokens), Cfg(Cfg) {}

  void run() {
    Cfg.Entry = newBlock();
    Cfg.Exit = newBlock();
    Current = Cfg.Entry;
    Terminated = false;
    Pos = skipComments(Tokens, Cfg.BodyBeginToken + 1);
    const size_t BodyClose = Cfg.BodyEndToken - 1;
    parseStatementList(BodyClose);
    if (!Terminated)
      addEdge(Current, Cfg.Exit);
  }

private:
  const std::vector<Token> &Tokens;
  FunctionCfg &Cfg;
  size_t Pos = 0;
  uint32_t Current = 0;
  bool Terminated = false;
  std::vector<uint32_t> ContinueTargets; ///< Innermost-last, loops only.
  std::vector<uint32_t> BreakTargets;    ///< Loops and switches.

  uint32_t newBlock() {
    Cfg.Blocks.emplace_back();
    return static_cast<uint32_t>(Cfg.Blocks.size() - 1);
  }

  void addEdge(uint32_t From, uint32_t To) {
    std::vector<uint32_t> &Succs = Cfg.Blocks[From].Successors;
    if (std::find(Succs.begin(), Succs.end(), To) == Succs.end())
      Succs.push_back(To);
  }

  /// Starts a fresh block reached from the current one (unless the
  /// current path already terminated) and makes it current.
  uint32_t startBlockAfter(uint32_t From, bool FromLive) {
    const uint32_t Block = newBlock();
    if (FromLive)
      addEdge(From, Block);
    Current = Block;
    Terminated = false;
    return Block;
  }

  uint32_t appendStatement(StmtKind Kind, size_t Begin, size_t End) {
    CfgStatement Stmt;
    Stmt.Kind = Kind;
    Stmt.TokenBegin = static_cast<uint32_t>(Begin);
    Stmt.TokenEnd = static_cast<uint32_t>(End);
    const size_t First = skipComments(Tokens, Begin);
    if (First < End) {
      Stmt.Line = Tokens[First].Line;
      Stmt.Column = Tokens[First].Column;
    }
    Cfg.Statements.push_back(Stmt);
    const uint32_t Index = static_cast<uint32_t>(Cfg.Statements.size() - 1);
    Cfg.Blocks[Current].Statements.push_back(Index);
    return Index;
  }

  /// True when the token at \p I starts a preprocessor line: a '#' that is
  /// the first token on its physical line.
  bool isDirectiveHash(size_t I) const {
    if (I >= Tokens.size() || !isPunct(Tokens[I], '#'))
      return false;
    return I == 0 || Tokens[I - 1].EndLine < Tokens[I].Line ||
           Tokens[I - 1].Kind == TokenKind::Comment;
  }

  /// Consumes a whole preprocessor directive, splices included.
  void skipDirective() {
    Cfg.HasDirectives = true;
    uint32_t LastLine = Tokens[Pos].EndLine;
    ++Pos;
    while (Pos < Tokens.size() && Tokens[Pos].Line <= LastLine) {
      LastLine = std::max(LastLine, Tokens[Pos].EndLine);
      ++Pos;
    }
    Pos = skipComments(Tokens, Pos);
  }

  void parseStatementList(size_t Until) {
    while (Pos < Until) {
      if (Tokens[Pos].Kind == TokenKind::Comment) {
        ++Pos;
        continue;
      }
      if (isDirectiveHash(Pos)) {
        skipDirective();
        continue;
      }
      parseStatement(Until);
    }
    Pos = Until + 1; // past the closing '}'
  }

  /// Consumes tokens up to and including the ';' that ends a simple
  /// statement, balancing (), [] and {} (lambdas, init-lists). Stops
  /// before \p Until if the statement is malformed.
  size_t consumeSimpleStatement(size_t Until) {
    while (Pos < Until) {
      const Token &T = Tokens[Pos];
      if (isPunct(T, ';')) {
        ++Pos;
        return Pos;
      }
      if (isPunct(T, '(')) {
        const size_t End = matchDelimiter(Tokens, Pos, '(', ')');
        Pos = End < Until ? End + 1 : Until;
        continue;
      }
      if (isPunct(T, '[')) {
        const size_t End = matchDelimiter(Tokens, Pos, '[', ']');
        Pos = End < Until ? End + 1 : Until;
        continue;
      }
      if (isPunct(T, '{')) {
        const size_t End = matchDelimiter(Tokens, Pos, '{', '}');
        Pos = End < Until ? End + 1 : Until;
        continue;
      }
      if (isPunct(T, '}'))
        return Pos; // malformed: ran into a closing brace
      ++Pos;
    }
    return Pos;
  }

  /// Parses `kw ( ... )` starting at the keyword; returns one past the
  /// closing ')'. On malformed input returns Pos unchanged past keyword.
  size_t consumeParenHead() {
    const size_t Open = nextCode(Tokens, Pos);
    if (Open >= Tokens.size() || !isPunct(Tokens[Open], '('))
      return Open;
    const size_t Close = matchDelimiter(Tokens, Open, '(', ')');
    return Close < Tokens.size() ? Close + 1 : Tokens.size();
  }

  void parseStatement(size_t Until) {
    // Code after a return/break/continue on the same path is unreachable:
    // give it a fresh block with NO incoming edge, so its effects never
    // leak into the terminated block's out-state.
    if (Terminated)
      startBlockAfter(Current, /*FromLive=*/false);
    const Token &T = Tokens[Pos];
    if (isPunct(T, '{')) {
      // Compound statement: transparent to control flow.
      const size_t Close = matchDelimiter(Tokens, Pos, '{', '}');
      const size_t Stop = std::min(Close, Until);
      ++Pos;
      const size_t Resume = Stop + 1;
      parseStatementList(Stop);
      Pos = std::min(Resume, Until);
      return;
    }
    if (isPunct(T, ';')) {
      ++Pos;
      return;
    }
    if (T.Kind == TokenKind::Identifier) {
      if (T.Text == "if")
        return parseIf(Until);
      if (T.Text == "while")
        return parseWhile(Until);
      if (T.Text == "do")
        return parseDoWhile(Until);
      if (T.Text == "for")
        return parseFor(Until);
      if (T.Text == "switch")
        return parseSwitch(Until);
      if (T.Text == "try")
        return parseTry(Until);
      if (T.Text == "return" || T.Text == "throw") {
        // A throw leaves the function just like a return (the nearest
        // catch, if any, is modeled by the try/catch edges); a
        // fall-through edge here would fabricate paths.
        const size_t Begin = Pos;
        consumeSimpleStatement(Until);
        appendStatement(StmtKind::Return, Begin, Pos);
        addEdge(Current, Cfg.Exit);
        Terminated = true;
        return;
      }
      if (T.Text == "break") {
        const size_t Begin = Pos;
        consumeSimpleStatement(Until);
        appendStatement(StmtKind::Plain, Begin, Pos);
        if (!BreakTargets.empty())
          addEdge(Current, BreakTargets.back());
        Terminated = true;
        return;
      }
      if (T.Text == "continue") {
        const size_t Begin = Pos;
        consumeSimpleStatement(Until);
        appendStatement(StmtKind::Plain, Begin, Pos);
        if (!ContinueTargets.empty())
          addEdge(Current, ContinueTargets.back());
        Terminated = true;
        return;
      }
      if (T.Text == "goto") {
        Cfg.HasGoto = true;
        consumeSimpleStatement(Until);
        Terminated = true;
        return;
      }
    }
    const size_t Begin = Pos;
    const size_t BeforeEnd = consumeSimpleStatement(Until);
    if (BeforeEnd > Begin)
      appendStatement(StmtKind::Plain, Begin, Pos);
    else
      ++Pos; // no progress on a stray token: never loop forever
  }

  void parseIf(size_t Until) {
    const size_t Begin = Pos;
    size_t AfterHead = consumeParenHead();
    // `if constexpr ( ... )`: the head scan above stopped at `constexpr`.
    if (AfterHead < Tokens.size() &&
        isIdent(Tokens[AfterHead], "constexpr")) {
      Pos = AfterHead;
      AfterHead = consumeParenHead();
    }
    Pos = AfterHead;
    appendStatement(StmtKind::Condition, Begin, Pos);
    const uint32_t CondBlock = Current;

    startBlockAfter(CondBlock, true);
    parseStatement(Until);
    const uint32_t ThenExit = Current;
    const bool ThenLive = !Terminated;

    size_t Next = skipComments(Tokens, Pos);
    if (Next < Until && isIdent(Tokens[Next], "else")) {
      Pos = skipComments(Tokens, Next + 1);
      startBlockAfter(CondBlock, true);
      parseStatement(Until);
      const uint32_t ElseExit = Current;
      const bool ElseLive = !Terminated;
      const uint32_t Merge = newBlock();
      if (ThenLive)
        addEdge(ThenExit, Merge);
      if (ElseLive)
        addEdge(ElseExit, Merge);
      Current = Merge;
      Terminated = !ThenLive && !ElseLive;
    } else {
      const uint32_t Merge = newBlock();
      addEdge(CondBlock, Merge); // the condition was false
      if (ThenLive)
        addEdge(ThenExit, Merge);
      Current = Merge;
      Terminated = false;
    }
  }

  void parseWhile(size_t Until) {
    const uint32_t Before = Current;
    const bool BeforeLive = !Terminated;
    const uint32_t Head = newBlock();
    if (BeforeLive)
      addEdge(Before, Head);
    Current = Head;
    Terminated = false;
    const size_t Begin = Pos;
    Pos = consumeParenHead();
    appendStatement(StmtKind::Condition, Begin, Pos);

    const uint32_t After = newBlock();
    addEdge(Head, After);
    startBlockAfter(Head, true);
    ContinueTargets.push_back(Head);
    BreakTargets.push_back(After);
    parseStatement(Until);
    if (!Terminated)
      addEdge(Current, Head); // back edge
    ContinueTargets.pop_back();
    BreakTargets.pop_back();
    Current = After;
    Terminated = false;
  }

  void parseDoWhile(size_t Until) {
    const uint32_t Before = Current;
    const bool BeforeLive = !Terminated;
    const uint32_t Body = newBlock();
    const uint32_t Cond = newBlock();
    const uint32_t After = newBlock();
    if (BeforeLive)
      addEdge(Before, Body);
    Current = Body;
    Terminated = false;
    Pos = skipComments(Tokens, Pos + 1); // past `do`
    ContinueTargets.push_back(Cond);
    BreakTargets.push_back(After);
    parseStatement(Until);
    if (!Terminated)
      addEdge(Current, Cond);
    ContinueTargets.pop_back();
    BreakTargets.pop_back();

    Current = Cond;
    Terminated = false;
    size_t Next = skipComments(Tokens, Pos);
    if (Next < Until && isIdent(Tokens[Next], "while")) {
      const size_t Begin = Next;
      Pos = Next;
      Pos = consumeParenHead();
      const size_t Semi = skipComments(Tokens, Pos);
      if (Semi < Tokens.size() && isPunct(Tokens[Semi], ';'))
        Pos = Semi + 1;
      appendStatement(StmtKind::Condition, Begin, Pos);
    }
    addEdge(Cond, Body); // back edge
    addEdge(Cond, After);
    Current = After;
    Terminated = false;
  }

  void parseFor(size_t Until) {
    const uint32_t Before = Current;
    const bool BeforeLive = !Terminated;
    const uint32_t Head = newBlock();
    if (BeforeLive)
      addEdge(Before, Head);
    Current = Head;
    Terminated = false;
    const size_t Begin = Pos;
    Pos = consumeParenHead();
    appendStatement(StmtKind::LoopHeader, Begin, Pos);

    const uint32_t After = newBlock();
    addEdge(Head, After);
    startBlockAfter(Head, true);
    ContinueTargets.push_back(Head);
    BreakTargets.push_back(After);
    parseStatement(Until);
    if (!Terminated)
      addEdge(Current, Head); // back edge
    ContinueTargets.pop_back();
    BreakTargets.pop_back();
    Current = After;
    Terminated = false;
  }

  void parseSwitch(size_t Until) {
    const size_t Begin = Pos;
    Pos = consumeParenHead();
    appendStatement(StmtKind::Condition, Begin, Pos);
    const uint32_t CondBlock = Current;

    const size_t OpenBrace = skipComments(Tokens, Pos);
    if (OpenBrace >= Until || !isPunct(Tokens[OpenBrace], '{')) {
      // Malformed or a single-statement switch; treat as straight-line.
      return;
    }
    const size_t Close =
        std::min(matchDelimiter(Tokens, OpenBrace, '{', '}'), Until);
    Pos = skipComments(Tokens, OpenBrace + 1);

    const uint32_t After = newBlock();
    BreakTargets.push_back(After);
    bool HasDefault = false;
    bool InSection = false;
    Terminated = true; // no statements reachable before the first label
    while (Pos < Close) {
      const Token &T = Tokens[Pos];
      if (T.Kind == TokenKind::Comment) {
        ++Pos;
        continue;
      }
      if (isDirectiveHash(Pos)) {
        skipDirective();
        continue;
      }
      if (isIdent(T, "case") || isIdent(T, "default")) {
        HasDefault |= T.Text == "default";
        const size_t LabelBegin = Pos;
        // Consume through the ':' that ends the label, skipping '::'.
        ++Pos;
        while (Pos < Close) {
          if (isPunct(Tokens[Pos], ':')) {
            const size_t After2 = Pos + 1;
            if (After2 < Close && isPunct(Tokens[After2], ':')) {
              Pos = After2 + 1;
              continue;
            }
            ++Pos;
            break;
          }
          ++Pos;
        }
        const uint32_t FallFrom = Current;
        const bool FallLive = InSection && !Terminated;
        const uint32_t Section = newBlock();
        addEdge(CondBlock, Section);
        if (FallLive)
          addEdge(FallFrom, Section); // case fallthrough
        Current = Section;
        Terminated = false;
        InSection = true;
        appendStatement(StmtKind::CaseLabel, LabelBegin, Pos);
        continue;
      }
      if (!InSection) {
        // Code before any label is unreachable; skip it.
        parseStatement(Close);
        continue;
      }
      parseStatement(Close);
    }
    Pos = Close < Until ? Close + 1 : Until;
    if (InSection && !Terminated)
      addEdge(Current, After);
    if (!HasDefault)
      addEdge(CondBlock, After);
    BreakTargets.pop_back();
    Current = After;
    Terminated = false;
  }

  void parseTry(size_t Until) {
    const uint32_t Before = Current;
    const bool BeforeLive = !Terminated;
    const uint32_t TryEntry = newBlock();
    if (BeforeLive)
      addEdge(Before, TryEntry);
    Current = TryEntry;
    Terminated = false;
    Pos = skipComments(Tokens, Pos + 1); // past `try`
    parseStatement(Until);               // the try compound
    const uint32_t TryExit = Current;
    const bool TryLive = !Terminated;

    std::vector<std::pair<uint32_t, bool>> CatchExits;
    size_t Next = skipComments(Tokens, Pos);
    while (Next < Until && isIdent(Tokens[Next], "catch")) {
      Pos = Next;
      Pos = consumeParenHead();
      // An exception may leave the try block at any point; edging from the
      // try entry is the conservative approximation.
      startBlockAfter(TryEntry, true);
      parseStatement(Until);
      CatchExits.emplace_back(Current, !Terminated);
      Next = skipComments(Tokens, Pos);
    }
    const uint32_t Merge = newBlock();
    bool AnyLive = false;
    if (TryLive) {
      addEdge(TryExit, Merge);
      AnyLive = true;
    }
    for (const auto &[Exit, Live] : CatchExits)
      if (Live) {
        addEdge(Exit, Merge);
        AnyLive = true;
      }
    Current = Merge;
    Terminated = !AnyLive;
  }
};

} // namespace

std::vector<FunctionCfg> buildFunctionCfgs(const std::vector<Token> &Tokens) {
  std::vector<FunctionCfg> Cfgs;
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.Kind != TokenKind::Identifier || isControlLikeKeyword(T.Text) ||
        T.Text == "operator")
      continue;
    // Never treat a preprocessor line's tokens as a definition head.
    if (I > 0) {
      bool SameLine = false;
      for (size_t J = I; J-- > 0;) {
        if (Tokens[J].EndLine < T.Line)
          break;
        if (isPunct(Tokens[J], '#')) {
          SameLine = true;
          break;
        }
      }
      if (SameLine)
        continue;
    }
    const size_t Open = nextCode(Tokens, I);
    if (Open >= Tokens.size() || !isPunct(Tokens[Open], '('))
      continue;
    const size_t CloseParen = matchDelimiter(Tokens, Open, '(', ')');
    if (CloseParen >= Tokens.size())
      break; // unbalanced to EOF
    const size_t Body = findBodyBrace(Tokens, CloseParen);
    if (Body >= Tokens.size())
      continue;
    const size_t BodyClose = matchDelimiter(Tokens, Body, '{', '}');
    if (BodyClose >= Tokens.size())
      continue;

    FunctionCfg Cfg;
    Cfg.Name = T.Text;
    Cfg.NameLine = T.Line;
    Cfg.BodyBeginToken = static_cast<uint32_t>(Body);
    Cfg.BodyEndToken = static_cast<uint32_t>(BodyClose + 1);
    Cfg.BodyFirstLine = Tokens[Body].Line;
    Cfg.BodyLastLine = Tokens[BodyClose].EndLine;
    BodyParser Parser(Tokens, Cfg);
    Parser.run();
    Cfgs.push_back(std::move(Cfg));
    I = BodyClose; // function bodies never nest
  }
  return Cfgs;
}

std::vector<uint32_t> reversePostorder(const FunctionCfg &Cfg) {
  std::vector<uint32_t> Order;
  if (Cfg.Blocks.empty())
    return Order;
  std::vector<uint8_t> Visited(Cfg.Blocks.size(), 0);
  // Iterative postorder DFS.
  std::vector<std::pair<uint32_t, size_t>> Stack;
  Stack.emplace_back(Cfg.Entry, 0);
  Visited[Cfg.Entry] = 1;
  while (!Stack.empty()) {
    auto &[Block, NextSucc] = Stack.back();
    if (NextSucc < Cfg.Blocks[Block].Successors.size()) {
      const uint32_t Succ = Cfg.Blocks[Block].Successors[NextSucc++];
      if (!Visited[Succ]) {
        Visited[Succ] = 1;
        Stack.emplace_back(Succ, 0);
      }
      continue;
    }
    Order.push_back(Block);
    Stack.pop_back();
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

std::vector<uint32_t> shortestBlockPath(const FunctionCfg &Cfg, uint32_t From,
                                        uint32_t To) {
  if (From >= Cfg.Blocks.size() || To >= Cfg.Blocks.size())
    return {};
  std::vector<uint32_t> Parent(Cfg.Blocks.size(), uint32_t(-1));
  std::deque<uint32_t> Queue;
  Queue.push_back(From);
  Parent[From] = From;
  while (!Queue.empty()) {
    const uint32_t Block = Queue.front();
    Queue.pop_front();
    if (Block == To)
      break;
    for (uint32_t Succ : Cfg.Blocks[Block].Successors)
      if (Parent[Succ] == uint32_t(-1)) {
        Parent[Succ] = Block;
        Queue.push_back(Succ);
      }
  }
  if (Parent[To] == uint32_t(-1))
    return {};
  std::vector<uint32_t> Path;
  for (uint32_t Block = To; Block != From; Block = Parent[Block])
    Path.push_back(Block);
  Path.push_back(From);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

} // namespace lint
} // namespace parmonc
