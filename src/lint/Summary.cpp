//===- lint/Summary.cpp - Per-function evidence and summaries -------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Summary.h"

#include "parmonc/lint/CallGraph.h"
#include "parmonc/lint/Index.h"

#include <algorithm>

namespace parmonc {
namespace lint {

std::string_view taintKindLabel(TaintKind Kind) {
  switch (Kind) {
  case TaintKind::WallClock:
    return "wall-clock read";
  case TaintKind::Entropy:
    return "ambient entropy source";
  case TaintKind::Environment:
    return "environment variable read";
  case TaintKind::UnorderedIter:
    return "unordered-container iteration order";
  case TaintKind::PointerHash:
    return "pointer hashing";
  }
  return "nondeterminism source";
}

std::string_view sinkKindLabel(SinkKind Kind) {
  switch (Kind) {
  case SinkKind::Estimator:
    return "estimator accumulation";
  case SinkKind::Snapshot:
    return "snapshot/manifest payload";
  case SinkKind::ExpLog:
    return "the parmonc_exp.dat registry";
  }
  return "determinism-critical output";
}

bool taintCallName(std::string_view Name, TaintKind &Kind) {
  if (Name == "time" || Name == "gettimeofday" || Name == "clock_gettime" ||
      Name == "localtime" || Name == "gmtime") {
    Kind = TaintKind::WallClock;
    return true;
  }
  if (Name == "rand" || Name == "srand" || Name == "random" ||
      Name == "drand48" || Name == "lrand48" || Name == "mrand48" ||
      Name == "rand_r") {
    Kind = TaintKind::Entropy;
    return true;
  }
  if (Name == "getenv" || Name == "secure_getenv") {
    Kind = TaintKind::Environment;
    return true;
  }
  return false;
}

bool sinkCallName(std::string_view Name, SinkKind &Kind) {
  if (Name == "accumulate") {
    Kind = SinkKind::Estimator;
    return true;
  }
  if (Name == "writeSnapshot" || Name == "writeResults" ||
      Name == "commit" || Name == "publishShard") {
    Kind = SinkKind::Snapshot;
    return true;
  }
  if (Name == "appendExperimentLog") {
    Kind = SinkKind::ExpLog;
    return true;
  }
  return false;
}

namespace {

bool isPunctTok(const Token &T, char C) {
  return T.Kind == TokenKind::Punct && T.Text.size() == 1 && T.Text[0] == C;
}

bool isStatementKeyword(std::string_view Name) {
  return Name == "if" || Name == "for" || Name == "while" ||
         Name == "switch" || Name == "catch" || Name == "return" ||
         Name == "sizeof" || Name == "alignof" || Name == "decltype" ||
         Name == "noexcept" || Name == "new" || Name == "delete" ||
         Name == "throw" || Name == "do" || Name == "else" ||
         Name == "case" || Name == "static_assert" || Name == "co_return";
}

bool isScopedGuardName(std::string_view Name) {
  return Name == "lock_guard" || Name == "unique_lock" ||
         Name == "scoped_lock";
}

/// Token-index helpers over a file's token stream, comments skipped.
size_t nextCode(const std::vector<Token> &Tokens, size_t I) {
  ++I;
  while (I < Tokens.size() && Tokens[I].Kind == TokenKind::Comment)
    ++I;
  return I;
}

size_t prevCode(const std::vector<Token> &Tokens, size_t I) {
  while (I > 0) {
    --I;
    if (Tokens[I].Kind != TokenKind::Comment)
      return I;
  }
  return size_t(-1);
}

/// Finds the token index of \p Cfg's name token (first identifier with the
/// recorded spelling on the recorded line), or npos.
size_t nameTokenIndex(const std::vector<Token> &Tokens,
                      const FunctionCfg &Cfg) {
  for (size_t I = 0; I < Tokens.size() && Tokens[I].Line <= Cfg.NameLine;
       ++I)
    if (Tokens[I].Kind == TokenKind::Identifier &&
        Tokens[I].Line == Cfg.NameLine && Tokens[I].Text == Cfg.Name)
      return I;
  return size_t(-1);
}

/// True when the code token at \p I closes a `Result<...>` spelled before
/// it — i.e. \p I points at `>` whose matching `<` is preceded by `Result`.
bool closesResultTemplate(const std::vector<Token> &Tokens, size_t I) {
  if (!isPunctTok(Tokens[I], '>'))
    return false;
  int Depth = 1;
  size_t J = I;
  while (Depth > 0) {
    J = prevCode(Tokens, J);
    if (J == size_t(-1))
      return false;
    if (isPunctTok(Tokens[J], '>'))
      ++Depth;
    else if (isPunctTok(Tokens[J], '<'))
      --Depth;
  }
  const size_t Before = prevCode(Tokens, J);
  return Before != size_t(-1) &&
         Tokens[Before].Kind == TokenKind::Identifier &&
         Tokens[Before].Text == "Result";
}

/// Collects the parameter names of the function whose name token is at
/// \p NameTok, and whether any parameter is Status/Result-typed (those
/// names land in \p StatusParams too).
void collectParams(const std::vector<Token> &Tokens, size_t NameTok,
                   std::set<std::string> &Params,
                   std::set<std::string> &StatusParams) {
  size_t Open = nextCode(Tokens, NameTok);
  if (Open >= Tokens.size() || !isPunctTok(Tokens[Open], '('))
    return;
  int Depth = 1;
  size_t I = Open;
  while (Depth > 0) {
    I = nextCode(Tokens, I);
    if (I >= Tokens.size())
      return;
    if (isPunctTok(Tokens[I], '(')) {
      ++Depth;
      continue;
    }
    if (isPunctTok(Tokens[I], ')')) {
      --Depth;
      continue;
    }
    if (Depth != 1 || Tokens[I].Kind != TokenKind::Identifier)
      continue;
    const size_t Next = nextCode(Tokens, I);
    if (Next >= Tokens.size())
      return;
    // A parameter name is an identifier right before `,`, `)` or `=`.
    if (isPunctTok(Tokens[Next], ',') || isPunctTok(Tokens[Next], ')') ||
        isPunctTok(Tokens[Next], '=')) {
      Params.insert(Tokens[I].Text);
      // Status/Result-typed? Look left past `&`, `*` and cv-qualifiers.
      size_t Type = prevCode(Tokens, I);
      while (Type != size_t(-1) &&
             (isPunctTok(Tokens[Type], '&') || isPunctTok(Tokens[Type], '*') ||
              (Tokens[Type].Kind == TokenKind::Identifier &&
               Tokens[Type].Text == "const")))
        Type = prevCode(Tokens, Type);
      if (Type != size_t(-1) &&
          ((Tokens[Type].Kind == TokenKind::Identifier &&
            Tokens[Type].Text == "Status") ||
           closesResultTemplate(Tokens, Type)))
        StatusParams.insert(Tokens[I].Text);
    }
  }
}

/// Heuristic local-declaration scan: identifiers introduced inside the
/// body. Over-collection is fine — locals are only ever *excluded* from
/// field-write evidence, so a stray entry costs a missed finding at most.
void collectLocals(const std::vector<Token> &Tokens, size_t Begin, size_t End,
                   std::set<std::string> &Locals) {
  for (size_t I = Begin; I < End; ++I) {
    if (Tokens[I].Kind != TokenKind::Identifier ||
        isStatementKeyword(Tokens[I].Text))
      continue;
    const size_t Prev = prevCode(Tokens, I);
    if (Prev == size_t(-1))
      continue;
    const Token &P = Tokens[Prev];
    bool TypeLike = false;
    if (P.Kind == TokenKind::Identifier && !isStatementKeyword(P.Text))
      TypeLike = true;
    else if (isPunctTok(P, '&') || isPunctTok(P, '*'))
      TypeLike = true;
    else if (isPunctTok(P, '>')) {
      // Template close introduces a declarator — unless it is `->`.
      const size_t Before = prevCode(Tokens, Prev);
      TypeLike = Before == size_t(-1) || !isPunctTok(Tokens[Before], '-');
    }
    if (!TypeLike)
      continue;
    const size_t Next = nextCode(Tokens, I);
    if (Next >= End)
      continue;
    const Token &N = Tokens[Next];
    if (isPunctTok(N, '=') || isPunctTok(N, ';') || isPunctTok(N, ',') ||
        isPunctTok(N, ')') || isPunctTok(N, '{') || isPunctTok(N, '[') ||
        isPunctTok(N, ':'))
      Locals.insert(Tokens[I].Text);
  }
}

/// True when \p Name, taken as a range-for target, resolves (by a crude
/// nearby-declaration scan over the whole file) to an unordered container.
bool rangeTargetIsUnordered(const std::vector<Token> &Tokens,
                            std::string_view Name) {
  for (size_t I = 0; I < Tokens.size(); ++I) {
    if (Tokens[I].Kind != TokenKind::Identifier ||
        Tokens[I].Text.rfind("unordered_", 0) != 0)
      continue;
    size_t J = I;
    for (unsigned Step = 0; Step < 40 && J < Tokens.size(); ++Step) {
      J = nextCode(Tokens, J);
      if (J < Tokens.size() && Tokens[J].Kind == TokenKind::Identifier &&
          Tokens[J].Text == Name)
        return true;
    }
  }
  return false;
}

/// One live scoped guard: the mutex it holds and the brace depth its
/// declaration lives at (popped when that depth's `}` closes).
struct GuardEntry {
  std::string Mutex;
  int Depth = 0;
};

} // namespace

std::vector<FunctionEvidence>
extractFunctionEvidence(const SourceFile &File) {
  std::vector<FunctionEvidence> Out;
  const std::vector<Token> &Tokens = File.tokens();
  for (const FunctionCfg &Cfg : File.functions()) {
    FunctionEvidence Fn;
    Fn.Name = Cfg.Name;
    Fn.Line = Cfg.NameLine;

    const size_t NameTok = nameTokenIndex(Tokens, Cfg);
    std::set<std::string> Params, StatusParams, Locals;
    if (NameTok != size_t(-1)) {
      collectParams(Tokens, NameTok, Params, StatusParams);
      const size_t TypeTok = prevCode(Tokens, NameTok);
      if (TypeTok != size_t(-1) &&
          ((Tokens[TypeTok].Kind == TokenKind::Identifier &&
            Tokens[TypeTok].Text == "Status") ||
           closesResultTemplate(Tokens, TypeTok)))
        Fn.ReturnsFallibleType = true;
    }
    const size_t Begin = Cfg.BodyBeginToken, End = Cfg.BodyEndToken;
    collectLocals(Tokens, Begin, End, Locals);
    const auto IsLocal = [&](std::string_view Name) {
      return Locals.count(std::string(Name)) != 0 ||
             Params.count(std::string(Name)) != 0;
    };

    // Linear body walk: brace depth, live guards, raw held set, and a
    // per-token lock-depth map the statement passes below can query.
    std::vector<uint8_t> LockDepthAt(End > Begin ? End - Begin : 0, 0);
    std::vector<GuardEntry> Guards;
    std::multiset<std::string> RawHeld;
    int BraceDepth = 0;
    for (size_t I = Begin; I < End; ++I) {
      const Token &T = Tokens[I];
      if (T.Kind == TokenKind::Comment)
        continue;
      if (isPunctTok(T, '{')) {
        ++BraceDepth;
      } else if (isPunctTok(T, '}')) {
        while (!Guards.empty() && Guards.back().Depth == BraceDepth)
          Guards.pop_back();
        --BraceDepth;
      }
      LockDepthAt[I - Begin] =
          uint8_t(std::min<size_t>(Guards.size() + RawHeld.size(), 255));
      if (T.Kind != TokenKind::Identifier)
        continue;
      const bool Held = !Guards.empty() || !RawHeld.empty();

      // Scoped guard declaration: lock_guard/unique_lock/scoped_lock,
      // optional template args, a variable name, then `(mutexes...)`.
      if (isScopedGuardName(T.Text)) {
        size_t J = nextCode(Tokens, I);
        if (J < End && isPunctTok(Tokens[J], '<')) {
          int Depth = 1;
          while (Depth > 0) {
            J = nextCode(Tokens, J);
            if (J >= End)
              break;
            if (isPunctTok(Tokens[J], '<'))
              ++Depth;
            else if (isPunctTok(Tokens[J], '>'))
              --Depth;
          }
          J = nextCode(Tokens, J);
        }
        if (J < End && Tokens[J].Kind == TokenKind::Identifier) {
          size_t Open = nextCode(Tokens, J);
          if (Open < End && isPunctTok(Tokens[Open], '(')) {
            // Each depth-1 argument's last identifier names a mutex.
            // Brackets count as nesting too, so `*Mutexes[index(I)]`
            // names `Mutexes`, not the innermost index expression.
            int Depth = 1;
            std::string LastIdent;
            const auto Record = [&] {
              if (LastIdent.empty())
                return;
              Fn.LockOps.push_back(
                  {LockOpRecord::Op::Scoped, LastIdent, T.Line});
              Guards.push_back({LastIdent, BraceDepth});
              LastIdent.clear();
            };
            size_t K = Open;
            while (Depth > 0) {
              K = nextCode(Tokens, K);
              if (K >= End)
                break;
              if (isPunctTok(Tokens[K], '(') ||
                  isPunctTok(Tokens[K], '[')) {
                ++Depth;
              } else if (isPunctTok(Tokens[K], ')') ||
                         isPunctTok(Tokens[K], ']')) {
                if (--Depth == 0)
                  Record();
              } else if (Depth == 1 && isPunctTok(Tokens[K], ',')) {
                Record();
              } else if (Depth == 1 &&
                         Tokens[K].Kind == TokenKind::Identifier &&
                         Tokens[K].Text != "this") {
                LastIdent = Tokens[K].Text;
              }
            }
          }
        }
        continue;
      }

      // Raw M.lock() / M.unlock() (and the -> spellings).
      {
        size_t Dot = nextCode(Tokens, I);
        size_t Member = size_t(-1);
        if (Dot < End && isPunctTok(Tokens[Dot], '.'))
          Member = nextCode(Tokens, Dot);
        else if (Dot < End && isPunctTok(Tokens[Dot], '-')) {
          const size_t Gt = nextCode(Tokens, Dot);
          if (Gt < End && isPunctTok(Tokens[Gt], '>'))
            Member = nextCode(Tokens, Gt);
        }
        if (Member != size_t(-1) && Member < End &&
            Tokens[Member].Kind == TokenKind::Identifier) {
          const size_t Open = nextCode(Tokens, Member);
          if (Open < End && isPunctTok(Tokens[Open], '(')) {
            if (Tokens[Member].Text == "lock") {
              Fn.LockOps.push_back(
                  {LockOpRecord::Op::Acquire, T.Text, T.Line});
              RawHeld.insert(T.Text);
              continue;
            }
            if (Tokens[Member].Text == "unlock") {
              Fn.LockOps.push_back(
                  {LockOpRecord::Op::Release, T.Text, T.Line});
              const auto It = RawHeld.find(T.Text);
              if (It != RawHeld.end())
                RawHeld.erase(It);
              continue;
            }
          }
        }
      }

      // Determinism-taint sources.
      TaintKind Taint;
      const size_t Next = nextCode(Tokens, I);
      const bool IsCall = Next < End && isPunctTok(Tokens[Next], '(');
      if (IsCall && taintCallName(T.Text, Taint)) {
        Fn.TaintSources.push_back({Taint, T.Line});
      } else if (T.Text == "random_device") {
        Fn.TaintSources.push_back({TaintKind::Entropy, T.Line});
      } else if (T.Text == "system_clock" ||
                 T.Text == "high_resolution_clock") {
        size_t C1 = Next;
        if (C1 < End && isPunctTok(Tokens[C1], ':')) {
          const size_t C2 = nextCode(Tokens, C1);
          const size_t Now = C2 < End ? nextCode(Tokens, C2) : End;
          if (Now < End && Tokens[Now].Kind == TokenKind::Identifier &&
              Tokens[Now].Text == "now")
            Fn.TaintSources.push_back({TaintKind::WallClock, T.Line});
        }
      } else if (T.Text == "hash" && Next < End &&
                 isPunctTok(Tokens[Next], '<')) {
        int Depth = 1;
        size_t J = Next;
        bool SawStar = false;
        while (Depth > 0) {
          J = nextCode(Tokens, J);
          if (J >= End)
            break;
          if (isPunctTok(Tokens[J], '<'))
            ++Depth;
          else if (isPunctTok(Tokens[J], '>'))
            --Depth;
          else if (isPunctTok(Tokens[J], '*'))
            SawStar = true;
        }
        if (SawStar)
          Fn.TaintSources.push_back({TaintKind::PointerHash, T.Line});
      } else if (T.Text == "reinterpret_cast" && Next < End &&
                 isPunctTok(Tokens[Next], '<')) {
        const size_t Target = nextCode(Tokens, Next);
        if (Target < End && Tokens[Target].Kind == TokenKind::Identifier &&
            (Tokens[Target].Text == "uintptr_t" ||
             Tokens[Target].Text == "intptr_t"))
          Fn.TaintSources.push_back({TaintKind::PointerHash, T.Line});
      } else if (T.Text == "for" && IsCall) {
        // Range-for over an unordered container: iteration order is a
        // nondeterminism source even though no call is involved.
        int Depth = 1;
        size_t J = Next;
        size_t ColonAt = size_t(-1);
        while (Depth > 0) {
          J = nextCode(Tokens, J);
          if (J >= End)
            break;
          if (isPunctTok(Tokens[J], '('))
            ++Depth;
          else if (isPunctTok(Tokens[J], ')'))
            --Depth;
          else if (Depth == 1 && isPunctTok(Tokens[J], ':') &&
                   ColonAt == size_t(-1) &&
                   !isPunctTok(Tokens[prevCode(Tokens, J)], ':'))
            ColonAt = J;
        }
        if (ColonAt != size_t(-1)) {
          size_t R = nextCode(Tokens, ColonAt);
          while (R < End && (isPunctTok(Tokens[R], '*') ||
                             isPunctTok(Tokens[R], '&')))
            R = nextCode(Tokens, R);
          if (R < End && Tokens[R].Kind == TokenKind::Identifier &&
              rangeTargetIsUnordered(Tokens, Tokens[R].Text))
            Fn.TaintSources.push_back({TaintKind::UnorderedIter, T.Line});
        }
      }

      // Sinks and plain call sites. Explicit global-namespace calls
      // (`::send`, `::read`) name OS / libc entry points, not project
      // functions; recording them would merge the site into a same-named
      // project overload set and poison its summary with unrelated facts.
      bool GlobalQualified = false;
      {
        const size_t C1 = prevCode(Tokens, I);
        if (C1 != size_t(-1) && isPunctTok(Tokens[C1], ':')) {
          const size_t C2 = prevCode(Tokens, C1);
          if (C2 != size_t(-1) && isPunctTok(Tokens[C2], ':')) {
            const size_t Qual = prevCode(Tokens, C2);
            GlobalQualified =
                Qual == size_t(-1) ||
                (Tokens[Qual].Kind != TokenKind::Identifier &&
                 !isPunctTok(Tokens[Qual], '>'));
          }
        }
      }
      if (IsCall && !isStatementKeyword(T.Text) &&
          !isMacroStyleName(T.Text) && !GlobalQualified) {
        SinkKind Sink;
        if (sinkCallName(T.Text, Sink))
          Fn.Sinks.push_back({Sink, T.Line});
        CallSiteRecord Call{T.Text, T.Line, Held, {}};
        for (const GuardEntry &Guard : Guards)
          Call.HeldMutexes.push_back(Guard.Mutex);
        Call.HeldMutexes.insert(Call.HeldMutexes.end(), RawHeld.begin(),
                                RawHeld.end());
        Fn.Calls.push_back(std::move(Call));
      }
    }

    // Statement-shaped evidence: forwarded returns and field writes.
    const auto LockedAt = [&](size_t TokenIndex) {
      return TokenIndex >= Begin && TokenIndex < End &&
             LockDepthAt[TokenIndex - Begin] > 0;
    };
    for (const CfgStatement &Stmt : Cfg.Statements) {
      size_t First = Stmt.TokenBegin;
      while (First < Stmt.TokenEnd &&
             Tokens[First].Kind == TokenKind::Comment)
        ++First;
      if (First >= Stmt.TokenEnd)
        continue;
      if (Stmt.Kind == StmtKind::Return) {
        // `return callee(...);` — and nothing else in the expression.
        if (Tokens[First].Text != "return")
          continue;
        const size_t Callee = nextCode(Tokens, First);
        if (Callee >= Stmt.TokenEnd ||
            Tokens[Callee].Kind != TokenKind::Identifier ||
            isStatementKeyword(Tokens[Callee].Text) ||
            isMacroStyleName(Tokens[Callee].Text))
          continue;
        size_t Open = nextCode(Tokens, Callee);
        if (Open >= Stmt.TokenEnd || !isPunctTok(Tokens[Open], '('))
          continue;
        int Depth = 1;
        size_t J = Open;
        while (Depth > 0) {
          J = nextCode(Tokens, J);
          if (J >= Stmt.TokenEnd)
            break;
          if (isPunctTok(Tokens[J], '('))
            ++Depth;
          else if (isPunctTok(Tokens[J], ')'))
            --Depth;
        }
        const size_t Semi = nextCode(Tokens, J);
        if (Semi < Stmt.TokenEnd && isPunctTok(Tokens[Semi], ';'))
          Fn.ReturnCalls.push_back({Tokens[Callee].Text, Stmt.Line});
        continue;
      }
      if (Stmt.Kind != StmtKind::Plain)
        continue;
      const Token &Head = Tokens[First];
      if (Head.Kind != TokenKind::Identifier ||
          isStatementKeyword(Head.Text) || isMacroStyleName(Head.Text) ||
          IsLocal(Head.Text))
        continue;
      // `Field = ...` / `Field += ...` / `Field.x = ...` with the target
      // leading the statement; also `Field++` / `++Field` style bumps.
      bool Writes = false;
      size_t OpAt = size_t(-1);
      int Depth = 0;
      for (size_t J = First; J < Stmt.TokenEnd && !Writes; ++J) {
        const Token &T = Tokens[J];
        if (T.Kind == TokenKind::Comment)
          continue;
        if (isPunctTok(T, '(') || isPunctTok(T, '['))
          ++Depth;
        else if (isPunctTok(T, ')') || isPunctTok(T, ']'))
          --Depth;
        else if (Depth == 0 && isPunctTok(T, '=')) {
          const size_t After = nextCode(Tokens, J);
          const size_t Before = prevCode(Tokens, J);
          const bool Compare =
              (After < Stmt.TokenEnd && isPunctTok(Tokens[After], '=')) ||
              (Before != size_t(-1) &&
               (isPunctTok(Tokens[Before], '=') ||
                isPunctTok(Tokens[Before], '!') ||
                isPunctTok(Tokens[Before], '<') ||
                isPunctTok(Tokens[Before], '>')));
          if (!Compare) {
            Writes = true;
            // A compound op (`+=`, `-=`, `|=`...) ends the target one
            // token earlier.
            OpAt = J;
            if (Before != size_t(-1) &&
                Tokens[Before].Kind == TokenKind::Punct &&
                Tokens[Before].Text.size() == 1 &&
                std::string_view("+-*/%&|^").find(Tokens[Before].Text) !=
                    std::string_view::npos)
              OpAt = Before;
          }
        } else if (Depth == 0 && isPunctTok(T, '+') &&
                   J + 1 < Stmt.TokenEnd && isPunctTok(Tokens[J + 1], '+')) {
          Writes = true;
          OpAt = J;
        } else if (Depth == 0 && isPunctTok(T, '-') &&
                   J + 1 < Stmt.TokenEnd && isPunctTok(Tokens[J + 1], '-')) {
          Writes = true;
          OpAt = J;
        } else if (Depth == 0 && isPunctTok(T, ';')) {
          break;
        }
      }
      // Only a simple lvalue chain — identifiers joined by `.`, `->`, or
      // indexing — is a field write. Anything else leading up to the
      // operator (`const ssize_t Got = ...`, `auto It = ...`,
      // `std::tie(...) = ...`) is a declaration or too clever to claim.
      const auto SimpleLhs = [&](size_t LhsEnd) {
        bool WantIdent = true, ExpectGt = false;
        int Bracket = 0;
        for (size_t J = First; J < LhsEnd; ++J) {
          const Token &L = Tokens[J];
          if (L.Kind == TokenKind::Comment)
            continue;
          if (isPunctTok(L, '[')) {
            ++Bracket;
            continue;
          }
          if (isPunctTok(L, ']')) {
            if (--Bracket < 0)
              return false;
            continue;
          }
          if (Bracket > 0)
            continue; // index expressions are opaque
          if (ExpectGt) {
            if (!isPunctTok(L, '>'))
              return false;
            ExpectGt = false;
            WantIdent = true;
          } else if (L.Kind == TokenKind::Identifier) {
            if (!WantIdent)
              return false;
            WantIdent = false;
          } else if (isPunctTok(L, '.')) {
            if (WantIdent)
              return false;
            WantIdent = true;
          } else if (isPunctTok(L, '-')) {
            if (WantIdent)
              return false;
            ExpectGt = true;
          } else {
            return false;
          }
        }
        return !WantIdent && !ExpectGt && Bracket == 0;
      };
      if (Writes && OpAt != size_t(-1) && SimpleLhs(OpAt))
        Fn.FieldWrites.push_back({Head.Text, LockedAt(First), Head.Line});
    }

    // Status/Result parameter consumption: the body reads such a param.
    for (const std::string &Param : StatusParams) {
      for (size_t I = Begin; I < End && !Fn.ConsumesStatusParam; ++I)
        if (Tokens[I].Kind == TokenKind::Identifier &&
            Tokens[I].Text == Param)
          Fn.ConsumesStatusParam = true;
      if (Fn.ConsumesStatusParam)
        break;
    }

    Out.push_back(std::move(Fn));
  }
  return Out;
}

namespace {

/// Files whose functions are sanctioned determinism-taint carriers: the
/// obs/ trace layer timestamps deliberately, and support/Clock.h *is* the
/// approved wall-clock seam.
bool isSanctionedTaintPath(std::string_view Path) {
  return pathContainsComponent(Path, "obs") ||
         pathEndsWith(Path, "support/Clock.h") ||
         pathEndsWith(Path, "support/Clock.cpp");
}

} // namespace

SummaryStore computeSummaries(const ProjectIndex &Index,
                              const CallGraph &Graph) {
  SummaryStore Store;
  // Merged per-name evidence views (overload-set-conservative).
  struct Merged {
    std::vector<const FunctionEvidence *> Defs;
    bool Sanctioned = true;
  };
  std::map<std::string, Merged, std::less<>> ByName;
  for (size_t I = 0; I < Index.fileCount(); ++I) {
    const bool Sanctioned = isSanctionedTaintPath(Index.path(I));
    for (const FunctionEvidence &Fn : Index.facts(I).Functions) {
      Merged &M = ByName[Fn.Name];
      if (M.Defs.empty()) {
        FunctionSummary Seed;
        Seed.File = Index.path(I);
        Seed.Line = Fn.Line;
        Store.Map.emplace(Fn.Name, std::move(Seed));
      }
      M.Defs.push_back(&Fn);
      M.Sanctioned = M.Sanctioned && Sanctioned;
    }
  }

  // Local seeding.
  for (auto &[Name, M] : ByName) {
    FunctionSummary &S = Store.Map.find(Name)->second;
    for (const FunctionEvidence *Fn : M.Defs) {
      if (Fn->ReturnsFallibleType && !S.ReturnsFallible) {
        S.ReturnsFallible = true;
        S.FallibleVia.clear();
        S.FallibleLine = Fn->Line;
      }
      if (!M.Sanctioned && !Fn->TaintSources.empty() &&
          !S.TaintsDeterminism) {
        S.TaintsDeterminism = true;
        S.TaintOrigin = Fn->TaintSources.front().Kind;
        S.TaintVia.clear();
        S.TaintLine = Fn->TaintSources.front().Line;
      }
      for (const LockOpRecord &Op : Fn->LockOps)
        if (Op.Kind != LockOpRecord::Op::Release &&
            S.AcquiresLocks.insert(Op.Mutex).second)
          S.LockVia[Op.Mutex] = {std::string(), Op.Line};
      S.ConsumesStatusParam |= Fn->ConsumesStatusParam;
    }
  }

  // Bottom-up propagation over the SCC condensation; each component
  // iterates to a fixed point so recursion converges (every propagated
  // fact is monotone over a two-point lattice, so this terminates).
  for (const std::vector<uint32_t> &Component : Graph.sccsBottomUp()) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t Node : Component) {
        const std::string &Name = Graph.name(Node);
        const auto MIt = ByName.find(Name);
        if (MIt == ByName.end())
          continue;
        FunctionSummary &S = Store.Map.find(Name)->second;
        for (const FunctionEvidence *Fn : MIt->second.Defs) {
          for (const ReturnCallRecord &Ret : Fn->ReturnCalls) {
            const FunctionSummary *Callee = Store.find(Ret.Callee);
            if (Callee && Callee->ReturnsFallible && !S.ReturnsFallible) {
              S.ReturnsFallible = true;
              S.FallibleVia = Ret.Callee;
              S.FallibleLine = Ret.Line;
              Changed = true;
            }
          }
          auto Propagate = [&](const std::string &CalleeName,
                               uint32_t CallLine) {
            const FunctionSummary *Callee = Store.find(CalleeName);
            if (!Callee)
              return;
            if (Callee->TaintsDeterminism && !S.TaintsDeterminism &&
                !MIt->second.Sanctioned) {
              S.TaintsDeterminism = true;
              S.TaintOrigin = Callee->TaintOrigin;
              S.TaintVia = CalleeName;
              S.TaintLine = CallLine;
              Changed = true;
            }
            for (const std::string &Lock : Callee->AcquiresLocks)
              if (S.AcquiresLocks.insert(Lock).second) {
                S.LockVia[Lock] = {CalleeName, CallLine};
                Changed = true;
              }
            if (Callee->EscapesStream && !S.EscapesStream) {
              S.EscapesStream = true;
              Changed = true;
            }
          };
          for (const CallSiteRecord &Call : Fn->Calls)
            Propagate(Call.Callee, Call.Line);
          for (const ReturnCallRecord &Ret : Fn->ReturnCalls)
            Propagate(Ret.Callee, Ret.Line);
        }
      }
    }
  }

  // Called-with-lock-held closure: seed from call sites under a lock, then
  // flow through every call edge out of a seeded function (its whole body
  // may execute under the caller's lock).
  std::vector<std::string> Frontier;
  std::set<std::string, std::less<>> UnderLock;
  for (const auto &[Name, M] : ByName)
    for (const FunctionEvidence *Fn : M.Defs)
      for (const CallSiteRecord &Call : Fn->Calls)
        if (Call.UnderLock && Store.find(Call.Callee) &&
            UnderLock.insert(Call.Callee).second)
          Frontier.push_back(Call.Callee);
  while (!Frontier.empty()) {
    const std::string Name = Frontier.back();
    Frontier.pop_back();
    const auto MIt = ByName.find(Name);
    if (MIt == ByName.end())
      continue;
    for (const FunctionEvidence *Fn : MIt->second.Defs)
      for (const CallSiteRecord &Call : Fn->Calls)
        if (Store.find(Call.Callee) &&
            UnderLock.insert(Call.Callee).second)
          Frontier.push_back(Call.Callee);
  }
  for (const std::string &Name : UnderLock)
    Store.Map.find(Name)->second.CalledUnderLock = true;

  return Store;
}

} // namespace lint
} // namespace parmonc
