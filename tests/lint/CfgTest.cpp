//===- tests/lint/CfgTest.cpp - CFG builder and dataflow tests ------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Exercises the third mclint pipeline stage on synthetic buffers: the
// per-function CFG builder (branch, loop, switch-fallthrough and early-
// return shapes; the conservative goto/preprocessor bail-outs) and the
// forward-dataflow fixed point over those graphs, including convergence
// across loop back edges under both may- and must-style joins.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Cfg.h"
#include "parmonc/lint/Dataflow.h"
#include "parmonc/lint/Lexer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace parmonc {
namespace lint {
namespace {

/// Builds CFGs for \p Src and returns the single expected function.
FunctionCfg buildOne(std::string_view Src) {
  const LexedFile File = lexFile(Src);
  std::vector<FunctionCfg> Cfgs = buildFunctionCfgs(File.Tokens);
  EXPECT_EQ(Cfgs.size(), 1u);
  return Cfgs.empty() ? FunctionCfg{} : std::move(Cfgs.front());
}

/// Index of the block containing a statement whose first token is on the
/// 0-based \p Line, or UINT32_MAX.
uint32_t blockOnLine(const FunctionCfg &Cfg, uint32_t Line) {
  for (uint32_t B = 0; B < Cfg.Blocks.size(); ++B)
    for (uint32_t S : Cfg.Blocks[B].Statements)
      if (Cfg.Statements[S].Line == Line)
        return B;
  return UINT32_MAX;
}

bool hasEdge(const FunctionCfg &Cfg, uint32_t From, uint32_t To) {
  const auto &Succs = Cfg.Blocks[From].Successors;
  return std::find(Succs.begin(), Succs.end(), To) != Succs.end();
}

/// One fact; transfer marks it on every Plain statement. MayReach joins
/// with max ("marked on SOME path"), MustReach with min ("on EVERY path").
class ReachClient : public DataflowClient {
public:
  explicit ReachClient(bool Must) : Must(Must) {}
  size_t factCount() const override { return 1; }
  uint8_t join(uint8_t A, uint8_t B) const override {
    return Must ? std::min(A, B) : std::max(A, B);
  }
  void transfer(const CfgStatement &Stmt,
                std::vector<uint8_t> &State) const override {
    if (Stmt.Kind == StmtKind::Plain)
      State[0] = 1;
  }

private:
  bool Must;
};

//===----------------------------------------------------------------------===//
// Graph shapes.
//===----------------------------------------------------------------------===//

TEST(CfgTest, StraightLineBodyIsOneBlockPlusExit) {
  const FunctionCfg Cfg = buildOne("void f() {\n"
                                   "  int A = 1;\n"
                                   "  int B = 2;\n"
                                   "}\n");
  EXPECT_EQ(Cfg.Name, "f");
  ASSERT_EQ(Cfg.Statements.size(), 2u);
  EXPECT_EQ(Cfg.Statements[0].Kind, StmtKind::Plain);
  EXPECT_EQ(Cfg.Statements[0].Line, 1u);
  EXPECT_EQ(Cfg.Statements[0].Column, 2u);
  // Both statements share one block, which falls through to the exit.
  const uint32_t B = blockOnLine(Cfg, 1);
  ASSERT_NE(B, UINT32_MAX);
  EXPECT_EQ(blockOnLine(Cfg, 2), B);
  EXPECT_TRUE(hasEdge(Cfg, B, Cfg.Exit));
  EXPECT_TRUE(Cfg.Blocks[Cfg.Exit].Statements.empty());
  EXPECT_TRUE(Cfg.analyzable());
}

TEST(CfgTest, IfElseFormsADiamond) {
  const FunctionCfg Cfg = buildOne("void f(bool C) {\n"
                                   "  if (C) {\n"
                                   "    int A = 1;\n"
                                   "  } else {\n"
                                   "    int B = 2;\n"
                                   "  }\n"
                                   "  int D = 3;\n"
                                   "}\n");
  const uint32_t Cond = blockOnLine(Cfg, 1);
  const uint32_t Then = blockOnLine(Cfg, 2);
  const uint32_t Else = blockOnLine(Cfg, 4);
  const uint32_t After = blockOnLine(Cfg, 6);
  ASSERT_NE(Cond, UINT32_MAX);
  ASSERT_NE(Then, UINT32_MAX);
  ASSERT_NE(Else, UINT32_MAX);
  ASSERT_NE(After, UINT32_MAX);
  EXPECT_EQ(Cfg.Blocks[Cond].Successors.size(), 2u);
  EXPECT_TRUE(hasEdge(Cfg, Cond, Then));
  EXPECT_TRUE(hasEdge(Cfg, Cond, Else));
  EXPECT_TRUE(hasEdge(Cfg, Then, After));
  EXPECT_TRUE(hasEdge(Cfg, Else, After));
}

TEST(CfgTest, WhileLoopHasABackEdge) {
  const FunctionCfg Cfg = buildOne("void f(int N) {\n"
                                   "  while (N > 0) {\n"
                                   "    N = N - 1;\n"
                                   "  }\n"
                                   "  int A = 0;\n"
                                   "}\n");
  const uint32_t Head = blockOnLine(Cfg, 1);
  const uint32_t Body = blockOnLine(Cfg, 2);
  const uint32_t After = blockOnLine(Cfg, 4);
  ASSERT_NE(Head, UINT32_MAX);
  ASSERT_NE(Body, UINT32_MAX);
  ASSERT_NE(After, UINT32_MAX);
  EXPECT_TRUE(hasEdge(Cfg, Head, Body));
  EXPECT_TRUE(hasEdge(Cfg, Head, After));
  EXPECT_TRUE(hasEdge(Cfg, Body, Head)); // the back edge
}

TEST(CfgTest, EarlyReturnEdgesToExit) {
  const FunctionCfg Cfg = buildOne("int f(bool C) {\n"
                                   "  if (C)\n"
                                   "    return 1;\n"
                                   "  return 0;\n"
                                   "}\n");
  const uint32_t Early = blockOnLine(Cfg, 2);
  const uint32_t Tail = blockOnLine(Cfg, 3);
  ASSERT_NE(Early, UINT32_MAX);
  ASSERT_NE(Tail, UINT32_MAX);
  EXPECT_EQ(Cfg.Statements[Cfg.Blocks[Early].Statements.back()].Kind,
            StmtKind::Return);
  EXPECT_TRUE(hasEdge(Cfg, Early, Cfg.Exit));
  EXPECT_TRUE(hasEdge(Cfg, Tail, Cfg.Exit));
  // A return block does NOT fall through to the statement after it.
  EXPECT_FALSE(hasEdge(Cfg, Early, Tail));
}

TEST(CfgTest, SwitchSectionsFallThrough) {
  const FunctionCfg Cfg = buildOne("void f(int K) {\n"
                                   "  switch (K) {\n"
                                   "  case 0:\n"
                                   "    K = 1;\n"
                                   "  case 1:\n"
                                   "    K = 2;\n"
                                   "    break;\n"
                                   "  }\n"
                                   "}\n");
  const uint32_t Cond = blockOnLine(Cfg, 1);
  const uint32_t Sec0 = blockOnLine(Cfg, 3);
  const uint32_t Sec1 = blockOnLine(Cfg, 5);
  ASSERT_NE(Cond, UINT32_MAX);
  ASSERT_NE(Sec0, UINT32_MAX);
  ASSERT_NE(Sec1, UINT32_MAX);
  // The dispatch reaches both sections; section 0 falls through into 1.
  EXPECT_TRUE(hasEdge(Cfg, Cond, Sec0));
  EXPECT_TRUE(hasEdge(Cfg, Cond, Sec1));
  EXPECT_TRUE(hasEdge(Cfg, Sec0, Sec1));
}

TEST(CfgTest, NestedSwitchInsideLoopKeepsFallThroughAndBackEdge) {
  const FunctionCfg Cfg = buildOne("void f(int N) {\n"
                                   "  while (N > 0) {\n"
                                   "    switch (N) {\n"
                                   "    case 0:\n"
                                   "      N = 1;\n"
                                   "    case 1:\n"
                                   "      N = 2;\n"
                                   "      break;\n"
                                   "    }\n"
                                   "    N = N - 1;\n"
                                   "  }\n"
                                   "  int A = 0;\n"
                                   "}\n");
  const uint32_t Head = blockOnLine(Cfg, 1);
  const uint32_t Dispatch = blockOnLine(Cfg, 2);
  const uint32_t Sec0 = blockOnLine(Cfg, 4);
  const uint32_t Sec1 = blockOnLine(Cfg, 6);
  const uint32_t Tail = blockOnLine(Cfg, 9);
  const uint32_t After = blockOnLine(Cfg, 11);
  ASSERT_NE(Head, UINT32_MAX);
  ASSERT_NE(Dispatch, UINT32_MAX);
  ASSERT_NE(Sec0, UINT32_MAX);
  ASSERT_NE(Sec1, UINT32_MAX);
  ASSERT_NE(Tail, UINT32_MAX);
  ASSERT_NE(After, UINT32_MAX);
  // The switch keeps its shape inside the loop body ...
  EXPECT_TRUE(hasEdge(Cfg, Dispatch, Sec0));
  EXPECT_TRUE(hasEdge(Cfg, Dispatch, Sec1));
  EXPECT_TRUE(hasEdge(Cfg, Sec0, Sec1));
  // ... the break targets the statement after the switch, not the loop
  // exit, and the loop's own back edge survives the nesting.
  EXPECT_TRUE(hasEdge(Cfg, Sec1, Tail));
  EXPECT_TRUE(hasEdge(Cfg, Tail, Head));
  EXPECT_TRUE(hasEdge(Cfg, Head, After));
  EXPECT_FALSE(hasEdge(Cfg, Sec1, After));
}

TEST(CfgTest, GotoDisablesOnlyTheFunctionThatContainsIt) {
  const LexedFile File = lexFile("void bad() {\n"
                                 "  goto out;\n"
                                 "out:\n"
                                 "  return;\n"
                                 "}\n"
                                 "\n"
                                 "void good(bool C) {\n"
                                 "  if (C)\n"
                                 "    return;\n"
                                 "  int A = 1;\n"
                                 "}\n");
  std::vector<FunctionCfg> Cfgs = buildFunctionCfgs(File.Tokens);
  ASSERT_EQ(Cfgs.size(), 2u);
  EXPECT_EQ(Cfgs[0].Name, "bad");
  EXPECT_TRUE(Cfgs[0].HasGoto);
  EXPECT_FALSE(Cfgs[0].analyzable());
  // The sibling is untouched by the bail-out and still runs to a fixed
  // point.
  EXPECT_EQ(Cfgs[1].Name, "good");
  EXPECT_FALSE(Cfgs[1].HasGoto);
  ASSERT_TRUE(Cfgs[1].analyzable());
  const DataflowResult May = runForwardDataflow(Cfgs[1], ReachClient(false));
  EXPECT_TRUE(May.Reached[Cfgs[1].Exit]);
  EXPECT_EQ(May.In[Cfgs[1].Exit][0], 1u);
}

TEST(CfgTest, GotoAndDirectivesDisableAnalysis) {
  const FunctionCfg WithGoto = buildOne("void f() {\n"
                                        "  goto out;\n"
                                        "out:\n"
                                        "  return;\n"
                                        "}\n");
  EXPECT_TRUE(WithGoto.HasGoto);
  EXPECT_FALSE(WithGoto.analyzable());

  const FunctionCfg WithIf = buildOne("void f() {\n"
                                      "#if FAST\n"
                                      "  int A = 1;\n"
                                      "#endif\n"
                                      "}\n");
  EXPECT_TRUE(WithIf.HasDirectives);
  EXPECT_FALSE(WithIf.analyzable());
}

TEST(CfgTest, ReversePostorderStartsAtEntryAndCoversReachable) {
  const FunctionCfg Cfg = buildOne("void f(bool C) {\n"
                                   "  if (C)\n"
                                   "    return;\n"
                                   "  int A = 1;\n"
                                   "}\n");
  const std::vector<uint32_t> Order = reversePostorder(Cfg);
  ASSERT_FALSE(Order.empty());
  EXPECT_EQ(Order.front(), Cfg.Entry);
  // Every block is reachable here, so the order covers all of them once.
  std::vector<uint32_t> Sorted = Order;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(Sorted.size(), Cfg.Blocks.size());
  EXPECT_EQ(std::adjacent_find(Sorted.begin(), Sorted.end()), Sorted.end());
}

TEST(CfgTest, ShortestBlockPathFindsAWitness) {
  const FunctionCfg Cfg = buildOne("void f(bool C) {\n"
                                   "  if (C) {\n"
                                   "    int A = 1;\n"
                                   "  }\n"
                                   "  int B = 2;\n"
                                   "}\n");
  const std::vector<uint32_t> Path =
      shortestBlockPath(Cfg, Cfg.Entry, Cfg.Exit);
  ASSERT_GE(Path.size(), 2u);
  EXPECT_EQ(Path.front(), Cfg.Entry);
  EXPECT_EQ(Path.back(), Cfg.Exit);
  for (size_t I = 0; I + 1 < Path.size(); ++I)
    EXPECT_TRUE(hasEdge(Cfg, Path[I], Path[I + 1]));
  // Unreachable direction: no block precedes the entry.
  EXPECT_TRUE(shortestBlockPath(Cfg, Cfg.Exit, Cfg.Entry).empty());
}

//===----------------------------------------------------------------------===//
// Dataflow fixed points.
//===----------------------------------------------------------------------===//

TEST(CfgTest, DataflowMustJoinSeesTheUnmarkedPath) {
  // The then-branch marks, the implicit else does not: under a must-join
  // the exit state is unmarked, under a may-join it is marked.
  const FunctionCfg Cfg = buildOne("void f(bool C) {\n"
                                   "  if (C) {\n"
                                   "    int A = 1;\n"
                                   "  }\n"
                                   "}\n");
  const DataflowResult Must = runForwardDataflow(Cfg, ReachClient(true));
  const DataflowResult May = runForwardDataflow(Cfg, ReachClient(false));
  ASSERT_TRUE(Must.Reached[Cfg.Exit]);
  EXPECT_EQ(Must.In[Cfg.Exit][0], 0u);
  EXPECT_EQ(May.In[Cfg.Exit][0], 1u);
}

TEST(CfgTest, DataflowBothBranchesMarkedSatisfiesMust) {
  const FunctionCfg Cfg = buildOne("void f(bool C) {\n"
                                   "  if (C) {\n"
                                   "    int A = 1;\n"
                                   "  } else {\n"
                                   "    int B = 2;\n"
                                   "  }\n"
                                   "}\n");
  const DataflowResult Must = runForwardDataflow(Cfg, ReachClient(true));
  EXPECT_EQ(Must.In[Cfg.Exit][0], 1u);
}

TEST(CfgTest, DataflowConvergesAcrossLoopBackEdge) {
  // The only marking statement is inside the loop: the zero-iteration
  // path reaches the exit unmarked, so must-join says 0 while may-join
  // says 1 — and both fixed points terminate despite the back edge.
  const FunctionCfg Cfg = buildOne("void f(int N) {\n"
                                   "  while (N > 0) {\n"
                                   "    N = N - 1;\n"
                                   "  }\n"
                                   "}\n");
  const DataflowResult Must = runForwardDataflow(Cfg, ReachClient(true));
  const DataflowResult May = runForwardDataflow(Cfg, ReachClient(false));
  EXPECT_EQ(Must.In[Cfg.Exit][0], 0u);
  EXPECT_EQ(May.In[Cfg.Exit][0], 1u);
  // The loop head's entry state joins the back edge: marked on the
  // iterating path under may-analysis.
  const uint32_t Head = blockOnLine(Cfg, 1);
  ASSERT_NE(Head, UINT32_MAX);
  EXPECT_EQ(May.In[Head][0], 1u);
}

TEST(CfgTest, DataflowConvergesAcrossNestedBackEdges) {
  // Two nested loops, the only marking statement in the innermost body:
  // the fixed point must terminate with both back edges live, and the
  // zero-iteration paths keep the must-join at 0 everywhere.
  const FunctionCfg Cfg = buildOne("void f(int N, int M) {\n"
                                   "  while (N > 0) {\n"
                                   "    while (M > 0) {\n"
                                   "      M = M - 1;\n"
                                   "    }\n"
                                   "    N = N - 1;\n"
                                   "  }\n"
                                   "}\n");
  const uint32_t Outer = blockOnLine(Cfg, 1);
  const uint32_t Inner = blockOnLine(Cfg, 2);
  const uint32_t InnerBody = blockOnLine(Cfg, 3);
  const uint32_t OuterTail = blockOnLine(Cfg, 5);
  ASSERT_NE(Outer, UINT32_MAX);
  ASSERT_NE(Inner, UINT32_MAX);
  ASSERT_NE(InnerBody, UINT32_MAX);
  ASSERT_NE(OuterTail, UINT32_MAX);
  EXPECT_TRUE(hasEdge(Cfg, InnerBody, Inner)); // inner back edge
  EXPECT_TRUE(hasEdge(Cfg, OuterTail, Outer)); // outer back edge
  const DataflowResult Must = runForwardDataflow(Cfg, ReachClient(true));
  const DataflowResult May = runForwardDataflow(Cfg, ReachClient(false));
  EXPECT_EQ(Must.In[Cfg.Exit][0], 0u);
  EXPECT_EQ(May.In[Cfg.Exit][0], 1u);
  // The mark escapes the inner loop and rides the outer back edge all
  // the way around to both loop heads.
  EXPECT_EQ(May.In[Outer][0], 1u);
  EXPECT_EQ(May.In[Inner][0], 1u);
}

TEST(CfgTest, DataflowLeavesUnreachableBlocksAtZero) {
  const FunctionCfg Cfg = buildOne("void f() {\n"
                                   "  int A = 1;\n"
                                   "  return;\n"
                                   "  int B = 2;\n"
                                   "}\n");
  const DataflowResult May = runForwardDataflow(Cfg, ReachClient(false));
  const uint32_t Dead = blockOnLine(Cfg, 3);
  ASSERT_NE(Dead, UINT32_MAX);
  EXPECT_FALSE(May.Reached[Dead]);
  EXPECT_EQ(May.In[Dead][0], 0u);
  EXPECT_TRUE(May.Reached[Cfg.Exit]);
  EXPECT_EQ(May.In[Cfg.Exit][0], 1u);
}

} // namespace
} // namespace lint
} // namespace parmonc
