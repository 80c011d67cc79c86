//===- lint/CallGraph.cpp - Project-wide call graph -----------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/CallGraph.h"

#include "parmonc/lint/Index.h"
#include "parmonc/lint/Summary.h"

#include <algorithm>

namespace parmonc {
namespace lint {

namespace {

void sortUnique(std::vector<uint32_t> &Values) {
  std::sort(Values.begin(), Values.end());
  Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
}

} // namespace

CallGraph CallGraph::build(const ProjectIndex &Index) {
  CallGraph Graph;
  // Nodes: every defined function name, first-seen order (the analyzer
  // indexes files in sorted path order, so node ids are deterministic).
  for (size_t I = 0; I < Index.fileCount(); ++I)
    for (const FunctionEvidence &Fn : Index.facts(I).Functions)
      if (Graph.NodeByName.emplace(Fn.Name, uint32_t(Graph.Names.size()))
              .second)
        Graph.Names.push_back(Fn.Name);

  Graph.Edges.resize(Graph.Names.size());
  Graph.ReverseEdges.resize(Graph.Names.size());
  for (size_t I = 0; I < Index.fileCount(); ++I) {
    for (const FunctionEvidence &Fn : Index.facts(I).Functions) {
      const uint32_t Caller = Graph.nodeFor(Fn.Name);
      auto AddEdge = [&](const std::string &Callee) {
        const uint32_t Target = Graph.nodeFor(Callee);
        if (Target != npos && Target != Caller)
          Graph.Edges[Caller].push_back(Target);
      };
      for (const CallSiteRecord &Call : Fn.Calls)
        AddEdge(Call.Callee);
      for (const ReturnCallRecord &Ret : Fn.ReturnCalls)
        AddEdge(Ret.Callee);
    }
  }
  for (uint32_t Node = 0; Node < Graph.Edges.size(); ++Node) {
    sortUnique(Graph.Edges[Node]);
    for (uint32_t Callee : Graph.Edges[Node])
      Graph.ReverseEdges[Callee].push_back(Node);
  }
  for (std::vector<uint32_t> &Callers : Graph.ReverseEdges)
    sortUnique(Callers);
  return Graph;
}

uint32_t CallGraph::nodeFor(std::string_view Name) const {
  auto It = NodeByName.find(Name);
  return It == NodeByName.end() ? npos : It->second;
}

std::vector<std::vector<uint32_t>> CallGraph::sccsBottomUp() const {
  // Iterative Tarjan. The natural emission order (a component is complete
  // when its root pops) is already bottom-up: every cross-component edge
  // out of a later component lands in an earlier one.
  const uint32_t N = uint32_t(Names.size());
  std::vector<std::vector<uint32_t>> Components;
  std::vector<uint32_t> Number(N, npos), LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Stack;
  uint32_t NextNumber = 0;

  struct Frame {
    uint32_t Node;
    size_t EdgeIndex;
  };
  std::vector<Frame> Work;

  for (uint32_t Start = 0; Start < N; ++Start) {
    if (Number[Start] != npos)
      continue;
    Work.push_back({Start, 0});
    Number[Start] = LowLink[Start] = NextNumber++;
    Stack.push_back(Start);
    OnStack[Start] = true;
    while (!Work.empty()) {
      Frame &Top = Work.back();
      const uint32_t Node = Top.Node;
      if (Top.EdgeIndex < Edges[Node].size()) {
        const uint32_t Next = Edges[Node][Top.EdgeIndex++];
        if (Number[Next] == npos) {
          Work.push_back({Next, 0});
          Number[Next] = LowLink[Next] = NextNumber++;
          Stack.push_back(Next);
          OnStack[Next] = true;
        } else if (OnStack[Next]) {
          LowLink[Node] = std::min(LowLink[Node], Number[Next]);
        }
        continue;
      }
      if (LowLink[Node] == Number[Node]) {
        std::vector<uint32_t> Component;
        for (;;) {
          const uint32_t Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          Component.push_back(Member);
          if (Member == Node)
            break;
        }
        std::sort(Component.begin(), Component.end());
        Components.push_back(std::move(Component));
      }
      Work.pop_back();
      if (!Work.empty()) {
        const uint32_t Parent = Work.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[Node]);
      }
    }
  }
  return Components;
}

} // namespace lint
} // namespace parmonc
