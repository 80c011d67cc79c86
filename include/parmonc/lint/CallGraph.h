//===- parmonc/lint/CallGraph.h - Project-wide call graph -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project-wide call graph the interprocedural stage (Summary.h) walks.
/// Nodes are function *names*, not definitions: mclint resolves calls from
/// the token stream without types, so a call edge `f -> g` conservatively
/// targets the whole overload set of `g` — every same-name definition's
/// evidence is folded into one node before summaries propagate. Names that
/// never resolve to a definition in the scanned set (std:: calls, external
/// libraries) are not nodes; edges to them are dropped rather than guessed
/// at.
///
/// The graph exposes its SCC condensation in bottom-up (callee-first)
/// order, which is the evaluation order the summary fixed point needs:
/// every non-recursive callee is final before its callers are visited, and
/// mutual recursion is iterated inside its SCC until stable.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_CALLGRAPH_H
#define PARMONC_LINT_CALLGRAPH_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {
namespace lint {

class ProjectIndex;

/// The name-keyed call graph. Immutable once built.
class CallGraph {
public:
  /// Builds the graph from the per-function evidence in \p Index: one node
  /// per defined function name, one deduplicated edge per (caller name,
  /// callee name) pair where the callee is also defined in the index.
  static CallGraph build(const ProjectIndex &Index);

  size_t nodeCount() const { return Names.size(); }
  const std::string &name(uint32_t Node) const { return Names[Node]; }

  /// The node for \p Name, or npos when no scanned file defines it.
  static constexpr uint32_t npos = uint32_t(-1);
  uint32_t nodeFor(std::string_view Name) const;

  /// Callee nodes of \p Node, sorted and deduplicated.
  const std::vector<uint32_t> &callees(uint32_t Node) const {
    return Edges[Node];
  }

  /// Caller nodes of \p Node, sorted and deduplicated.
  const std::vector<uint32_t> &callers(uint32_t Node) const {
    return ReverseEdges[Node];
  }

  /// Strongly connected components in bottom-up order: every edge leaving
  /// a component targets a component that appears *earlier* in the result,
  /// so visiting the list front to back sees callees before callers.
  std::vector<std::vector<uint32_t>> sccsBottomUp() const;

private:
  std::vector<std::string> Names;
  std::map<std::string, uint32_t, std::less<>> NodeByName;
  std::vector<std::vector<uint32_t>> Edges;
  std::vector<std::vector<uint32_t>> ReverseEdges;
};

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_CALLGRAPH_H
