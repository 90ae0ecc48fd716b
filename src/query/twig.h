// Holistic twig joins (Bruno, Koudas, Srivastava: "Holistic twig joins:
// optimal XML pattern matching", SIGMOD 2002 — the paper's reference [8]).
//
// A twig pattern is a small tree of (tag, axis) tests. PathStackJoin
// evaluates a *path* pattern (no branching) holistically: all tag streams
// are merged in one pass over their interval labels with chained stacks, so
// no intermediate binary-join result can blow up. The planner runs it as
// the descendant spine of a binding (DESIGN.md §12).
//
// It agrees exactly with composing the binary structural joins of ops.h
// (property-tested); the ablation benchmark compares their costs.

#ifndef COLORFUL_XML_QUERY_TWIG_H_
#define COLORFUL_XML_QUERY_TWIG_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mct/database.h"
#include "query/table.h"

namespace mct::query {

/// One node of a twig pattern.
struct TwigNode {
  std::string tag;      // element test (must be non-empty)
  bool child_axis = false;  // edge from parent: child (true) or descendant
  int parent = -1;      // index in TwigPattern::nodes; -1 for the root node
};

/// A twig pattern; node 0 is the pattern root (matched via descendant from
/// the document).
struct TwigPattern {
  std::vector<TwigNode> nodes;

  /// Adds a node; returns its index.
  int Add(int parent, std::string tag, bool child_axis) {
    nodes.push_back(TwigNode{std::move(tag), child_axis, parent});
    return static_cast<int>(nodes.size()) - 1;
  }

  bool IsPath() const;
};

/// Holistic path join: `pattern` must be a path (each node at most one
/// child). Output columns follow pattern-node order.
Result<Table> PathStackJoin(MctDatabase* db, ColorId color,
                            const TwigPattern& pattern, const ExecContext& ctx);

}  // namespace mct::query

#endif  // COLORFUL_XML_QUERY_TWIG_H_
