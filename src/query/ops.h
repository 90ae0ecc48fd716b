// Physical operators over binding tables.
//
// Every operator takes an ExecContext (stats sink + optional worker pool).
// Execution is vectorized: operators collect (input row index, emitted
// node) pairs into column chunks and materialize their output table with
// per-column batch gathers; filters and duplicate elimination flip the
// table's selection vector instead of copying rows.
//
// When a pool is present, row-oriented operators run morsel-driven: the
// input rows are split into fixed-size morsels claimed by workers off a
// shared counter; each morsel emits into a private column chunk and the
// chunks are concatenated in morsel index order, so the output is
// byte-identical to the serial run (the
// determinism contract the tests enforce). Index probes (TagScan,
// content/attr lookups) and hash-table builds stay in the serial prefix of
// each operator; workers only perform const reads of the in-memory tree
// and store images.
//
// The cost asymmetry these implement is the paper's central performance
// claim (Section 7.2): structural (containment) joins are merge/hash joins
// over pre-ordered interval labels and parent pointers — much cheaper than
// value-based joins — and a *cross-tree join* (color transition, Section
// 6.2) is a bulk identity lookup costing slightly less than a value join.
//
// Operator inventory:
//   TagScanTable        index scan of a tag in a color
//   ExpandChildren      child::tag step   (parent-pointer hash join)
//   ExpandDescendants   descendant::tag   (stack-based interval merge join)
//   ExpandParent        parent::tag
//   ExpandAncestors     ancestor::tag     (used by the deep baseline's
//                                          grouping plans)
//   CrossTreeJoin       color transition on a bound column
//   StructuralSemiJoin  filter rows by containment against a node set
//   HashValueJoin       equality value join on extracted string keys
//   IdrefsJoin          IDREFS-list containment join (shallow schemas)
//   NestedLoopJoin      general theta join (inequality predicates)
//   IdentityJoin        join two tables on node identity of two columns
//   FilterRows          predicate filter
//   DupElim             duplicate elimination on a column subset

#ifndef COLORFUL_XML_QUERY_OPS_H_
#define COLORFUL_XML_QUERY_OPS_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mct/database.h"
#include "query/table.h"

namespace mct::query {

/// How to extract a join/sort key string from a bound node.
struct KeySpec {
  enum class Kind {
    kOwnContent,    // the node's own text content
    kChildContent,  // content of the first child with `name` in `color`
    kAttr,          // value of attribute `name`
    kStringValue,   // full color-aware string value
  };
  Kind kind = Kind::kOwnContent;
  ColorId color = 0;  // for kChildContent / kStringValue
  std::string name;   // child tag or attribute name

  static KeySpec OwnContent() { return {Kind::kOwnContent, 0, ""}; }
  static KeySpec ChildContent(ColorId c, std::string tag) {
    return {Kind::kChildContent, c, std::move(tag)};
  }
  static KeySpec Attr(std::string attr) {
    return {Kind::kAttr, 0, std::move(attr)};
  }
  static KeySpec StringValue(ColorId c) {
    return {Kind::kStringValue, c, ""};
  }
};

/// Extracts the key; nullopt when the node lacks the child/attr/color.
std::optional<std::string> ExtractKey(const MctDatabase& db, NodeId node,
                                      const KeySpec& spec);

/// True when `spec`'s key can be served as a view into storage the
/// database owns (content / attribute images are stable for the query's
/// lifetime): kOwnContent, kChildContent and kAttr. kStringValue
/// concatenates and must own its buffer.
bool KeySpecViewable(const KeySpec& spec);

/// Zero-copy variant for viewable specs: the returned view aliases the
/// node store and stays valid until the database is mutated. Precondition:
/// KeySpecViewable(spec).
std::optional<std::string_view> ExtractKeyView(const MctDatabase& db,
                                               NodeId node,
                                               const KeySpec& spec);

/// Index scan: one-column table of all `tag` elements in `color`, in local
/// document order.
Table TagScanTable(MctDatabase* db, ColorId color, const std::string& var,
                   const std::string& tag, const ExecContext& ctx);

/// Appends a column `out_var` binding children of `col` with `tag` in
/// `color` (one output row per child; rows without such children drop out).
/// Empty `tag` matches any element child.
Table ExpandChildren(MctDatabase* db, const Table& in, int col, ColorId color,
                     const std::string& tag, const std::string& out_var,
                     const ExecContext& ctx);

/// Appends a column binding descendants with `tag` in `color`, via a
/// stack-based interval merge against the tag index (a structural join).
Table ExpandDescendants(MctDatabase* db, const Table& in, int col,
                        ColorId color, const std::string& tag,
                        const std::string& out_var, const ExecContext& ctx);

/// ExpandDescendants restricted to a caller-supplied candidate set instead
/// of the full tag index (the planner's index-seek pushdown: candidates
/// come from a content/attribute-index probe). `cands` may be unordered
/// and contain duplicates or nodes outside `color`/`tag`; they are
/// filtered, deduped and start-sorted before the identical interval merge,
/// so the output matches ExpandDescendants over any superset restricted to
/// these matches — same rows, same order.
Table ExpandDescendantsAmong(MctDatabase* db, const Table& in, int col,
                             ColorId color, const std::string& tag,
                             const std::vector<NodeId>& cands,
                             const std::string& out_var,
                             const ExecContext& ctx);

/// Navigational descendant step: pre-order-walks each context row's
/// subtree instead of scanning the tag index. Result-identical (rows and
/// order) to ExpandDescendants; chosen by the planner when the context is
/// tiny and the subtrees are small.
Table ExpandDescendantsNav(MctDatabase* db, const Table& in, int col,
                           ColorId color, const std::string& tag,
                           const std::string& out_var, const ExecContext& ctx);

/// Descendant step off the lone document-root row: the tag scan already
/// *is* the answer in the right order, so skip grouping and merging.
/// Precondition: `in` has exactly one row and in.At(0, col) is the
/// document (asserted). Result-identical to ExpandDescendants.
Table ExpandDescendantsRoot(MctDatabase* db, const Table& in, int col,
                            ColorId color, const std::string& tag,
                            const std::string& out_var,
                            const ExecContext& ctx);

/// Appends a column binding the parent of `col` in `color` when its tag is
/// `tag` (empty = any); other rows drop out.
Table ExpandParent(MctDatabase* db, const Table& in, int col, ColorId color,
                   const std::string& tag, const std::string& out_var,
                   const ExecContext& ctx);

/// Appends a column binding every ancestor with `tag` in `color`.
Table ExpandAncestors(MctDatabase* db, const Table& in, int col, ColorId color,
                      const std::string& tag, const std::string& out_var,
                      const ExecContext& ctx);

/// Cross-tree join (the paper's color-transition access method): keeps rows
/// whose `col` node also has `to_color`. The node keeps its identity; its
/// structural context simply switches trees. Bulk identity join. The
/// rvalue overload keeps the surviving rows by composing the selection
/// vector in place — no row data moves at all.
Table CrossTreeJoin(MctDatabase* db, const Table& in, int col, ColorId to_color,
                    const ExecContext& ctx);
Table CrossTreeJoin(MctDatabase* db, Table&& in, int col, ColorId to_color,
                    const ExecContext& ctx);

/// Keeps rows where `filter` contains a node that is an ancestor (axis
/// descendant: filter-ancestors-of-col ... ) — precisely: keeps row when
/// col's node is a descendant of some node in `anc_set` (color's labels).
Table StructuralSemiJoin(MctDatabase* db, const Table& in, int col,
                         ColorId color, const std::vector<NodeId>& anc_set,
                         const ExecContext& ctx);

/// Hash equality join: rows of `left` and `right` combine when the
/// extracted keys match. Inner join; rows with missing keys drop.
Table HashValueJoin(MctDatabase* db, const Table& left, int lcol,
                    const KeySpec& lkey, const Table& right, int rcol,
                    const KeySpec& rkey, const ExecContext& ctx);

/// IDREFS containment join: `lkey` extracts a whitespace-separated id list
/// from the left node, `rkey` a single id from the right; rows combine when
/// the list contains the id. The shallow baseline's bread and butter.
Table IdrefsJoin(MctDatabase* db, const Table& left, int lcol,
                 const KeySpec& lkey, const Table& right, int rcol,
                 const KeySpec& rkey, const ExecContext& ctx);

/// General theta join (used for inequality predicates; quadratic, matching
/// the paper's observation that its two inequality-join queries scaled
/// quadratically). `pred(li, ri)` sees logical row indices of the two
/// inputs (read cells with left.At(li, c) / right.At(ri, c)) and must be
/// safe to call concurrently when ctx.pool is set.
Table NestedLoopJoin(MctDatabase* db, const Table& left, const Table& right,
                     const std::function<bool(size_t, size_t)>& pred,
                     const ExecContext& ctx);

/// Joins two tables on node identity of (lcol, rcol) — how MCXQuery's
/// `[. = $m]` correlation evaluates (hash join on NodeId).
Table IdentityJoin(MctDatabase* db, const Table& left, int lcol,
                   const Table& right, int rcol, const ExecContext& ctx);

/// Keeps rows satisfying `pred(row)`, where `row` is a logical row index
/// (read cells with in.At(row, c)). `pred` must be safe to call
/// concurrently when ctx.pool is set. The rvalue overload keeps survivors
/// by composing the selection vector in place (no row data moves).
Table FilterRows(const Table& in, const std::function<bool(size_t)>& pred,
                 const ExecContext& ctx);
Table FilterRows(Table&& in, const std::function<bool(size_t)>& pred,
                 const ExecContext& ctx);

/// Removes duplicate rows w.r.t. the projection onto `cols` (first
/// occurrence wins) — the duplicate elimination that hurts the deep
/// baseline in Table 2. Inherently order-dependent, so it stays serial; the
/// rvalue overload keeps the surviving rows via the selection vector
/// instead of copying them.
Table DupElim(const Table& in, const std::vector<int>& cols,
              const ExecContext& ctx);
Table DupElim(Table&& in, const std::vector<int>& cols,
              const ExecContext& ctx);

/// Projects onto `cols` (in the given order). Columnar storage makes this
/// O(cols): the overloads copy or move whole column vectors (the selection
/// vector, when active, carries over untouched).
Table Project(const Table& in, const std::vector<int>& cols);
Table Project(Table&& in, const std::vector<int>& cols);

}  // namespace mct::query

#endif  // COLORFUL_XML_QUERY_OPS_H_
