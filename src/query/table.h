// Binding tables: the tuple stream flowing between physical operators.
//
// A Table holds the bindings of one or more query variables (columns) to
// nodes (rows), exactly the "tuple of bindings" an XQuery FLWOR produces.
// Operators are set-oriented functions over Tables (Timber evaluated its
// algebra bulk-wise too), which keeps join algorithms — the heart of the
// paper's performance story — explicit and measurable.
//
// Storage is columnar: one contiguous std::vector<NodeId> per variable,
// plus an optional selection vector. A row is a purely logical notion —
// row r of column j is cols[j][sel[r]] (or cols[j][r] when no selection is
// active). Filters and duplicate elimination flip selection indices
// instead of copying rows; expansion operators and joins materialize their
// output with per-column batch gathers. Compared to the former
// row-of-rows layout (std::vector<std::vector<NodeId>>), this removes the
// per-row heap allocation and lets operators process whole label columns
// at a time (DESIGN.md §13, "Vectorized execution").

#ifndef COLORFUL_XML_QUERY_TABLE_H_
#define COLORFUL_XML_QUERY_TABLE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mct/node_store.h"

namespace mct {
class ResourceGovernor;
class ThreadPool;
struct ColorMask;
}

namespace mct::query {

class QueryTrace;

struct Table {
  /// Column names (variable names like "$m"; internal step columns use
  /// positional names).
  std::vector<std::string> vars;
  /// Column storage, parallel to `vars`: cols[j][r] is the physical cell of
  /// column j. Invariant: cols.size() == vars.size() and all columns have
  /// equal length. Prefer the accessors below over direct indexing — they
  /// resolve the selection vector.
  std::vector<std::vector<NodeId>> cols;
  /// Selection vector (active when `use_sel`): logical row r is physical
  /// row sel[r] of every column. Produced by filters/dup-elim so a
  /// selective operator costs O(kept) index writes, not O(kept * cols)
  /// cell copies.
  std::vector<uint32_t> sel;
  bool use_sel = false;

  size_t num_rows() const {
    if (use_sel) return sel.size();
    return cols.empty() ? 0 : cols[0].size();
  }
  size_t num_cols() const { return vars.size(); }
  /// True when no selection vector is active, i.e. logical row order is
  /// physical column order and ColumnSpan() views are valid.
  bool dense() const { return !use_sel; }

  /// The cell of logical row `row`, column `col`.
  NodeId At(size_t row, int col) const {
    const std::vector<NodeId>& c = cols[static_cast<size_t>(col)];
    return use_sel ? c[sel[row]] : c[row];
  }

  /// Index of a variable, or -1. Takes a string_view so hot callers avoid
  /// temporary std::string conversions; column counts are small (bounded by
  /// the query's variable count), so a linear scan is fine — callers in
  /// per-row loops should still hoist the lookup out of the loop.
  int ColumnOf(std::string_view var) const {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == var) return static_cast<int>(i);
    }
    return -1;
  }

  /// Empty table with the given column names (columns sized and empty).
  static Table WithVars(std::vector<std::string> names) {
    Table t;
    t.vars = std::move(names);
    t.cols.resize(t.vars.size());
    return t;
  }

  /// Single-column table from a node list; the vector becomes the column
  /// (no per-row work at all).
  static Table FromNodes(std::string var, std::vector<NodeId> nodes) {
    Table t;
    t.vars.push_back(std::move(var));
    t.cols.push_back(std::move(nodes));
    return t;
  }

  /// Table from explicit rows (tests and small literal setups; O(rows *
  /// cols) scatter).
  static Table FromRows(std::vector<std::string> names,
                        const std::vector<std::vector<NodeId>>& rows) {
    Table t = WithVars(std::move(names));
    for (auto& c : t.cols) c.reserve(rows.size());
    for (const auto& r : rows) t.AppendRow(r);
    return t;
  }

  /// Zero-copy view of one column. Precondition: dense() — callers holding
  /// a selected table Flatten() first (or read through At()).
  std::span<const NodeId> ColumnSpan(int col) const {
    assert(dense());
    return std::span<const NodeId>(cols[static_cast<size_t>(col)]);
  }

  /// The nodes bound in one column, in logical row order (with duplicates).
  /// Materializing copy; prefer ColumnSpan() on dense tables.
  std::vector<NodeId> Column(int col) const {
    const std::vector<NodeId>& c = cols[static_cast<size_t>(col)];
    if (!use_sel) return c;
    std::vector<NodeId> out;
    out.reserve(sel.size());
    for (uint32_t s : sel) out.push_back(c[s]);
    return out;
  }

  /// Appends a new column. Precondition: dense() and (when columns exist)
  /// data.size() == num_rows().
  void AppendColumn(std::string var, std::vector<NodeId> data) {
    assert(dense());
    assert(cols.empty() || data.size() == num_rows());
    vars.push_back(std::move(var));
    cols.push_back(std::move(data));
  }

  /// Appends one row (cell per column). Precondition: dense(). For row-
  /// shaped producers (FromRows, the path-stack join's emit); operators
  /// materialize with gathers instead.
  void AppendRow(const std::vector<NodeId>& row) {
    assert(dense() && row.size() == cols.size());
    for (size_t j = 0; j < cols.size(); ++j) cols[j].push_back(row[j]);
  }

  /// Restricts the table to the given logical rows, in order, by composing
  /// the selection vector in place — O(keep) regardless of column count.
  void KeepRows(std::vector<uint32_t> keep) {
    if (use_sel) {
      for (uint32_t& k : keep) k = sel[k];
    }
    sel = std::move(keep);
    use_sel = true;
  }

  /// Materializes the selection vector into dense columns.
  void Flatten() {
    if (!use_sel) return;
    for (auto& c : cols) {
      std::vector<NodeId> packed;
      packed.reserve(sel.size());
      for (uint32_t s : sel) packed.push_back(c[s]);
      c = std::move(packed);
    }
    sel.clear();
    use_sel = false;
  }

  /// New dense table holding the given logical rows of this table, in
  /// order (duplicates allowed) — the batch gather join/sort emits use.
  Table GatherRows(std::span<const uint32_t> idx) const {
    Table out = WithVars(vars);
    GatherInto(*this, idx, &out, 0);
    return out;
  }

  /// Batch gather: appends src's logical rows `idx` (in order) into dst's
  /// columns [dst_col0, dst_col0 + src.num_cols()). Column-at-a-time, so
  /// the inner loop is a tight index copy per column. dst must be dense.
  static void GatherInto(const Table& src, std::span<const uint32_t> idx,
                         Table* dst, size_t dst_col0) {
    assert(dst->dense());
    for (size_t j = 0; j < src.cols.size(); ++j) {
      const std::vector<NodeId>& in = src.cols[j];
      std::vector<NodeId>& out = dst->cols[dst_col0 + j];
      out.reserve(out.size() + idx.size());
      if (src.use_sel) {
        for (uint32_t r : idx) out.push_back(in[src.sel[r]]);
      } else {
        for (uint32_t r : idx) out.push_back(in[r]);
      }
    }
  }

  /// One logical row materialized as a vector (ToRows and tests).
  std::vector<NodeId> RowAt(size_t row) const {
    std::vector<NodeId> r;
    r.reserve(cols.size());
    for (size_t j = 0; j < cols.size(); ++j) {
      r.push_back(At(row, static_cast<int>(j)));
    }
    return r;
  }

  /// The whole table as row vectors — differential tests compare layouts
  /// through this, so columnar/selected/dense variants of the same logical
  /// table compare equal.
  std::vector<std::vector<NodeId>> ToRows() const {
    std::vector<std::vector<NodeId>> rows;
    const size_t n = num_rows();
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) rows.push_back(RowAt(i));
    return rows;
  }
};

/// Counters for the cost anatomy the paper reports alongside Table 2: how
/// many structural joins, value joins and color crossings a plan performed.
struct ExecStats {
  uint64_t structural_joins = 0;
  uint64_t value_joins = 0;
  uint64_t cross_tree_joins = 0;
  uint64_t nested_loop_joins = 0;
  uint64_t dup_elims = 0;
  uint64_t rows_scanned = 0;

  void Reset() { *this = ExecStats(); }

  /// Serial and parallel runs of the same plan must produce equal counters.
  bool operator==(const ExecStats&) const = default;

  /// Folds another counter set into this one. Parallel operators keep one
  /// ExecStats per morsel and merge at operator exit, so the hot path never
  /// touches an atomic and the merged totals equal the serial run exactly.
  void Merge(const ExecStats& other) {
    structural_joins += other.structural_joins;
    value_joins += other.value_joins;
    cross_tree_joins += other.cross_tree_joins;
    nested_loop_joins += other.nested_loop_joins;
    dup_elims += other.dup_elims;
    rows_scanned += other.rows_scanned;
  }
};

/// Everything an operator needs beyond its operands: the stats sink and the
/// parallel execution configuration. Implicitly constructible from a bare
/// ExecStats* so call sites that only count (`&stats`, `nullptr`) stay
/// short and run serially.
struct ExecContext {
  ExecStats* stats = nullptr;
  /// Worker pool; nullptr = serial execution.
  ThreadPool* pool = nullptr;
  /// Rows per morsel; inputs at or below this size run serially.
  size_t morsel_size = 1024;
  /// Plan trace sink (see query/trace.h); nullptr disables tracing. Each
  /// operator checks this exactly once, so a disabled trace costs one
  /// branch per operator call, never per row.
  QueryTrace* trace = nullptr;
  /// Per-query resource governor (common/governor.h): cooperative
  /// cancellation, deadline, and memory budget, checked at morsel/batch
  /// boundaries with the same zero-cost-when-off discipline as `trace` —
  /// nullptr (the default) costs one branch per operator, never per row.
  /// When the governor trips, operators stop emitting (their truncated
  /// output is never returned: the evaluator surfaces the governor's
  /// sticky status first) and large materializations are charged to the
  /// budget before they grow.
  ResourceGovernor* governor = nullptr;
  /// Session color visibility mask (mct/color.h, DESIGN.md §16): the
  /// defense-in-depth backstop below the analyzer and the evaluator's own
  /// per-step filtering. Color-parameterized operators asked to expand
  /// into a read-invisible color emit nothing. nullptr or inactive = all
  /// colors visible, one branch per operator call (same discipline as
  /// `governor`).
  const ColorMask* mask = nullptr;

  ExecContext() = default;
  ExecContext(ExecStats* s) : stats(s) {}  // NOLINT: implicit by design
  ExecContext(ExecStats* s, ThreadPool* p, size_t morsel,
              QueryTrace* t = nullptr)
      : stats(s), pool(p), morsel_size(morsel), trace(t) {}
};

}  // namespace mct::query

#endif  // COLORFUL_XML_QUERY_TABLE_H_
