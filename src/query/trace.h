// EXPLAIN ANALYZE plan traces: a tree of per-operator execution records
// (rows in/out, morsels claimed, wall time, color transitions) built while
// a plan runs, rendered as an indented text tree or as JSON.
//
// Recording discipline. The trace is mutated only from the thread driving
// the plan (the evaluator thread): physical operators open their node
// before fanning out and fill it after the fan-out joins, so morsel workers
// never touch the trace and no synchronization is needed. A null
// ExecContext::trace disables recording at a single branch per operator —
// never per row — which is the zero-overhead-when-off guarantee.

#ifndef COLORFUL_XML_QUERY_TRACE_H_
#define COLORFUL_XML_QUERY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/table.h"

namespace mct::query {

/// One node of the plan trace: a physical operator execution or a logical
/// group (a FOR binding, the query root).
struct OpTrace {
  std::string op;      // operator name, e.g. "CHILD STEP", "CROSS-TREE JOIN"
  std::string detail;  // e.g. "{red}child::name -> $n"
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Morsels claimed by this operator's fan-out (1 = ran serially; 0 = the
  /// operator had no row loop, e.g. an empty input short-circuit).
  uint64_t morsels = 0;
  /// Rows driven through the morsel fan-out. Usually rows_in; descendant
  /// expansion drives the scanned descendant stream instead.
  uint64_t fanout_rows = 0;
  /// Column-batch kernel invocations this operator performed: emit-
  /// collection chunks plus gather passes. 0 = the operator emitted
  /// nothing.
  uint64_t batches = 0;
  /// Color transitions (cross-tree joins) performed by this node.
  uint64_t color_transitions = 0;
  /// Planner cardinality estimate for rows_out (-1 = no plan / not
  /// estimated). EXPLAIN PLAN renders estimated-vs-actual from this.
  double est_rows = -1;
  double seconds = 0;
  std::vector<std::unique_ptr<OpTrace>> children;

  /// Depth-first visit of this node and its subtree.
  template <typename Fn>
  void Visit(const Fn& fn) const {
    fn(*this);
    for (const auto& c : children) c->Visit(fn);
  }
};

/// The trace of one query execution. Open()/Close() manage a stack of group
/// nodes; Leaf() appends an operator record under the current group.
/// Pause()/Resume() discard recordings made in between — used for nested
/// per-row FLWORs, whose per-row subplans would otherwise bloat the trace
/// by a factor of the outer cardinality.
class QueryTrace {
 public:
  QueryTrace();

  /// Appends a group node under the current group and makes it current.
  OpTrace* Open(std::string op, std::string detail = "");
  /// Pops `node` (must be the current group).
  void Close(const OpTrace* node);
  /// Appends an operator record under the current group.
  OpTrace* Leaf(std::string op, std::string detail = "");

  void Pause() { ++paused_; }
  void Resume() {
    if (paused_ > 0) --paused_;
  }
  bool paused() const { return paused_ > 0; }

  const OpTrace& root() const { return root_; }
  OpTrace* mutable_root() { return &root_; }

  /// The most recently opened/appended node (&scratch_ while paused, so
  /// stamping an estimate on it is always safe and drops out with the
  /// paused recording). The evaluator uses this to attach planner
  /// estimates to the operator it just ran.
  OpTrace* last() { return last_ != nullptr ? last_ : &scratch_; }

  /// Sum of color_transitions over the whole tree.
  uint64_t TotalColorTransitions() const;
  /// Number of operator/group nodes (excluding the root).
  uint64_t NodeCount() const;

  /// EXPLAIN ANALYZE-style indented text tree.
  std::string ToText() const;
  /// The same data as one JSON object (schema in DESIGN.md).
  std::string ToJson() const;

 private:
  OpTrace root_;
  OpTrace scratch_;  // sink for recordings made while paused
  std::vector<OpTrace*> stack_;
  OpTrace* last_ = nullptr;
  int paused_ = 0;
};

/// RAII recorder used inside physical operators. Constructing with a null
/// ctx.trace is free; when enabled it opens a leaf, stamps rows_in, and the
/// destructor records wall time — so every exit path is timed.
class OpScope {
 public:
  OpScope(const ExecContext& ctx, const char* op, uint64_t rows_in)
      : trace_(ctx.trace) {
    if (trace_ == nullptr) return;
    node_ = trace_->Leaf(op);
    node_->rows_in = rows_in;
    node_->fanout_rows = rows_in;
    start_ = std::chrono::steady_clock::now();
  }
  ~OpScope() {
    if (node_ != nullptr) {
      node_->seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
    }
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// False when tracing is off: callers skip detail formatting entirely.
  bool enabled() const { return node_ != nullptr; }
  void set_detail(std::string d) { node_->detail = std::move(d); }
  void Finish(uint64_t rows_out, uint64_t morsels) {
    node_->rows_out = rows_out;
    node_->morsels = morsels;
  }
  void Finish(uint64_t rows_out, uint64_t morsels, uint64_t fanout_rows) {
    node_->rows_out = rows_out;
    node_->morsels = morsels;
    node_->fanout_rows = fanout_rows;
  }
  void AddColorTransition() { ++node_->color_transitions; }
  void AddBatches(uint64_t n) { node_->batches += n; }

 private:
  QueryTrace* trace_;
  OpTrace* node_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mct::query

#endif  // COLORFUL_XML_QUERY_TRACE_H_
