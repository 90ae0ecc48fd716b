// MCXQuery evaluator.
//
// Executes parsed MCXQuery statements against an MctDatabase through the
// physical operators of src/query. Planning follows the paper's methodology
// (Section 6.2: plans were chosen by hand to be the best; ours uses the
// equivalent deterministic heuristics):
//
//  * each for-binding's colored path compiles to TagScan + structural
//    join steps, with a CrossTreeJoin inserted at every color transition
//    between consecutive steps;
//  * where-clause conjuncts that equate values across two bound variables
//    become hash value joins (IdrefsJoin for contains(list, id) shapes);
//    inequality conjuncts become nested-loop joins; conjuncts over a single
//    variable become selections;
//  * `[. = $x]` correlations become node-identity joins.
//
// Constructor expressions create new free nodes whose parent/child edges
// stay *pending* until createColor attaches the fragment to a colored tree
// — at which point a node occurring twice in one tree raises the paper's
// dynamic error. Enclosed expressions preserve node identity; createCopy
// makes fresh deep copies.

#ifndef COLORFUL_XML_MCX_EVALUATOR_H_
#define COLORFUL_XML_MCX_EVALUATOR_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "mct/database.h"
#include "mcx/analysis.h"
#include "mcx/ast.h"
#include "mcx/color_flow.h"
#include "query/ops.h"
#include "query/planner.h"
#include "query/table.h"

namespace mct {
class WalWriter;
}

namespace mct::mcx {

/// One item of an XQuery result sequence: a node or an atomic value.
struct Item {
  bool is_node = false;
  NodeId node = kInvalidNodeId;
  std::string atomic;

  static Item OfNode(NodeId n) {
    Item i;
    i.is_node = true;
    i.node = n;
    return i;
  }
  static Item OfAtomic(std::string v) {
    Item i;
    i.atomic = std::move(v);
    return i;
  }
};

struct QueryResult {
  std::vector<Item> items;
  /// For update statements: number of nodes inserted/deleted/replaced.
  uint64_t updated_count = 0;
};

/// Static-analysis gate applied by Evaluator::Run before execution.
enum class AnalyzeMode {
  kOff,     // no analysis
  kWarn,    // analyze, report via EvalOptions::check, never block
  kStrict,  // additionally reject statements with errors (StaticError)
};

struct EvalOptions {
  /// Color used by steps without an explicit {color} — the single color of
  /// a shallow/deep database, or any default for MCT dialect queries (which
  /// normally specify every color).
  ColorId default_color = 0;
  /// Schema-aware static analysis (analysis.h) between parse and
  /// evaluation.
  AnalyzeMode analyze = AnalyzeMode::kOff;
  /// Schema the analyzer checks against. Null projects one from the
  /// database's type counts on first use and keeps it until a statement of
  /// this Evaluator changes the database (an update or createColor).
  const serialize::MctSchema* schema = nullptr;
  /// When set, each analyzed statement's report (the EXPLAIN CHECK payload)
  /// is stored here, including when strict mode rejects the statement.
  AnalysisReport* check = nullptr;
  query::ExecStats* stats = nullptr;
  /// When set, the evaluator records a structured per-operator trace tree
  /// (rows, morsels, wall time, color transitions) into this sink; render
  /// it with QueryTrace::ToText()/ToJson(). Null disables recording at one
  /// branch per operator.
  query::QueryTrace* trace = nullptr;
  /// Total execution threads: 1 = serial (default, no pool is created),
  /// 0 = hardware concurrency, N = exactly N including the caller.
  int num_threads = 1;
  /// Rows per morsel for parallel operators; inputs at or below this size
  /// run serially regardless of num_threads.
  size_t morsel_size = 1024;
  /// When set, every successfully applied update statement is appended to
  /// this write-ahead log as a logical redo record (canonical statement
  /// text, replayable by RecoverDatabase) before Run returns.
  WalWriter* wal = nullptr;
  /// Fsync the WAL after each logged statement. Batch loaders set this
  /// false and call WalWriter::Sync() once per batch (group commit); the
  /// statements in the unsynced window are then atomically all-or-prefix
  /// on a crash.
  bool wal_sync_each = true;
  /// Cost-based physical planning (query/planner.h). Each statement is
  /// compiled to a logical plan IR, costed against live statistics plus
  /// color-flow cardinality estimates, and the chosen access methods
  /// (scan shortcut / index seek pushdown / navigational descendant /
  /// path-stack spine / predicate reordering / cross-tree elision) are
  /// applied. Every planned execution is result-identical to the fixed
  /// pipeline: each alternative re-validates its preconditions at runtime
  /// and falls back to the baseline operator otherwise.
  bool planner = false;
  /// Normalized-statement plan cache consulted by Run(text) when `planner`
  /// is set: exact-text hits skip parse + plan, literal-normalized hits
  /// skip planning. Share one cache across evaluators over the same
  /// database; it is invalidated automatically after any applied update.
  query::PlanCache* plan_cache = nullptr;
  /// Epoch stamp for plan-cache entries (MVCC snapshot sessions). 0 = the
  /// embedded single-version mode: entries are unstamped and any applied
  /// update blanket-invalidates the cache. Non-zero = the session's pinned
  /// epoch: entries are stamped with it for recency-based pruning and
  /// updates do NOT invalidate — sharing plans across epochs is sound
  /// because plans are result-identical by construction, so commit
  /// publication needs no cache barrier.
  uint64_t cache_epoch = 0;
  /// Resource governor inputs (common/governor.h, DESIGN.md §15). When any
  /// is set the Evaluator constructs a per-statement ResourceGovernor and
  /// carries it on ExecContext: every physical operator and evaluator loop
  /// checks it at morsel/batch boundaries, and large materializations are
  /// charged to the budget. All unset (the default) costs one null check
  /// per operator — the QueryTrace discipline.
  ///
  /// Cross-thread cancellation flag; may be raised at any time by another
  /// thread (e.g. serve::Session::Cancel). Checked cooperatively; a trip
  /// surfaces as Status::Cancelled with no side effects for updates.
  CancelToken* cancel_token = nullptr;
  /// Monotonic wall-clock deadline; execution past it fails with
  /// Status::DeadlineExceeded within roughly one morsel of work.
  std::optional<std::chrono::steady_clock::time_point> deadline = std::nullopt;
  /// Byte budget for this statement's materializations (columnar emit
  /// buffers, join scratch); refusal fails with Status::ResourceExhausted.
  /// Chain the budget to a process-wide parent to cap total pressure.
  MemoryBudget* memory_budget = nullptr;
  /// Session color visibility mask (secure color views, DESIGN.md §16).
  /// Inactive (the default) costs nothing. Active masks are enforced at
  /// three layers: the MCX2xx visibility analysis runs on every statement
  /// (even with analyze == kOff), the planner prunes masked steps, and the
  /// evaluator empties every step, navigation, serialization and update
  /// that would touch a read-invisible color.
  ColorMask mask = {};
  /// Gate for MCX2xx findings when `mask` is active: kStrict (default)
  /// rejects violating statements with Status::PermissionDenied before any
  /// side effect; kWarn (or kOff) admits them and relies on the evaluator
  /// layer to filter — results then silently exclude invisible nodes.
  AnalyzeMode mask_enforcement = AnalyzeMode::kStrict;
};

class Evaluator {
 public:
  Evaluator(MctDatabase* db, EvalOptions opts)
      : db_(db),
        opts_(opts),
        pool_(opts.num_threads != 1
                  ? std::make_unique<ThreadPool>(opts.num_threads)
                  : nullptr),
        exec_(opts.stats, pool_.get(), opts.morsel_size, opts.trace) {
    if (opts_.cancel_token != nullptr || opts_.deadline.has_value() ||
        opts_.memory_budget != nullptr) {
      governor_ = std::make_unique<ResourceGovernor>(
          opts_.cancel_token, opts_.deadline, opts_.memory_budget);
      exec_.governor = governor_.get();
    }
    if (opts_.mask.active) exec_.mask = &opts_.mask;
  }

  /// Runs a query or update.
  Result<QueryResult> Run(const ParsedQuery& q);

  /// Convenience: parse + run. With EvalOptions::planner and a plan_cache,
  /// repeated statement texts skip parse + plan entirely.
  Result<QueryResult> Run(std::string_view text);

  /// What PlanCache stores per exact statement text: the parsed form and
  /// the chosen plan, reusable as long as the database is not updated.
  struct CachedStatement {
    ParsedQuery query;
    query::StatementPlan plan;
  };

  /// Plans `q` against live database statistics and color-flow estimates.
  /// Pure (does not execute); returns an empty plan for statements with no
  /// FLWOR bindings.
  query::StatementPlan PlanFor(const ParsedQuery& q);

  /// Serializes result items to XML text; node items are rendered with
  /// their subtree in `color`.
  std::string ToXml(const QueryResult& r, ColorId color);

 private:
  // Column metadata alongside query::Table.
  struct ColumnInfo {
    ColorId color = 0;    // color the node was reached in
    bool atomic = false;  // column carries values, not node identity
                          // (distinct-values bindings, attribute steps)
    std::string attr;     // when set, the value reads through this attribute
                          // of the stored node; else through its content
  };
  struct Bindings {
    query::Table table;
    std::vector<ColumnInfo> cols;
  };
  // Outer variable environment for correlated nested FLWORs.
  using Env = std::unordered_map<std::string, Item>;

  Result<ColorId> ResolveColor(const std::string& name) const;

  /// Runs static analysis per opts_.analyze; returns StaticError when
  /// strict mode rejects the statement.
  Status MaybeAnalyze(const ParsedQuery& q);

  // FLWOR machinery. `bplan` (when non-null) carries the planner's chosen
  // access methods for this binding's steps; every application re-validates
  // its preconditions and falls back to the baseline pipeline, so a stale
  // or mismatched plan can change performance but never results.
  Result<Bindings> EvalFLWORBindings(const std::vector<Binding>& bindings,
                                     const Expr* where, const Env& env);
  Result<Bindings> EvalSteps(Bindings in, int ctx_col,
                             const std::vector<PathStep>& steps,
                             const std::string& out_var, const Env& env,
                             const query::BindingPlan* bplan = nullptr);
  /// Whole-binding descendant spine via PathStackJoin, with the baseline
  /// row order restored by sorting on the reversed start-label tuple.
  /// Returns nullopt when the runtime shape check fails (caller runs the
  /// step loop as usual).
  Result<std::optional<Bindings>> EvalSpine(const Bindings& in, int ctx_col,
                                            const std::vector<PathStep>& steps,
                                            const std::string& out_var);
  /// Builds the candidate node set for an index-seek pushdown by probing
  /// the content/attribute index with predicate `seek_pred` of `step`.
  /// nullopt when the predicate no longer matches a probe-eligible shape.
  std::optional<std::vector<NodeId>> SeekCandidates(const PathStep& step,
                                                    int seek_pred,
                                                    ColorId step_color);
  Result<Bindings> JoinIn(Bindings left, Bindings right, const Expr* conjunct,
                          const Env& env);
  Status ApplyResidual(Bindings* b, const Expr& conjunct, const Env& env);
  /// The atomized values of one morsel of a comparison operand's slots, one
  /// slot per distinct node of its column (defined in evaluator.cc).
  struct OperandValues;
  /// Answers comparison conjunct `e` from operand columns (DESIGN.md §13)
  /// when each operand is variable-free or a pure expression over one bound
  /// column: the operand is evaluated once per distinct node of its column,
  /// then every row compares the stored values. Sets (*keep)[row] and
  /// returns the number of operand evaluations; nullopt when `e` does not
  /// qualify, and the caller runs the per-row loop.
  Result<std::optional<size_t>> CompareOperandColumns(const Bindings& b,
                                                      const Expr& e,
                                                      const Env& env,
                                                      std::vector<char>* keep);
  /// Evaluates operand `exprs[sides[s]]` at row `rows[s]` of `b` for every
  /// slot s, one part of `parts` per morsel of 2^`shift` slots.
  Status EvalOperandSlots(const Bindings& b, const Env& env,
                          const Expr* const exprs[2],
                          const std::vector<uint32_t>& rows,
                          const std::vector<uint8_t>& sides, int* shift,
                          std::vector<OperandValues>* parts);

  // Scalar/per-row evaluation context: the current binding row (if any),
  // the outer variable environment, and a context node for relative paths.
  struct EvalCtx {
    const Bindings* b = nullptr;
    /// Logical row index into b->table (meaningful only when b != nullptr).
    /// An index, not a materialized row vector: the columnar table resolves
    /// cells through At(), so per-row evaluation never copies a row.
    size_t row = 0;
    const Env* env = nullptr;
    NodeId ctx_node = kInvalidNodeId;
    ColorId ctx_color = 0;
  };

  /// Evaluates any expression to an item sequence (constructors included).
  Result<std::vector<Item>> EvalExpr(const EvalCtx& c, const Expr& e);
  /// Effective boolean value (existential comparison semantics).
  Result<bool> EvalBool(const EvalCtx& c, const Expr& e);
  Result<std::vector<Item>> EvalRelPath(NodeId ctx, ColorId default_color,
                                        const PathExpr& p, const EvalCtx& c);
  /// Reads the value of a bound variable column for a logical row.
  Item ColumnItem(const Bindings& b, size_t row, int col) const;
  std::string Atomize(const Item& item) const;
  /// Atomize without a copy where the text is resident: an atomic item's
  /// value or a node's own content is viewed in place; any other node's
  /// string value is stored into `*scratch` and viewed there.
  std::string_view AtomText(const Item& item, std::string* scratch) const;

  Result<std::vector<Item>> EvalFLWOR(const Expr& flwor, const Env& env);

  /// Runs fn(i) for every i in [0, n). Fans out across the worker pool when
  /// one exists, `parallel_ok` holds (the caller proved fn only performs
  /// const reads — see IsPureExpr), and n exceeds one morsel; otherwise runs
  /// serially. fn(i) must write only to its own index's output slot. On
  /// error, the lowest-indexed failure is returned, matching the serial run.
  /// `morsel_override` (when nonzero) replaces opts_.morsel_size — used by
  /// loops whose per-index cost is itself O(rows), like the quadratic
  /// nested-loop compare, where a row-count morsel would be far too coarse.
  Status ForRows(size_t n, bool parallel_ok,
                 const std::function<Status(size_t)>& fn,
                 size_t morsel_override = 0);
  /// createCopy: a fresh free copy of `n` and its subtree (pending
  /// children of a constructed node, else its subtree in its first color),
  /// ids allocated in pre-order; the copied children become pending.
  Result<NodeId> DeepCopy(NodeId n);
  /// Attaches `node` under `parent` in `color`, then its pending children
  /// under it, in pre-order.
  Status AttachPending(NodeId node, ColorId color, NodeId parent);

  // Updates.
  Result<QueryResult> RunUpdate(const ParsedQuery& q);

  /// Shared execution body of Run(ParsedQuery): analysis, plan
  /// announcement, dispatch, trace stamping, update-side plan-cache
  /// invalidation. `plan` may be null (baseline pipeline).
  Result<QueryResult> RunPlanned(const ParsedQuery& q,
                                 const query::StatementPlan* plan);
  /// Mirrors the evaluator's per-binding step pipeline into the planner IR
  /// (colors resolved, cross-tree joins, probe-eligible predicates,
  /// color-flow cardinalities).
  std::vector<query::BindingDesc> BuildBindingDescs(
      const std::vector<Binding>& bindings);
  /// opts_.schema, or the schema projected from db_ on first use.
  const serialize::MctSchema* schema();
  /// Color-flow graph over schema(), cached alongside it.
  const ColorFlowGraph* flow_graph();
  /// Drops the projected schema and its flow graph once a statement has
  /// changed the database: the next use re-projects.
  void ForgetSchema() {
    inferred_schema_.reset();
    flow_graph_.reset();
  }

  /// Appends the subtree of `n` in `color` as XML text.
  void AppendXml(NodeId n, ColorId color, std::string* out);

  MctDatabase* db_;
  EvalOptions opts_;
  // Schema projected from db_ on first use (opts_.schema null); dropped by
  // ForgetSchema.
  std::unique_ptr<serialize::MctSchema> inferred_schema_;
  // Color-flow graph for planner cardinality estimates; built lazily over
  // schema().
  std::unique_ptr<ColorFlowGraph> flow_graph_;
  // Plan for the statement currently entering execution; consumed (cleared)
  // by the first EvalFLWORBindings call so nested per-row FLWORs never see
  // the outer statement's plan.
  const query::StatementPlan* active_plan_ = nullptr;
  // Worker pool for morsel-driven execution (null when num_threads == 1);
  // exec_ is the ExecContext handed to every physical operator.
  std::unique_ptr<ThreadPool> pool_;
  // Per-statement resource governor (null when no cancel token, deadline
  // or memory budget was supplied); exec_.governor points at it.
  std::unique_ptr<ResourceGovernor> governor_;
  query::ExecContext exec_;
  // Pending constructed edges: parent -> ordered children, waiting for
  // createColor.
  std::unordered_map<NodeId, std::vector<NodeId>> pending_children_;
};

/// Specification-complexity metrics of Figures 11 and 12.
struct QueryComplexity {
  int num_path_exprs = 0;
  int num_variable_bindings = 0;
};
QueryComplexity AnalyzeComplexity(const ParsedQuery& q);

}  // namespace mct::mcx

#endif  // COLORFUL_XML_MCX_EVALUATOR_H_
