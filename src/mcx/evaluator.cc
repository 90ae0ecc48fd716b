#include "mcx/evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <set>
#include <unordered_set>

#include "common/metrics.h"
#include "common/strings.h"
#include "mcx/parser.h"
#include "mcx/printer.h"
#include "serialize/schema.h"
#include "storage/wal.h"
#include "query/trace.h"
#include "query/twig.h"
#include "xml/escape.h"

namespace mct::mcx {

namespace {

using query::ExecStats;
using query::Table;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Opens a trace group node on construction and closes it (stamping wall
// time) on destruction, so error returns unwind the trace stack correctly.
class TraceGroup {
 public:
  TraceGroup(query::QueryTrace* t, std::string op, std::string detail)
      : t_(t) {
    if (t_ == nullptr) return;
    node_ = t_->Open(std::move(op), std::move(detail));
    start_ = std::chrono::steady_clock::now();
  }
  ~TraceGroup() {
    if (t_ == nullptr) return;
    node_->seconds = SecondsSince(start_);
    t_->Close(node_);
  }
  TraceGroup(const TraceGroup&) = delete;
  TraceGroup& operator=(const TraceGroup&) = delete;

  bool enabled() const { return node_ != nullptr; }
  query::OpTrace* node() { return node_; }

 private:
  query::QueryTrace* t_ = nullptr;
  query::OpTrace* node_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

// Suspends trace recording for a scope. Nested per-row FLWORs would bloat
// the trace by the outer cardinality, so their subplans are discarded.
class TracePause {
 public:
  explicit TracePause(query::QueryTrace* t) : t_(t) {
    if (t_ != nullptr) t_->Pause();
  }
  ~TracePause() {
    if (t_ != nullptr) t_->Resume();
  }
  TracePause(const TracePause&) = delete;
  TracePause& operator=(const TracePause&) = delete;

 private:
  query::QueryTrace* t_;
};

// True for axes whose operator filters targets by membership in the step's
// color — making a preceding cross-tree join on the context column
// redundant (the planner's elision). self/attribute/descendant-or-self pass
// context nodes through untested, so elision there would change results.
bool AxisSubsumesCrossTree(Axis a) {
  return a == Axis::kChild || a == Axis::kDescendant || a == Axis::kParent ||
         a == Axis::kAncestor;
}

// Flattens an AND tree into conjuncts.
void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kAnd) {
    FlattenConjuncts(e->children[0].get(), out);
    FlattenConjuncts(e->children[1].get(), out);
  } else {
    out->push_back(e);
  }
}

void CollectVars(const Expr& e, std::vector<std::string>* out) {
  switch (e.kind) {
    case Expr::Kind::kVarRef:
      out->push_back(e.str);
      break;
    case Expr::Kind::kPath:
      if (!e.path.start_var.empty()) out->push_back(e.path.start_var);
      for (const auto& step : e.path.steps) {
        for (const auto& pred : step.predicates) CollectVars(*pred, out);
      }
      break;
    default:
      for (const auto& c : e.children) CollectVars(*c, out);
      if (e.where) CollectVars(*e.where, out);
      if (e.ret) CollectVars(*e.ret, out);
      break;
  }
}

// The single variable a (sub)expression depends on, or "" when none or
// several — used to classify where-conjuncts as selections vs joins.
std::string SoleVar(const Expr& e) {
  std::vector<std::string> vars;
  CollectVars(e, &vars);
  if (vars.empty()) return "";
  for (const auto& v : vars) {
    if (v != vars[0]) return "";
  }
  return vars[0];
}

bool NumericCompare(CmpOp op, double a, double b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

bool StringCompareOp(CmpOp op, std::string_view a, std::string_view b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

// An atomized comparison operand, number-parsed once: its text and, when
// the whole text parses as a number, that number.
struct Atom {
  std::string_view text;
  std::optional<double> num;
};

Atom ParseAtom(std::string_view text) { return Atom{text, ParseDouble(text)}; }

// XQuery-style general comparison on atomized values: numeric when both
// sides parse as numbers, else by string. Every value comparison of the
// evaluator (where clauses, step predicates, joins) ends here.
bool CompareAtoms(CmpOp op, const Atom& a, const Atom& b) {
  if (a.num.has_value() && b.num.has_value()) {
    return NumericCompare(op, *a.num, *b.num);
  }
  return StringCompareOp(op, a.text, b.text);
}

bool CompareValues(CmpOp op, std::string_view a, std::string_view b) {
  return CompareAtoms(op, ParseAtom(a), ParseAtom(b));
}

// One pair of a general comparison over items: node identity for = and !=
// between two nodes (the `[. = $m]` correlation of Figure 3's Q3), else
// CompareAtoms on the atomized values, which `atom_l` / `atom_r` produce
// only when asked. kInvalidNodeId marks an atomic item.
template <typename AtomL, typename AtomR>
bool ComparePair(CmpOp op, NodeId l, NodeId r, AtomL&& atom_l,
                 AtomR&& atom_r) {
  if (l != kInvalidNodeId && r != kInvalidNodeId &&
      (op == CmpOp::kEq || op == CmpOp::kNe)) {
    return (l == r) == (op == CmpOp::kEq);
  }
  return CompareAtoms(op, atom_l(), atom_r());
}

std::string FormatNumber(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return StrFormat("%g", v);
}

// True when evaluating `e` cannot mutate evaluator or database state: no
// constructors (they create store nodes), no createColor/createCopy, no
// nested FLWOR (it runs physical operators, which count stats), and no
// distinct-values (it counts dup_elims). Pure expressions touch only const
// read paths of the tree/store images, so per-row evaluation may fan out
// across workers and still produce serial-identical results and stats.
bool IsPureExpr(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kElement:
    case Expr::Kind::kCreateColor:
    case Expr::Kind::kCreateCopy:
    case Expr::Kind::kFLWOR:
    case Expr::Kind::kDistinctValues:
      return false;
    case Expr::Kind::kPath:
      for (const auto& step : e.path.steps) {
        for (const auto& pred : step.predicates) {
          if (!IsPureExpr(*pred)) return false;
        }
      }
      return true;
    default:
      for (const auto& c : e.children) {
        if (!IsPureExpr(*c)) return false;
      }
      return true;
  }
}

}  // namespace

Result<ColorId> Evaluator::ResolveColor(const std::string& name) const {
  if (name.empty()) return opts_.default_color;
  ColorId c = db_->LookupColor(name);
  if (c == kInvalidColorId) {
    return Status::InvalidArgument("unknown color '" + name + "'");
  }
  return c;
}

namespace {

// Extends a plan-cache fingerprint with the database's shard count (mirror
// of the mask-fingerprint slicing): plans are costed under a shard
// fan-out, so a cached spine must never cross differently-sharded
// databases. shards <= 1 leaves the fingerprint untouched — the unsharded
// slice keys stay exactly as before. splitmix64 finalizer; | 1 keeps the
// sliced key nonzero even when no mask is active.
uint64_t ShardSlicedFingerprint(uint64_t fp, int shards) {
  if (shards <= 1) return fp;
  uint64_t x = fp + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(shards);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x | 1;
}

}  // namespace

Result<QueryResult> Evaluator::Run(std::string_view text) {
  if (opts_.planner && opts_.plan_cache != nullptr) {
    // Masked plans are pruned against the session's visibility mask, so the
    // cache is sliced by mask fingerprint: tenants with different masks
    // never exchange entries (and the common unmasked case shares slice 0).
    // The shard count extends the slice key the same way.
    const uint64_t fp =
        ShardSlicedFingerprint(opts_.mask.Fingerprint(), db_->shard_count());
    std::string key(text);
    if (std::shared_ptr<const void> hit =
            opts_.plan_cache->LookupExact(key, opts_.cache_epoch, fp)) {
      auto cached = std::static_pointer_cast<const CachedStatement>(hit);
      // `cached` keeps the payload alive even if the cache is invalidated
      // mid-statement by a concurrent session.
      return RunPlanned(cached->query, &cached->plan);
    }
    MCT_ASSIGN_OR_RETURN(ParsedQuery q, Parse(text));
    auto cached = std::make_shared<CachedStatement>();
    const std::string norm = query::NormalizeStatement(text);
    if (!opts_.plan_cache->LookupSkeleton(norm, &cached->plan,
                                          opts_.cache_epoch, fp)) {
      cached->plan = PlanFor(q);
      opts_.plan_cache->InsertSkeleton(norm, cached->plan, opts_.cache_epoch,
                                       fp);
    }
    cached->query = std::move(q);
    opts_.plan_cache->InsertExact(key, cached, opts_.cache_epoch, fp);
    return RunPlanned(cached->query, &cached->plan);
  }
  MCT_ASSIGN_OR_RETURN(ParsedQuery q, Parse(text));
  return Run(q);
}

Status Evaluator::MaybeAnalyze(const ParsedQuery& q) {
  // An active mask forces the visibility analysis even when schema checking
  // is off: kStrict enforcement needs the MCX2xx findings before any side
  // effect, and even kWarn sessions want the diagnostics in EXPLAIN CHECK.
  const bool mask_on = opts_.mask.active;
  if (opts_.analyze == AnalyzeMode::kOff && !mask_on) return Status::OK();
  static Counter* runs =
      MetricsRegistry::Global().counter("mct.analysis.runs");
  static Counter* errors =
      MetricsRegistry::Global().counter("mct.analysis.errors");
  static Counter* warnings =
      MetricsRegistry::Global().counter("mct.analysis.warnings");
  static Counter* rejected =
      MetricsRegistry::Global().counter("mct.analysis.rejected");
  static Counter* vis_runs =
      MetricsRegistry::Global().counter("mct.analysis.visibility.runs");
  static Counter* vis_violations =
      MetricsRegistry::Global().counter("mct.analysis.visibility.violations");
  static Counter* vis_rejected =
      MetricsRegistry::Global().counter("mct.analysis.visibility.rejected");
  runs->Inc();

  AnalyzeOptions ao;
  ao.schema = schema();
  ao.default_color = db_->ColorName(opts_.default_color);
  if (mask_on) {
    vis_runs->Inc();
    ao.mask.active = true;
    // Bits beyond the palette name no color in this database; dropping them
    // is harmless (they could never be read anyway).
    for (ColorId c : opts_.mask.read.ToVector()) {
      if (c < db_->num_colors()) ao.mask.read.push_back(db_->ColorName(c));
    }
    for (ColorId c : opts_.mask.write.ToVector()) {
      if (c < db_->num_colors()) ao.mask.write.push_back(db_->ColorName(c));
    }
  }
  AnalysisReport report = Analyze(q, ao);
  errors->Inc(report.num_errors());
  warnings->Inc(report.num_warnings());

  // MCX2xx (visibility) errors reject under mask_enforcement; MCX0xx
  // (schema) errors reject under analyze == kStrict. The two gates are
  // independent: a masked session with analyze == kOff still refuses
  // permission violations, and a strict-analysis session without a mask
  // behaves exactly as before.
  const bool schema_strict = opts_.analyze == AnalyzeMode::kStrict;
  const bool mask_strict =
      mask_on && opts_.mask_enforcement == AnalyzeMode::kStrict;
  auto is_visibility = [](const Diagnostic& d) {
    return d.code.size() == 6 && d.code.compare(0, 4, "MCX2") == 0;
  };
  std::string first_schema_error;
  std::string first_vis_error;
  size_t num_schema_errors = 0;
  size_t num_vis_errors = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (is_visibility(d)) {
      if (num_vis_errors++ == 0) first_vis_error = d.ToString();
    } else {
      if (num_schema_errors++ == 0) first_schema_error = d.ToString();
    }
  }
  if (num_vis_errors > 0) vis_violations->Inc(num_vis_errors);
  if (opts_.check != nullptr) *opts_.check = std::move(report);
  if (mask_strict && num_vis_errors > 0) {
    rejected->Inc();
    vis_rejected->Inc();
    std::string msg = first_vis_error;
    if (num_vis_errors > 1) {
      msg += StrFormat(" (and %zu more error(s))", num_vis_errors - 1);
    }
    return Status::PermissionDenied(std::move(msg));
  }
  if (schema_strict && num_schema_errors > 0) {
    rejected->Inc();
    std::string msg = first_schema_error;
    if (num_schema_errors > 1) {
      msg += StrFormat(" (and %zu more error(s))", num_schema_errors - 1);
    }
    return Status::StaticError(std::move(msg));
  }
  return Status::OK();
}

Status Evaluator::ForRows(size_t n, bool parallel_ok,
                          const std::function<Status(size_t)>& fn,
                          size_t morsel_override) {
  const size_t morsel =
      morsel_override != 0 ? morsel_override : opts_.morsel_size;
  ResourceGovernor* gov = exec_.governor;
  if (pool_ == nullptr || !parallel_ok || opts_.morsel_size == 0 ||
      n <= morsel) {
    if (pool_ != nullptr && opts_.morsel_size != 0 && !parallel_ok &&
        n > morsel) {
      // A pool exists and the input is large enough to fan out, but the
      // purity gate forced this loop serial.
      static Counter* fallbacks =
          MetricsRegistry::Global().counter("mct.eval.serial_fallbacks");
      fallbacks->Inc();
    }
    // Governed runs check at morsel granularity even on the serial path so
    // cancellation latency stays bounded by one morsel of row work.
    const size_t check_every = gov != nullptr && morsel != 0 ? morsel : n + 1;
    for (size_t i = 0; i < n; ++i) {
      if (gov != nullptr && i != 0 && i % check_every == 0) {
        MCT_RETURN_IF_ERROR(gov->Check());
      }
      MCT_RETURN_IF_ERROR(fn(i));
    }
    return Status::OK();
  }
  const size_t num_morsels = (n + morsel - 1) / morsel;
  std::vector<Status> errors(num_morsels);
  ParallelFor(pool_.get(), num_morsels, [&](size_t m) {
    if (gov != nullptr) {
      Status s = gov->Check();
      if (!s.ok()) {
        errors[m] = std::move(s);
        return;
      }
    }
    const size_t begin = m * morsel;
    const size_t end = std::min(n, begin + morsel);
    for (size_t i = begin; i < end; ++i) {
      Status s = fn(i);
      if (!s.ok()) {
        errors[m] = std::move(s);
        return;  // abandon the rest of this morsel, as the serial run would
      }
    }
  });
  // First error in morsel order == lowest-indexed error == the error the
  // serial run would have reported.
  for (Status& s : errors) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

Result<QueryResult> Evaluator::Run(const ParsedQuery& q) {
  if (opts_.planner) {
    const query::StatementPlan plan = PlanFor(q);
    return RunPlanned(q, &plan);
  }
  return RunPlanned(q, nullptr);
}

Result<QueryResult> Evaluator::RunPlanned(const ParsedQuery& q,
                                          const query::StatementPlan* plan) {
  // Fail fast when the statement arrives already cancelled or past its
  // deadline (e.g. it sat in a commit queue): no work, no side effects.
  if (exec_.governor != nullptr) {
    MCT_RETURN_IF_ERROR(exec_.governor->Check());
  }
  MCT_RETURN_IF_ERROR(MaybeAnalyze(q));
  if (plan != nullptr && exec_.trace != nullptr) {
    exec_.trace->Leaf("PLAN", StrFormat("cost %.1f baseline -> %.1f chosen",
                                        plan->cost_baseline,
                                        plan->cost_chosen));
  }
  // Always (re)assign: a stale pointer from a prior statement must never
  // leak into this one. The first EvalFLWORBindings call consumes it.
  active_plan_ = plan;
  if (pool_ != nullptr) {
    // Interval relabeling is lazy-on-access; workers read labels through the
    // const accessors, which never relabel. Force every color's labels clean
    // before any operator fans out.
    for (size_t c = 0; c < db_->num_colors(); ++c) {
      db_->tree(static_cast<ColorId>(c))->EnsureLabels();
    }
  }
  if (q.is_update) {
    static Counter* updates =
        MetricsRegistry::Global().counter("mct.eval.updates");
    updates->Inc();
    Result<QueryResult> r = RunUpdate(q);
    active_plan_ = nullptr;
    // Even a failed update may have applied some of its actions.
    ForgetSchema();
    if (r.ok() && r->updated_count > 0 && opts_.plan_cache != nullptr &&
        opts_.cache_epoch == 0) {
      // Statistics (and any cached candidate counts) are stale now; cached
      // plans stay *correct* (runtime guards re-validate), but re-planning
      // against fresh stats is the better bet. Epoch-stamped sessions skip
      // this: publishing the commit bumps the epoch, which retires old
      // entries on their next lookup with no invalidation window.
      opts_.plan_cache->Invalidate();
    }
    return r;
  }
  static Counter* queries =
      MetricsRegistry::Global().counter("mct.eval.queries");
  queries->Inc();
  const auto t0 = std::chrono::steady_clock::now();
  QueryResult out;
  Env env;
  if (q.root->kind == Expr::Kind::kFLWOR) {
    MCT_ASSIGN_OR_RETURN(out.items, EvalFLWOR(*q.root, env));
  } else {
    EvalCtx c;
    c.env = &env;
    c.ctx_node = db_->document();
    c.ctx_color = opts_.default_color;
    MCT_ASSIGN_OR_RETURN(out.items, EvalExpr(c, *q.root));
  }
  if (exec_.trace != nullptr) {
    query::OpTrace* root = exec_.trace->mutable_root();
    root->rows_out = out.items.size();
    root->seconds = SecondsSince(t0);
  }
  // Operators that return bare Tables cannot surface a governor trip
  // themselves — they stop emitting and the sticky status is checked here,
  // before any (truncated) result escapes to the caller.
  if (exec_.governor != nullptr && exec_.governor->tripped()) {
    return exec_.governor->status();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cost-based planning (query/planner.h)
// ---------------------------------------------------------------------------

namespace {

// Live statistics the cost model reads: per-(color, tag) element counts off
// the tag index and whole-color sizes.
class DbStatsProvider : public query::StatsProvider {
 public:
  explicit DbStatsProvider(const MctDatabase* db) : db_(db) {}
  double TagCount(ColorId color, const std::string& tag) const override {
    return static_cast<double>(db_->TagCount(color, tag));
  }
  double ColorSize(ColorId color) const override {
    const ColoredTree* t = db_->tree(color);
    return t != nullptr ? static_cast<double>(t->size()) : 0.0;
  }
  int ShardCount() const override { return db_->shard_count(); }

 private:
  const MctDatabase* db_;
};

}  // namespace

const serialize::MctSchema* Evaluator::schema() {
  if (opts_.schema != nullptr) return opts_.schema;
  if (inferred_schema_ == nullptr) {
    inferred_schema_ =
        std::make_unique<serialize::MctSchema>(serialize::InferSchema(*db_));
  }
  return inferred_schema_.get();
}

const ColorFlowGraph* Evaluator::flow_graph() {
  if (flow_graph_ == nullptr) {
    flow_graph_ = std::make_unique<ColorFlowGraph>(schema());
  }
  return flow_graph_.get();
}

query::StatementPlan Evaluator::PlanFor(const ParsedQuery& q) {
  static Counter* planned =
      MetricsRegistry::Global().counter("mct.planner.statements");
  planned->Inc();
  const std::vector<Binding>* bindings = nullptr;
  if (q.is_update) {
    bindings = &q.bindings;
  } else if (q.root != nullptr && q.root->kind == Expr::Kind::kFLWOR) {
    bindings = &q.root->bindings;
  }
  if (bindings == nullptr || bindings->empty()) return query::StatementPlan{};
  DbStatsProvider stats(db_);
  return query::PlanStatement(BuildBindingDescs(*bindings), stats,
                              exec_.governor);
}

std::vector<query::BindingDesc> Evaluator::BuildBindingDescs(
    const std::vector<Binding>& bindings) {
  const ColorFlowGraph* fg = flow_graph();
  const std::set<std::string> all_colors = [&] {
    std::set<std::string> s;
    for (size_t c = 0; c < db_->num_colors(); ++c) {
      s.insert(db_->ColorName(static_cast<ColorId>(c)));
    }
    return s;
  }();

  std::vector<query::BindingDesc> out;
  out.reserve(bindings.size());
  // Final color / flow set of each bound variable, mirroring the pipeline's
  // column metadata. Absent entry = binding unplannable (plan baseline).
  std::unordered_map<std::string, ColorId> var_color;
  std::unordered_map<std::string, FlowSet> var_flow;
  std::unordered_set<std::string> bound;
  double acc_rows = 1;

  for (const Binding& binding : bindings) {
    query::BindingDesc d;
    const Expr* pe = binding.expr.get();
    if (pe != nullptr && pe->kind == Expr::Kind::kDistinctValues &&
        !pe->children.empty()) {
      pe = pe->children[0].get();
    }
    if (binding.is_let || pe == nullptr || pe->kind != Expr::Kind::kPath) {
      // Index-aligned placeholder: the binding runs the baseline pipeline.
      out.push_back(std::move(d));
      bound.insert(binding.var);
      var_color.erase(binding.var);
      continue;
    }
    const PathExpr& path = pe->path;

    ColorId cur_color = opts_.default_color;
    FlowSet flow;
    bool ok = true;
    if (!path.start_var.empty()) {
      auto it = var_color.find(path.start_var);
      if (it == var_color.end()) {
        ok = false;  // env var or unplannable source: no color known
      } else {
        cur_color = it->second;
        auto fit = var_flow.find(path.start_var);
        if (fit != var_flow.end()) flow = fit->second;
      }
      d.doc_context = false;
      d.single_row = false;
      d.in_rows = acc_rows;
    } else {
      // Mirrors the correlated-path detection in EvalFLWORBindings: a
      // predicate referencing an already-bound variable seeds the
      // accumulated table instead of a fresh one-row document base.
      bool correlated = false;
      if (!bound.empty()) {
        std::vector<std::string> pred_vars;
        for (const PathStep& step : path.steps) {
          for (const auto& pred : step.predicates) {
            CollectVars(*pred, &pred_vars);
          }
        }
        for (const std::string& v : pred_vars) {
          if (bound.contains(v)) {
            correlated = true;
            break;
          }
        }
      }
      d.doc_context = true;
      d.single_row = !correlated;
      d.in_rows = correlated ? acc_rows : 1;
      flow = FlowSet::Document(all_colors);
    }

    for (const PathStep& step : path.steps) {
      if (!ok) break;
      ColorId c = opts_.default_color;
      if (!step.color.empty()) {
        c = db_->LookupColor(step.color);
        if (c == kInvalidColorId) {
          ok = false;  // the pipeline will raise the error; don't plan
          break;
        }
      }
      query::StepDesc s;
      s.axis = static_cast<query::PlanAxis>(step.axis);
      s.color = c;
      s.tag = step.tag;
      s.masked = !opts_.mask.CanRead(c);
      const bool first = d.steps.empty();
      s.color_change = c != cur_color && !(first && d.doc_context);

      // Color-flow cardinality: recolor (the lattice's color transition)
      // then the axis transfer.
      if (!flow.empty()) {
        flow = fg->Recolor(flow, db_->ColorName(c));
        switch (step.axis) {
          case Axis::kChild:
            flow = fg->Child(flow, step.tag);
            break;
          case Axis::kDescendant:
            flow = fg->Descendant(flow, step.tag);
            break;
          case Axis::kDescendantOrSelf:
            flow = fg->DescendantOrSelf(flow, step.tag);
            break;
          case Axis::kParent:
            flow = fg->Parent(flow, step.tag);
            break;
          case Axis::kAncestor:
            flow = fg->Ancestor(flow, step.tag);
            break;
          case Axis::kSelf:
            flow = fg->Self(flow, step.tag);
            break;
          case Axis::kAttribute:
            break;  // row count carries over; keep the element flow
        }
        if (step.axis != Axis::kAttribute) {
          s.flow_out = flow.TotalEstimate();
        }
      }

      for (const auto& pred : step.predicates) {
        query::PredDesc p;
        if (pred->kind == Expr::Kind::kNumber) {
          p.positional = true;
        } else if (pred->kind == Expr::Kind::kCompare &&
                   pred->cmp == CmpOp::kEq && pred->children.size() == 2 &&
                   pred->children[1]->kind == Expr::Kind::kString &&
                   pred->children[0]->kind == Expr::Kind::kPath) {
          // Mirror of the INDEX PROBE eligibility test in EvalSteps.
          const PathExpr& lp = pred->children[0]->path;
          const std::string& lit = pred->children[1]->str;
          if (lp.start_var.empty() && !lp.from_document &&
              lp.steps.size() == 1 && lp.steps[0].predicates.empty()) {
            const PathStep& ps = lp.steps[0];
            if (ps.axis == Axis::kChild && !ps.tag.empty()) {
              p.seek = query::PredDesc::Seek::kChildContent;
              p.est_matches =
                  static_cast<double>(db_->ContentLookup(ps.tag, lit).size());
            } else if (ps.axis == Axis::kAttribute) {
              p.seek = query::PredDesc::Seek::kAttr;
              p.est_matches =
                  static_cast<double>(db_->AttrLookup(ps.tag, lit).size());
            } else if (ps.axis == Axis::kSelf && ps.tag.empty() &&
                       !step.tag.empty()) {
              p.seek = query::PredDesc::Seek::kSelfContent;
              p.est_matches =
                  static_cast<double>(db_->ContentLookup(step.tag, lit).size());
            }
          }
        }
        s.preds.push_back(p);
      }

      cur_color = c;
      d.steps.push_back(std::move(s));
    }
    if (!ok) d.steps.clear();  // unplannable: baseline every step

    bound.insert(binding.var);
    if (ok && !d.steps.empty()) {
      var_color[binding.var] = cur_color;
      var_flow[binding.var] = flow;
      const query::StepDesc& lastst = d.steps.back();
      double est = lastst.flow_out >= 0
                       ? lastst.flow_out
                       : static_cast<double>(
                             db_->TagCount(lastst.color, lastst.tag));
      for (const auto& p : lastst.preds) {
        est *= p.positional ? 0.2 : 0.5;
        (void)p;
      }
      acc_rows = std::max(1.0, est);
    } else {
      var_color.erase(binding.var);
      var_flow.erase(binding.var);
    }
    out.push_back(std::move(d));
  }
  return out;
}

// ---------------------------------------------------------------------------
// FLWOR evaluation
// ---------------------------------------------------------------------------

Result<std::vector<Item>> Evaluator::EvalFLWOR(const Expr& flwor,
                                               const Env& env) {
  MCT_ASSIGN_OR_RETURN(
      Bindings b, EvalFLWORBindings(flwor.bindings, flwor.where.get(), env));
  EvalCtx base;
  base.b = &b;
  base.env = &env;
  // order by: decorate-sort on the evaluated key. Key evaluation (the
  // expensive part) fans out per row when the key expression is pure, and
  // parses each key once; the sort stays serial and stable.
  if (flwor.order_by != nullptr) {
    const auto sort_t0 = std::chrono::steady_clock::now();
    const size_t n_rows = b.table.num_rows();
    struct SortKey {
      std::string text;
      std::optional<double> num;  // the text's number, unless it is NaN
      uint32_t row = 0;
    };
    std::vector<SortKey> keyed(n_rows);
    MCT_RETURN_IF_ERROR(ForRows(
        n_rows, IsPureExpr(*flwor.order_by), [&](size_t i) {
          EvalCtx c = base;
          c.row = i;
          std::vector<Item> items;
          MCT_ASSIGN_OR_RETURN(items, EvalExpr(c, *flwor.order_by));
          SortKey& k = keyed[i];
          if (!items.empty()) k.text = Atomize(items[0]);
          k.num = ParseDouble(k.text);
          if (k.num.has_value() && std::isnan(*k.num)) k.num.reset();
          k.row = static_cast<uint32_t>(i);
          return Status::OK();
        }));
    // A strict weak order, as std::stable_sort requires: numbers by value
    // before every other key, the other keys by string. (Comparing two keys
    // as numbers when both parse and as strings otherwise is not transitive:
    // 9 < 10 < "1a" < "9".)
    auto less = [](const SortKey& x, const SortKey& y) {
      if (x.num.has_value() != y.num.has_value()) return x.num.has_value();
      if (x.num.has_value()) return *x.num < *y.num;
      return x.text < y.text;
    };
    const bool desc = flwor.order_descending;
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const SortKey& x, const SortKey& y) {
                       return desc ? less(y, x) : less(x, y);
                     });
    std::vector<uint32_t> order;
    order.reserve(n_rows);
    for (const SortKey& k : keyed) order.push_back(k.row);
    // The permutation becomes the selection vector: an O(rows) reorder
    // with zero cell copies.
    b.table.KeepRows(std::move(order));
    if (exec_.trace != nullptr) {
      query::OpTrace* n = exec_.trace->Leaf("ORDER BY");
      n->rows_in = n->rows_out = n_rows;
      n->seconds = SecondsSince(sort_t0);
    }
  }
  // Return clause: evaluate per row into per-row buffers (parallel when the
  // expression is pure), then concatenate in row order.
  const auto ret_t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<Item>> per_row(b.table.num_rows());
  MCT_RETURN_IF_ERROR(
      ForRows(b.table.num_rows(), IsPureExpr(*flwor.ret), [&](size_t i) {
        EvalCtx c = base;
        c.row = i;
        MCT_ASSIGN_OR_RETURN(per_row[i], EvalExpr(c, *flwor.ret));
        return Status::OK();
      }));
  size_t total = 0;
  for (const auto& items : per_row) total += items.size();
  std::vector<Item> out;
  out.reserve(total);
  for (auto& items : per_row) {
    for (auto& item : items) out.push_back(std::move(item));
  }
  if (exec_.trace != nullptr) {
    query::OpTrace* n = exec_.trace->Leaf("RETURN");
    n->rows_in = b.table.num_rows();
    n->rows_out = total;
    n->seconds = SecondsSince(ret_t0);
  }
  return out;
}

Result<Evaluator::Bindings> Evaluator::EvalFLWORBindings(
    const std::vector<Binding>& bindings, const Expr* where, const Env& env) {
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);
  std::vector<bool> used(conjuncts.size(), false);

  // Consume the statement plan (if any). Clearing it here means nested
  // per-row FLWORs — which re-enter this function — run the baseline
  // pipeline instead of misapplying the outer statement's plan.
  const query::StatementPlan* plan = active_plan_;
  active_plan_ = nullptr;
  if (plan != nullptr && plan->bindings.size() != bindings.size()) {
    plan = nullptr;
  }

  Bindings acc;
  for (size_t bi = 0; bi < bindings.size(); ++bi) {
    // Binding boundaries are the FLWOR loop's natural morsel edges: a
    // cancelled/expired statement stops before materializing the next
    // (possibly multiplicative) binding table.
    if (exec_.governor != nullptr) {
      MCT_RETURN_IF_ERROR(exec_.governor->Check());
    }
    const auto& binding = bindings[bi];
    const query::BindingPlan* bplan =
        plan != nullptr ? &plan->bindings[bi] : nullptr;
    const Expr& be = *binding.expr;
    bool distinct = be.kind == Expr::Kind::kDistinctValues;
    const Expr& pe = distinct ? *be.children[0] : be;
    if (distinct && pe.kind != Expr::Kind::kPath) {
      // distinct-values over a general expression (e.g. a nested FLWOR):
      // evaluate it, deduplicate by atomized value, and bind the surviving
      // node items as an atomic column.
      if (acc.table.num_cols() != 0) {
        return Status::NotSupported(
            "distinct-values(non-path) must be the first binding");
      }
      EvalCtx c;
      c.env = &env;
      c.ctx_node = db_->document();
      c.ctx_color = opts_.default_color;
      MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, pe));
      if (opts_.stats != nullptr) ++opts_.stats->dup_elims;
      std::unordered_set<std::string> seen;
      std::vector<NodeId> survivors;
      for (const Item& it : items) {
        if (!it.is_node) {
          return Status::NotSupported(
              "distinct-values over atomic items as a binding");
        }
        if (seen.insert(Atomize(it)).second) survivors.push_back(it.node);
      }
      acc.table = Table::FromNodes(binding.var, std::move(survivors));
      acc.cols = {ColumnInfo{opts_.default_color, true, ""}};
      if (exec_.trace != nullptr) {
        query::OpTrace* n =
            exec_.trace->Leaf("DISTINCT VALUES", binding.var);
        n->rows_in = items.size();
        n->rows_out = acc.table.num_rows();
      }
      continue;
    }
    if (pe.kind != Expr::Kind::kPath) {
      return Status::NotSupported(
          "for/let bindings must be path expressions in this subset");
    }
    const PathExpr& path = pe.path;

    if (!path.start_var.empty()) {
      int col = acc.table.ColumnOf(path.start_var);
      if (col >= 0) {
        if (acc.cols[static_cast<size_t>(col)].atomic) {
          return Status::InvalidArgument(
              "axis step from atomic-valued variable " + path.start_var);
        }
        TraceGroup g(exec_.trace, "FOR", binding.var);
        if (g.enabled() && bplan != nullptr && bplan->est_rows >= 0) {
          g.node()->est_rows = bplan->est_rows;
        }
        MCT_ASSIGN_OR_RETURN(
            acc, EvalSteps(std::move(acc), col, path.steps, binding.var, env,
                           bplan));
      } else if (env.contains(path.start_var)) {
        // Correlated with an *outer* FLWOR variable: seed from the env.
        const Item& outer = env.at(path.start_var);
        if (!outer.is_node) {
          return Status::NotSupported("path from an atomic outer variable");
        }
        Bindings base;
        base.table = Table::FromNodes(path.start_var, {outer.node});
        base.cols = {ColumnInfo{opts_.default_color, false, ""}};
        Bindings tb;
        {
          TraceGroup g(exec_.trace, "FOR", binding.var);
          MCT_ASSIGN_OR_RETURN(
              tb, EvalSteps(std::move(base), 0, path.steps, binding.var, env));
        }
        int keep = tb.table.ColumnOf(binding.var);
        tb.table = query::Project(tb.table, {keep});
        tb.cols = {tb.cols[static_cast<size_t>(keep)]};
        if (acc.table.num_cols() == 0) {
          acc = std::move(tb);
        } else {
          MCT_ASSIGN_OR_RETURN(
              acc, JoinIn(std::move(acc), std::move(tb), nullptr, env));
        }
      } else {
        return Status::InvalidArgument("unbound variable " + path.start_var);
      }
    } else {
      // Does a step predicate reference a variable already bound (the
      // paper Q3's `[. = $m]` correlation)? Then the path must be
      // evaluated against the accumulated bindings rather than standalone.
      bool correlated = false;
      if (acc.table.num_cols() > 0) {
        std::vector<std::string> pred_vars;
        for (const PathStep& step : path.steps) {
          for (const auto& pred : step.predicates) {
            CollectVars(*pred, &pred_vars);
          }
        }
        for (const std::string& v : pred_vars) {
          if (acc.table.ColumnOf(v) >= 0) {
            correlated = true;
            break;
          }
        }
      }
      if (correlated) {
        Bindings seeded = std::move(acc);
        int doc_col = static_cast<int>(seeded.table.num_cols());
        seeded.table.Flatten();
        seeded.table.AppendColumn(
            "#doc",
            std::vector<NodeId>(seeded.table.num_rows(), db_->document()));
        seeded.cols.push_back(ColumnInfo{opts_.default_color, false, ""});
        {
          TraceGroup g(exec_.trace, "FOR", binding.var);
          if (g.enabled() && bplan != nullptr && bplan->est_rows >= 0) {
            g.node()->est_rows = bplan->est_rows;
          }
          MCT_ASSIGN_OR_RETURN(
              acc,
              EvalSteps(std::move(seeded), doc_col, path.steps, binding.var,
                        env, bplan));
        }
        // Drop the #doc helper column.
        std::vector<int> keep_cols;
        for (size_t i = 0; i < acc.table.num_cols(); ++i) {
          if (acc.table.vars[i] != "#doc") {
            keep_cols.push_back(static_cast<int>(i));
          }
        }
        acc.table = query::Project(acc.table, keep_cols);
        std::vector<ColumnInfo> kept;
        for (int k : keep_cols) kept.push_back(acc.cols[static_cast<size_t>(k)]);
        acc.cols = std::move(kept);
        if (distinct) {
          return Status::NotSupported(
              "distinct-values over a correlated path binding");
        }
        continue;
      }
      Bindings base;
      base.table = Table::FromNodes("#doc", {db_->document()});
      base.cols = {ColumnInfo{opts_.default_color, false, ""}};
      Bindings tb;
      {
        TraceGroup g(exec_.trace, "FOR", binding.var);
        if (g.enabled() && bplan != nullptr && bplan->est_rows >= 0) {
          g.node()->est_rows = bplan->est_rows;
        }
        MCT_ASSIGN_OR_RETURN(
            tb, EvalSteps(std::move(base), 0, path.steps, binding.var, env,
                          bplan));
      }
      int keep = tb.table.ColumnOf(binding.var);
      tb.table = query::Project(tb.table, {keep});
      tb.cols = {tb.cols[static_cast<size_t>(keep)]};

      int existing = acc.table.ColumnOf(binding.var);
      if (existing >= 0) {
        // The paper's Figure 3 rebinds the same variable across for
        // clauses (Q2 binds $m over red then green paths): the bindings
        // must agree, i.e. a node-identity join between the two colored
        // trees.
        tb.table.vars[0] = binding.var + "#rebind";
        Table joined = query::IdentityJoin(db_, acc.table, existing, tb.table,
                                           0, exec_);
        std::vector<int> cols;
        for (size_t i = 0; i < acc.table.num_cols(); ++i) {
          cols.push_back(static_cast<int>(i));
        }
        acc.table = query::Project(joined, cols);
        // The rebound column's color context switches to the new path's.
        acc.cols[static_cast<size_t>(existing)] = tb.cols[0];
      } else if (acc.table.num_cols() == 0) {
        acc = std::move(tb);
      } else {
        const Expr* join_conjunct = nullptr;
        for (size_t i = 0; i < conjuncts.size(); ++i) {
          if (used[i]) continue;
          const Expr& c = *conjuncts[i];
          if (c.kind != Expr::Kind::kCompare &&
              c.kind != Expr::Kind::kContains) {
            continue;
          }
          std::string lv = SoleVar(*c.children[0]);
          std::string rv = SoleVar(*c.children[1]);
          bool connects = (lv == binding.var && !rv.empty() &&
                           acc.table.ColumnOf(rv) >= 0) ||
                          (rv == binding.var && !lv.empty() &&
                           acc.table.ColumnOf(lv) >= 0);
          if (connects) {
            join_conjunct = &c;
            used[i] = true;
            break;
          }
        }
        MCT_ASSIGN_OR_RETURN(
            acc, JoinIn(std::move(acc), std::move(tb), join_conjunct, env));
      }
    }
    if (distinct) {
      int col = acc.table.ColumnOf(binding.var);
      const size_t rows_in = acc.table.num_rows();
      std::unordered_set<std::string> seen;
      std::vector<uint32_t> keep;
      for (size_t i = 0; i < rows_in; ++i) {
        const std::string& v = db_->Content(acc.table.At(i, col));
        if (seen.insert(v).second) keep.push_back(static_cast<uint32_t>(i));
      }
      if (opts_.stats != nullptr) ++opts_.stats->dup_elims;
      if (exec_.trace != nullptr) {
        query::OpTrace* n =
            exec_.trace->Leaf("DISTINCT VALUES", binding.var);
        n->rows_in = rows_in;
        n->rows_out = keep.size();
      }
      acc.table.KeepRows(std::move(keep));
      acc.cols[static_cast<size_t>(col)].atomic = true;
    }
  }

  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!used[i]) {
      MCT_RETURN_IF_ERROR(ApplyResidual(&acc, *conjuncts[i], env));
    }
  }
  return acc;
}

Result<Evaluator::Bindings> Evaluator::EvalSteps(
    Bindings in, int ctx_col, const std::vector<PathStep>& steps,
    const std::string& out_var, const Env& env,
    const query::BindingPlan* bplan) {
  const query::ExecContext& ctx = exec_;
  int cur = ctx_col;
  ColorId cur_color = in.cols[static_cast<size_t>(cur)].color;
  size_t original_cols = in.table.num_cols();

  if (bplan != nullptr && bplan->use_path_stack) {
    // The planner never chooses a spine over masked steps (and the plan
    // cache is fingerprint-sliced), but re-validate here: the holistic join
    // bypasses the per-step mask filter below.
    bool spine_masked = false;
    if (exec_.mask != nullptr) {
      for (const PathStep& st : steps) {
        MCT_ASSIGN_OR_RETURN(ColorId sc, ResolveColor(st.color));
        if (!exec_.mask->CanRead(sc)) {
          spine_masked = true;
          break;
        }
      }
    }
    if (!spine_masked) {
      MCT_ASSIGN_OR_RETURN(std::optional<Bindings> spine,
                           EvalSpine(in, ctx_col, steps, out_var));
      if (spine.has_value()) return *std::move(spine);
    }
  }

  for (size_t si = 0; si < steps.size(); ++si) {
    if (exec_.governor != nullptr) {
      MCT_RETURN_IF_ERROR(exec_.governor->Check());
    }
    const PathStep& step = steps[si];
    const query::StepPlan* sp =
        bplan != nullptr && si < bplan->steps.size() ? &bplan->steps[si]
                                                     : nullptr;
    MCT_ASSIGN_OR_RETURN(ColorId c, ResolveColor(step.color));
    // Hard evaluator guarantee (DESIGN.md §16): a step into a read-invisible
    // color binds nothing, regardless of enforcement mode or plan choice.
    // Emptying the context here covers the axes evaluated inline below
    // (self, attribute, the self-merge of descendant-or-self); the
    // color-parameterized operators also refuse masked colors themselves.
    if (exec_.mask != nullptr && !exec_.mask->CanRead(c)) {
      in.table.KeepRows({});
    }
    // Color transition on a bound column = the paper's color crossing,
    // implemented as the cross-tree join access method. Stepping off the
    // document node is free: the document carries every color.
    if (c != cur_color && in.table.vars[static_cast<size_t>(cur)] != "#doc") {
      if (sp != nullptr && sp->elide_cross_tree &&
          AxisSubsumesCrossTree(step.axis)) {
        // The upcoming axis operator only emits targets reached through
        // `c`-colored structure, so the identity join is pure overhead.
        // (Illegal before self/attribute/descendant-or-self: those pass
        // context nodes through without a color membership test.)
        in.cols[static_cast<size_t>(cur)].color = c;
        if (exec_.trace != nullptr) {
          query::OpTrace* n = exec_.trace->Leaf("CROSS-TREE ELIDED");
          n->rows_in = in.table.num_rows();
          n->rows_out = in.table.num_rows();
        }
      } else {
        in.table = query::CrossTreeJoin(db_, in.table, cur, c, ctx);
        in.cols[static_cast<size_t>(cur)].color = c;
      }
    }
    cur_color = c;
    bool is_final = si + 1 == steps.size();
    std::string col_name =
        is_final ? out_var : "#s" + std::to_string(si) + out_var;
    bool has_positional = false;
    for (const auto& pred : step.predicates) {
      if (pred->kind == Expr::Kind::kNumber) has_positional = true;
    }
    // Predicate consumed by an index-seek pushdown (already enforced by the
    // candidate set); -1 = none, the full predicate list runs.
    int consumed_pred = -1;
    Table next;
    switch (step.axis) {
      case Axis::kChild:
        next = query::ExpandChildren(db_, in.table, cur, c, step.tag,
                                     col_name, ctx);
        break;
      case Axis::kDescendant: {
        // Planner-chosen access method, each guarded by a runtime
        // precondition re-check; any failure falls back to the baseline
        // structural join, so results never depend on the plan.
        bool done = false;
        if (sp != nullptr) {
          if (sp->access == query::StepAccess::kScanShortcut &&
              in.table.num_rows() == 1 &&
              in.table.At(0, cur) == db_->document()) {
            next = query::ExpandDescendantsRoot(db_, in.table, cur, c,
                                                step.tag, col_name, ctx);
            done = true;
          } else if (sp->access == query::StepAccess::kIndexSeek &&
                     !has_positional) {
            std::optional<std::vector<NodeId>> cands =
                SeekCandidates(step, sp->seek_pred, c);
            if (cands.has_value()) {
              next = query::ExpandDescendantsAmong(db_, in.table, cur, c,
                                                   step.tag, *cands, col_name,
                                                   ctx);
              consumed_pred = sp->seek_pred;
              done = true;
            }
          } else if (sp->access == query::StepAccess::kNavDescendant &&
                     in.table.num_rows() <= sp->nav_max_rows) {
            next = query::ExpandDescendantsNav(db_, in.table, cur, c,
                                               step.tag, col_name, ctx);
            done = true;
          }
        }
        if (!done) {
          next = query::ExpandDescendants(db_, in.table, cur, c, step.tag,
                                          col_name, ctx);
        }
        break;
      }
      case Axis::kDescendantOrSelf: {
        next = query::ExpandDescendants(db_, in.table, cur, c, step.tag,
                                        col_name, ctx);
        size_t desc_rows = next.num_rows();
        // Self rows append after the descendant block (`next` is dense —
        // expansion output).
        std::vector<uint32_t> self_idx;
        for (size_t i = 0; i < in.table.num_rows(); ++i) {
          NodeId n = in.table.At(i, cur);
          if (db_->Kind(n) == xml::NodeKind::kElement &&
              (step.tag.empty() || db_->Tag(n) == step.tag)) {
            self_idx.push_back(static_cast<uint32_t>(i));
          }
        }
        query::Table::GatherInto(in.table, self_idx, &next, 0);
        auto& node_col = next.cols.back();
        for (uint32_t i : self_idx) node_col.push_back(in.table.At(i, cur));
        // The descendant expansion above already closed its trace record;
        // account for the self rows merged in afterwards so the per-group
        // row chain stays consistent.
        if (exec_.trace != nullptr) {
          query::OpTrace* n = exec_.trace->Leaf("SELF MERGE");
          n->rows_in = desc_rows;
          n->rows_out = next.num_rows();
        }
        break;
      }
      case Axis::kParent:
        next = query::ExpandParent(db_, in.table, cur, c, step.tag, col_name,
                                   ctx);
        break;
      case Axis::kAncestor:
        next = query::ExpandAncestors(db_, in.table, cur, c, step.tag,
                                      col_name, ctx);
        break;
      case Axis::kSelf: {
        next = in.table;
        next.Flatten();
        std::vector<NodeId> alias = next.cols[static_cast<size_t>(cur)];
        next.AppendColumn(col_name, std::move(alias));
        if (!step.tag.empty()) {
          const std::vector<NodeId>& nodes = next.cols.back();
          next = query::FilterRows(
              next,
              [&](size_t row) { return db_->Tag(nodes[row]) == step.tag; },
              ctx);
        }
        break;
      }
      case Axis::kAttribute: {
        if (!is_final) {
          return Status::NotSupported(
              "attribute steps are only supported as the final step");
        }
        next = in.table;
        next.Flatten();
        std::vector<NodeId> alias = next.cols[static_cast<size_t>(cur)];
        next.AppendColumn(col_name, std::move(alias));
        const std::vector<NodeId>& nodes = next.cols.back();
        next = query::FilterRows(
            next,
            [&](size_t row) {
              return db_->FindAttr(nodes[row], step.tag) != nullptr;
            },
            ctx);
        break;
      }
    }
    in.table = std::move(next);
    in.cols.push_back(step.axis == Axis::kAttribute
                          ? ColumnInfo{c, true, step.tag}
                          : ColumnInfo{c, false, ""});
    cur = static_cast<int>(in.table.num_cols()) - 1;
    if (exec_.trace != nullptr && sp != nullptr && sp->est_expand >= 0) {
      exec_.trace->last()->est_rows =
          consumed_pred >= 0 ? sp->est_out : sp->est_expand;
    }

    // Predicate evaluation order: the planner's cheapest-first permutation
    // when it validates against this step (full coverage, in range, no
    // duplicates); otherwise the syntactic order. Positional predicates pin
    // the syntactic order — their result depends on the rows that reach
    // them. An index-seek's consumed predicate is skipped (the candidate
    // set enforced it); if the seek did NOT fire, the planner's order
    // already lists seek_pred, or the natural order covers it.
    std::vector<int> pred_order;
    pred_order.reserve(step.predicates.size());
    for (int i = 0; i < static_cast<int>(step.predicates.size()); ++i) {
      pred_order.push_back(i);
    }
    if (sp != nullptr && !sp->pred_order.empty() && !has_positional) {
      std::vector<int> cand = sp->pred_order;
      if (consumed_pred < 0 && sp->seek_pred >= 0) {
        cand.insert(cand.begin(), sp->seek_pred);
      }
      const int n_preds = static_cast<int>(step.predicates.size());
      std::vector<char> seen(static_cast<size_t>(n_preds), 0);
      bool valid = static_cast<int>(cand.size()) ==
                   n_preds - (consumed_pred >= 0 ? 1 : 0);
      for (int pi : cand) {
        if (pi < 0 || pi >= n_preds || seen[static_cast<size_t>(pi)] ||
            pi == consumed_pred) {
          valid = false;
          break;
        }
        seen[static_cast<size_t>(pi)] = 1;
      }
      if (valid) pred_order = std::move(cand);
    }

    for (int pred_index : pred_order) {
      if (pred_index == consumed_pred) continue;
      const auto& pred = step.predicates[static_cast<size_t>(pred_index)];
      const auto pred_t0 = std::chrono::steady_clock::now();
      // Positional predicate [N]: keep the N-th (1-based) result of this
      // step per context row (rows grouped by every column but the new
      // one).
      if (pred->kind == Expr::Kind::kNumber) {
        int64_t want = static_cast<int64_t>(pred->num);
        const size_t rows_in = in.table.num_rows();
        const size_t ncols = in.table.num_cols();
        std::unordered_map<std::string, int64_t> counts;
        std::string key;
        std::vector<uint32_t> keep;
        for (size_t r = 0; r < rows_in; ++r) {
          key.clear();
          for (size_t i = 0; i + 1 < ncols; ++i) {
            NodeId v = in.table.At(r, static_cast<int>(i));
            key.append(reinterpret_cast<const char*>(&v), sizeof(NodeId));
          }
          if (++counts[key] == want) keep.push_back(static_cast<uint32_t>(r));
        }
        if (exec_.trace != nullptr) {
          query::OpTrace* n = exec_.trace->Leaf(
              "POSITION", StrFormat("[%lld]", static_cast<long long>(want)));
          n->rows_in = rows_in;
          n->rows_out = keep.size();
          n->seconds = SecondsSince(pred_t0);
        }
        in.table.KeepRows(std::move(keep));
        continue;
      }
      // Index-backed fast path for string-literal equality predicates —
      // the paper built content and attribute-value indexes "where needed"
      // (Section 7): [child::x = "lit"], [@a = "lit"], [. = "lit"] probe
      // the index and semi-join instead of filtering row by row.
      std::unordered_set<NodeId> probe;
      bool use_probe = false;
      if (pred->kind == Expr::Kind::kCompare && pred->cmp == CmpOp::kEq &&
          pred->children[1]->kind == Expr::Kind::kString &&
          pred->children[0]->kind == Expr::Kind::kPath) {
        const PathExpr& lp = pred->children[0]->path;
        const std::string& lit = pred->children[1]->str;
        if (lp.start_var.empty() && !lp.from_document &&
            lp.steps.size() == 1 && lp.steps[0].predicates.empty()) {
          const PathStep& ps = lp.steps[0];
          const bool by_child = ps.axis == Axis::kChild && !ps.tag.empty();
          const bool by_self =
              ps.axis == Axis::kSelf && ps.tag.empty() && !step.tag.empty();
          if (by_child || by_self || ps.axis == Axis::kAttribute) {
            MCT_ASSIGN_OR_RETURN(ColorId pc, [&]() -> Result<ColorId> {
              if (ps.color.empty()) return cur_color;
              return ResolveColor(ps.color);
            }());
            use_probe = true;
            // As in EvalRelPath, a predicate step into a read-invisible
            // color selects nothing (DESIGN.md §16).
            if (exec_.mask == nullptr || exec_.mask->CanRead(pc)) {
              if (by_child) {
                for (NodeId hit : db_->ContentLookup(ps.tag, lit)) {
                  auto parent = db_->Parent(hit, pc);
                  if (parent.has_value()) probe.insert(*parent);
                }
              } else {
                for (NodeId hit : by_self ? db_->ContentLookup(step.tag, lit)
                                          : db_->AttrLookup(ps.tag, lit)) {
                  probe.insert(hit);
                }
              }
            }
          }
        }
      }
      const size_t pred_rows_in = in.table.num_rows();
      std::vector<uint32_t> keep;
      if (use_probe) {
        for (size_t i = 0; i < pred_rows_in; ++i) {
          if (probe.contains(in.table.At(i, cur))) {
            keep.push_back(static_cast<uint32_t>(i));
          }
        }
        if (exec_.trace != nullptr) {
          query::OpTrace* n = exec_.trace->Leaf("INDEX PROBE", "predicate");
          n->rows_in = pred_rows_in;
          n->rows_out = keep.size();
          n->seconds = SecondsSince(pred_t0);
        }
      } else {
        // Per-row predicate evaluation: the hot path of scan-filter
        // queries. Pure predicates fan out across the pool; the keep mask
        // preserves row order exactly.
        std::vector<char> mask(pred_rows_in, 0);
        // Vectorized comparison: predicates of shape
        // [{c}child::tag <cmp> literal] and [@a <cmp> literal] compare one
        // extracted value per node against a constant, parsed once. The
        // interpreter re-resolves the color, allocates candidate vectors,
        // and atomizes through the generic Item machinery on every row;
        // this hoists all of that out of the loop. Only exact interpreter
        // equivalents qualify (single relative step, no step predicates,
        // atomic literal rhs — the node-identity branch of EvalBool cannot
        // trigger). The mirrored form [literal <cmp> path] stays on the
        // interpreter, which makes it this path's differential oracle.
        bool fast = false;
        const PathExpr* lp = nullptr;
        if (pred->kind == Expr::Kind::kCompare &&
            (pred->children[1]->kind == Expr::Kind::kString ||
             pred->children[1]->kind == Expr::Kind::kNumber) &&
            pred->children[0]->kind == Expr::Kind::kPath) {
          lp = &pred->children[0]->path;
        }
        if (lp != nullptr && lp->start_var.empty() && !lp->from_document &&
            lp->steps.size() == 1 && lp->steps[0].predicates.empty() &&
            ((lp->steps[0].axis == Axis::kChild &&
              !lp->steps[0].tag.empty()) ||
             lp->steps[0].axis == Axis::kAttribute)) {
          const PathStep& ps = lp->steps[0];
          // An unknown color stays on the interpreter, which reports it.
          Result<ColorId> rc = ps.color.empty() ? Result<ColorId>(cur_color)
                                                : ResolveColor(ps.color);
          fast = rc.ok();
          const ColorId pred_color = rc.ok() ? *rc : cur_color;
          const std::string lit_text =
              pred->children[1]->kind == Expr::Kind::kString
                  ? pred->children[1]->str
                  : FormatNumber(pred->children[1]->num);
          const Atom lit = ParseAtom(lit_text);
          const CmpOp cmp = pred->cmp;
          if (!fast ||
              (exec_.mask != nullptr && !exec_.mask->CanRead(pred_color))) {
            // Unknown color: the interpreter answers below. Read-invisible
            // color: as in EvalRelPath, the predicate selects nothing.
          } else if (ps.axis == Axis::kAttribute) {
            MCT_RETURN_IF_ERROR(ForRows(pred_rows_in, true, [&](size_t i) {
              const std::string* v =
                  db_->FindAttr(in.table.At(i, cur), ps.tag);
              mask[i] =
                  v != nullptr && CompareAtoms(cmp, ParseAtom(*v), lit) ? 1
                                                                         : 0;
              return Status::OK();
            }));
          } else {
            const ColoredTree* tree = db_->tree(pred_color);
            const std::vector<NodeId>* tagged =
                db_->TagPostings(pred_color, ps.tag);
            const size_t tag_count = tagged == nullptr ? 0 : tagged->size();
            if (tag_count <= pred_rows_in * 8) {
              // Selective tag: compare every tagged node once, reading the
              // posting list in place, and semi-join the parents, instead
              // of walking each context row's full child list (rows with
              // many children — e.g. an issue with hundreds of articles —
              // pay one tag-index pass instead of rows x fanout child
              // visits).
              std::unordered_set<NodeId> hit_parents;
              std::string scratch;
              for (size_t t = 0; t < tag_count; ++t) {
                const NodeId v = (*tagged)[t];
                if (!CompareAtoms(
                        cmp, ParseAtom(AtomText(Item::OfNode(v), &scratch)),
                        lit)) {
                  continue;
                }
                NodeId par = tree->Parent(v);
                if (par != kInvalidNodeId) hit_parents.insert(par);
              }
              for (size_t i = 0; i < pred_rows_in; ++i) {
                mask[i] = hit_parents.contains(in.table.At(i, cur)) ? 1 : 0;
              }
            } else {
              const NameId tag_id = db_->store().names().Lookup(ps.tag);
              MCT_RETURN_IF_ERROR(ForRows(pred_rows_in, true, [&](size_t i) {
                NodeId n = in.table.At(i, cur);
                if (!db_->Colors(n).Has(pred_color)) return Status::OK();
                bool hit = false;
                std::string scratch;
                tree->ForEachChild(n, [&](NodeId k) {
                  if (hit || db_->Kind(k) != xml::NodeKind::kElement ||
                      db_->TagId(k) != tag_id) {
                    return;
                  }
                  hit = CompareAtoms(
                      cmp, ParseAtom(AtomText(Item::OfNode(k), &scratch)),
                      lit);
                });
                mask[i] = hit ? 1 : 0;
                return Status::OK();
              }));
            }
          }
        }
        if (!fast) {
          MCT_RETURN_IF_ERROR(
              ForRows(pred_rows_in, IsPureExpr(*pred), [&](size_t i) {
                EvalCtx pc;
                pc.b = &in;
                pc.row = i;
                pc.env = &env;
                pc.ctx_node = in.table.At(i, cur);
                pc.ctx_color = cur_color;
                MCT_ASSIGN_OR_RETURN(bool k, EvalBool(pc, *pred));
                mask[i] = k ? 1 : 0;
                return Status::OK();
              }));
        }
        for (size_t i = 0; i < pred_rows_in; ++i) {
          if (mask[i]) keep.push_back(static_cast<uint32_t>(i));
        }
        if (exec_.trace != nullptr) {
          query::OpTrace* tn = exec_.trace->Leaf("FILTER", "predicate");
          tn->rows_in = pred_rows_in;
          tn->rows_out = keep.size();
          tn->seconds = SecondsSince(pred_t0);
        }
      }
      in.table.KeepRows(std::move(keep));
    }
    if (exec_.trace != nullptr && sp != nullptr && sp->est_out >= 0 &&
        !step.predicates.empty()) {
      exec_.trace->last()->est_rows = sp->est_out;
    }
  }

  // Keep the original columns plus the final step column.
  std::vector<int> keep;
  for (size_t i = 0; i < original_cols; ++i) {
    keep.push_back(static_cast<int>(i));
  }
  if (cur >= static_cast<int>(original_cols)) keep.push_back(cur);
  Bindings out;
  out.table = query::Project(std::move(in.table), keep);
  for (int k : keep) out.cols.push_back(in.cols[static_cast<size_t>(k)]);
  if (steps.empty()) {
    // Zero steps: alias the context column under the new name (a column
    // copy, no per-row work).
    out.table.Flatten();
    std::vector<NodeId> alias = out.table.cols[static_cast<size_t>(ctx_col)];
    out.table.AppendColumn(out_var, std::move(alias));
    out.cols.push_back(out.cols[static_cast<size_t>(ctx_col)]);
  } else if (cur >= static_cast<int>(original_cols)) {
    out.table.vars.back() = out_var;
  }
  return out;
}

Result<std::optional<Evaluator::Bindings>> Evaluator::EvalSpine(
    const Bindings& in, int ctx_col, const std::vector<PathStep>& steps,
    const std::string& out_var) {
  // Runtime re-validation of the spine shape the planner saw: a lone
  // document-root row and >= 2 predicate-free descendant steps in one
  // color. Anything else -> nullopt, the caller runs the step loop.
  if (in.table.num_rows() != 1 || in.table.num_cols() != 1 ||
      ctx_col != 0 || in.table.vars[0] != "#doc" ||
      in.table.At(0, 0) != db_->document() || steps.size() < 2) {
    return std::optional<Bindings>();
  }
  ColorId spine_color = kInvalidColorId;
  for (const PathStep& step : steps) {
    if (step.axis != Axis::kDescendant || step.tag.empty() ||
        !step.predicates.empty()) {
      return std::optional<Bindings>();
    }
    MCT_ASSIGN_OR_RETURN(ColorId c, ResolveColor(step.color));
    if (spine_color == kInvalidColorId) {
      spine_color = c;
    } else if (c != spine_color) {
      return std::optional<Bindings>();
    }
  }

  query::TwigPattern pattern;
  int parent = -1;
  for (const PathStep& step : steps) {
    parent = pattern.Add(parent, step.tag, /*child_axis=*/false);
  }
  MCT_ASSIGN_OR_RETURN(Table matched,
                       query::PathStackJoin(db_, spine_color, pattern, exec_));
  ColoredTree* tree = db_->tree(spine_color);
  tree->EnsureLabels();
  const ColoredTree& ct = *tree;

  // Restore the baseline pipeline's row order. Chaining k descendant
  // expansions from the single document row orders rows lexicographically
  // by (start(d_k), start(d_{k-1}), ..., start(d_1)) — the stack-tree merge
  // emits (descendant, ancestor) pairs by descendant start, and each later
  // expansion re-sorts by its own column with the previous order as the
  // tie-break. Sorting the twig matches on the reversed tuple is exact.
  const auto spine_t0 = std::chrono::steady_clock::now();
  const size_t n_matches = matched.num_rows();
  const size_t n_spine_cols = matched.num_cols();
  if (exec_.governor != nullptr) {
    // The order-restore permutation and the projected output are the
    // spine's remaining materializations; charge them before allocating.
    MCT_RETURN_IF_ERROR(exec_.governor->Charge(
        static_cast<uint64_t>(n_matches) *
        (sizeof(uint32_t) + 2 * sizeof(NodeId))));
  }
  std::vector<uint32_t> order(n_matches);
  for (size_t i = 0; i < n_matches; ++i) order[i] = static_cast<uint32_t>(i);
  // `matched` is dense (PathStackJoin output), so the comparator reads the
  // label columns directly.
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = n_spine_cols; k-- > 0;) {
      uint64_t sa = ct.Start(matched.cols[k][a]);
      uint64_t sb = ct.Start(matched.cols[k][b]);
      if (sa != sb) return sa < sb;
    }
    return false;
  });

  // Project straight to the step loop's final layout: the original #doc
  // column plus the last spine node, one row per twig match (duplicates
  // preserved, exactly as the baseline projection keeps them). Two column
  // fills: a constant #doc column and a gather of the leaf label column.
  Bindings out;
  out.table.vars = in.table.vars;
  out.table.vars.push_back(out_var);
  out.cols = in.cols;
  out.cols.push_back(ColumnInfo{spine_color, false, ""});
  out.table.cols.resize(2);
  out.table.cols[0].assign(n_matches, in.table.At(0, 0));
  const std::vector<NodeId>& leaf = matched.cols.back();
  out.table.cols[1].reserve(n_matches);
  for (uint32_t i : order) out.table.cols[1].push_back(leaf[i]);
  if (exec_.trace != nullptr) {
    query::OpTrace* n = exec_.trace->Leaf("SPINE ORDER RESTORE");
    n->rows_in = matched.num_rows();
    n->rows_out = out.table.num_rows();
    n->seconds = SecondsSince(spine_t0);
  }
  return std::optional<Bindings>(std::move(out));
}

std::optional<std::vector<NodeId>> Evaluator::SeekCandidates(
    const PathStep& step, int seek_pred, ColorId step_color) {
  if (seek_pred < 0 ||
      seek_pred >= static_cast<int>(step.predicates.size())) {
    return std::nullopt;
  }
  const Expr& pred = *step.predicates[static_cast<size_t>(seek_pred)];
  if (pred.kind != Expr::Kind::kCompare || pred.cmp != CmpOp::kEq ||
      pred.children.size() != 2 ||
      pred.children[1]->kind != Expr::Kind::kString ||
      pred.children[0]->kind != Expr::Kind::kPath) {
    return std::nullopt;
  }
  const PathExpr& lp = pred.children[0]->path;
  const std::string& lit = pred.children[1]->str;
  if (!lp.start_var.empty() || lp.from_document || lp.steps.size() != 1 ||
      !lp.steps[0].predicates.empty()) {
    return std::nullopt;
  }
  const PathStep& ps = lp.steps[0];
  ColorId pc = step_color;
  if (!ps.color.empty()) {
    pc = db_->LookupColor(ps.color);
    // Unknown color: fall back so the baseline probe raises the same
    // error the unplanned pipeline would.
    if (pc == kInvalidColorId) return std::nullopt;
  }
  // As in EvalRelPath, a predicate step into a read-invisible color selects
  // nothing (DESIGN.md §16): no candidates.
  const bool visible = exec_.mask == nullptr || exec_.mask->CanRead(pc);
  std::vector<NodeId> cands;
  if (ps.axis == Axis::kChild && !ps.tag.empty()) {
    if (!visible) return cands;
    for (NodeId hit : db_->ContentLookup(ps.tag, lit)) {
      std::optional<NodeId> par = db_->Parent(hit, pc);
      if (par.has_value()) cands.push_back(*par);
    }
  } else if (ps.axis == Axis::kAttribute) {
    if (visible) cands = db_->AttrLookup(ps.tag, lit);
  } else if (ps.axis == Axis::kSelf && ps.tag.empty() && !step.tag.empty()) {
    if (visible) cands = db_->ContentLookup(step.tag, lit);
  } else {
    return std::nullopt;
  }
  return cands;
}

Result<Evaluator::Bindings> Evaluator::JoinIn(Bindings left, Bindings right,
                                              const Expr* conjunct,
                                              const Env& env) {
  ExecStats* stats = opts_.stats;
  const auto join_t0 = std::chrono::steady_clock::now();
  Bindings out;
  std::vector<std::string> out_vars = left.table.vars;
  out_vars.insert(out_vars.end(), right.table.vars.begin(),
                  right.table.vars.end());
  out.table = query::Table::WithVars(std::move(out_vars));
  out.cols = left.cols;
  out.cols.insert(out.cols.end(), right.cols.begin(), right.cols.end());

  // Per-row key evaluation against one side's bindings.
  auto key_fn = [&](const Bindings& b, size_t row,
                    const Expr& e) -> Result<std::optional<std::string>> {
    EvalCtx c;
    c.b = &b;
    c.row = row;
    c.env = &env;
    MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, e));
    if (items.empty()) return std::optional<std::string>();
    return std::optional<std::string>(Atomize(items[0]));
  };

  auto side_of = [&](const Expr& e) -> const Bindings* {
    std::string v = SoleVar(e);
    if (!v.empty() && left.table.ColumnOf(v) >= 0) return &left;
    if (!v.empty() && right.table.ColumnOf(v) >= 0) return &right;
    return nullptr;
  };

  // Matching (left row, right row) index pairs in emission order; the
  // output is materialized once at the end with per-column gathers.
  std::vector<uint32_t> li, ri;
  auto emit = [&](size_t l, size_t r) {
    li.push_back(static_cast<uint32_t>(l));
    ri.push_back(static_cast<uint32_t>(r));
  };
  auto materialize = [&]() -> Status {
    if (exec_.governor != nullptr) {
      // The joined table is this statement's dominant materialization:
      // charge it (plus the pair-index scratch) before the column fills.
      MCT_RETURN_IF_ERROR(exec_.governor->Charge(
          static_cast<uint64_t>(li.size()) *
          ((left.table.num_cols() + right.table.num_cols()) * sizeof(NodeId) +
           2 * sizeof(uint32_t))));
    }
    query::Table::GatherInto(left.table, li, &out.table, 0);
    query::Table::GatherInto(right.table, ri, &out.table,
                             left.table.num_cols());
    return Status::OK();
  };

  // Records the chosen join strategy as one trace leaf; rows_in counts both
  // inputs, mirroring the physical join operators.
  auto trace_join = [&](const char* op) {
    if (exec_.trace == nullptr) return;
    query::OpTrace* n = exec_.trace->Leaf(op);
    n->rows_in = left.table.num_rows() + right.table.num_rows();
    n->rows_out = out.table.num_rows();
    n->seconds = SecondsSince(join_t0);
  };

  if (conjunct == nullptr) {
    // No connecting condition: Cartesian product. Poll the governor per
    // left row (each covers one full right-side sweep) so an exploding
    // product is cancellable long before materialization.
    if (stats != nullptr) ++stats->nested_loop_joins;
    const size_t cart_rn = right.table.num_rows();
    for (size_t i = 0; i < left.table.num_rows(); ++i) {
      if (exec_.governor != nullptr && cart_rn > 256) {
        MCT_RETURN_IF_ERROR(exec_.governor->Check());
      }
      for (size_t j = 0; j < cart_rn; ++j) emit(i, j);
    }
    MCT_RETURN_IF_ERROR(materialize());
    trace_join("CARTESIAN PRODUCT");
    return out;
  }

  const Expr& a = *conjunct->children[0];
  const Expr& b2 = *conjunct->children[1];
  const Bindings* sa = side_of(a);
  const Bindings* sb = side_of(b2);
  if (sa == nullptr || sb == nullptr || sa == sb) {
    return Status::Internal("join conjunct does not connect the two sides");
  }

  if (conjunct->kind == Expr::Kind::kContains) {
    // contains(list, id): IDREFS-style containment join; the first argument
    // is the whitespace-separated list.
    if (stats != nullptr) ++stats->value_joins;
    // Hash the id side.
    const Bindings& id_side = *sb;
    const Bindings& list_side = *sa;
    const bool list_is_left = (&list_side == &left);
    std::unordered_map<std::string, std::vector<uint32_t>> ht;
    if (exec_.governor != nullptr) {
      MCT_RETURN_IF_ERROR(
          exec_.governor->Charge(id_side.table.num_rows() * 64));
    }
    for (size_t i = 0; i < id_side.table.num_rows(); ++i) {
      MCT_ASSIGN_OR_RETURN(auto k, key_fn(id_side, i, b2));
      if (k.has_value() && !k->empty()) {
        ht[*k].push_back(static_cast<uint32_t>(i));
      }
    }
    for (size_t lrow = 0; lrow < list_side.table.num_rows(); ++lrow) {
      MCT_ASSIGN_OR_RETURN(auto list, key_fn(list_side, lrow, a));
      if (!list.has_value()) continue;
      for (const std::string& token : SplitWhitespace(*list)) {
        auto it = ht.find(token);
        if (it == ht.end()) continue;
        for (uint32_t id_row : it->second) {
          if (list_is_left) {
            emit(lrow, id_row);
          } else {
            emit(id_row, lrow);
          }
        }
      }
    }
    MCT_RETURN_IF_ERROR(materialize());
    trace_join("IDREFS VALUE JOIN");
    return out;
  }

  if (conjunct->cmp == CmpOp::kEq) {
    // Hash equality join; build on the smaller side. Key extraction (the
    // expensive per-row expression evaluation) fans out when the key
    // expressions are pure; the hash build and the ordered emit stay serial.
    if (stats != nullptr) ++stats->value_joins;
    const Bindings* build = sa;
    const Expr* build_key = &a;
    const Bindings* probe = sb;
    const Expr* probe_key = &b2;
    if (probe->table.num_rows() < build->table.num_rows()) {
      std::swap(build, probe);
      std::swap(build_key, probe_key);
    }
    const size_t bn = build->table.num_rows();
    if (exec_.governor != nullptr) {
      // Hash-table scratch: same per-entry estimate as HashJoinProbe.
      MCT_RETURN_IF_ERROR(exec_.governor->Charge(bn * 64));
    }
    std::vector<std::optional<std::string>> bkeys(bn);
    MCT_RETURN_IF_ERROR(ForRows(bn, IsPureExpr(*build_key), [&](size_t i) {
      MCT_ASSIGN_OR_RETURN(bkeys[i], key_fn(*build, i, *build_key));
      return Status::OK();
    }));
    std::unordered_map<std::string, std::vector<uint32_t>> ht;
    for (size_t i = 0; i < bn; ++i) {
      if (bkeys[i].has_value()) {
        ht[*bkeys[i]].push_back(static_cast<uint32_t>(i));
      }
    }
    const size_t pn = probe->table.num_rows();
    std::vector<std::optional<std::string>> pkeys(pn);
    MCT_RETURN_IF_ERROR(ForRows(pn, IsPureExpr(*probe_key), [&](size_t i) {
      MCT_ASSIGN_OR_RETURN(pkeys[i], key_fn(*probe, i, *probe_key));
      return Status::OK();
    }));
    const bool build_left = (build == &left);
    for (size_t pi = 0; pi < pn; ++pi) {
      if (!pkeys[pi].has_value()) continue;
      auto it = ht.find(*pkeys[pi]);
      if (it == ht.end()) continue;
      for (uint32_t bi : it->second) {
        if (build_left) {
          emit(bi, pi);
        } else {
          emit(pi, bi);
        }
      }
    }
    MCT_RETURN_IF_ERROR(materialize());
    trace_join("HASH VALUE JOIN");
    return out;
  }

  // Inequality: nested loop (the quadratic case the paper calls out).
  // Keys are extracted once per row; the loop itself is the quadratic part,
  // exactly as in the paper's plans.
  if (stats != nullptr) ++stats->nested_loop_joins;
  CmpOp op = conjunct->cmp;
  bool a_is_left = (sa == &left);
  const Expr& lkey_expr = a_is_left ? a : b2;
  const Expr& rkey_expr = a_is_left ? b2 : a;
  const size_t ln = left.table.num_rows();
  const size_t rn = right.table.num_rows();
  std::vector<std::optional<std::string>> lkeys(ln);
  MCT_RETURN_IF_ERROR(ForRows(ln, IsPureExpr(lkey_expr), [&](size_t i) {
    MCT_ASSIGN_OR_RETURN(lkeys[i], key_fn(left, i, lkey_expr));
    return Status::OK();
  }));
  std::vector<std::optional<std::string>> rkeys(rn);
  MCT_RETURN_IF_ERROR(ForRows(rn, IsPureExpr(rkey_expr), [&](size_t i) {
    MCT_ASSIGN_OR_RETURN(rkeys[i], key_fn(right, i, rkey_expr));
    return Status::OK();
  }));
  // The quadratic compare scans pre-extracted keys only, so it is always
  // safe to fan out. Each left row records its match indexes; the ordered
  // emit below reproduces the serial output exactly. A left-row morsel
  // covers O(rn) compares, so shrink it to keep ~morsel_size compares per
  // claim.
  std::vector<std::vector<uint32_t>> matches(ln);
  const size_t compare_morsel = std::max<size_t>(
      1, opts_.morsel_size / std::max<size_t>(1, rn));
  MCT_RETURN_IF_ERROR(ForRows(
      ln, true,
      [&](size_t i) {
        if (!lkeys[i].has_value()) return Status::OK();
        for (size_t j = 0; j < rn; ++j) {
          if (!rkeys[j].has_value()) continue;
          bool ok = a_is_left ? CompareValues(op, *lkeys[i], *rkeys[j])
                              : CompareValues(op, *rkeys[j], *lkeys[i]);
          if (ok) matches[i].push_back(static_cast<uint32_t>(j));
        }
        return Status::OK();
      },
      compare_morsel));
  for (size_t i = 0; i < ln; ++i) {
    for (uint32_t j : matches[i]) emit(i, j);
  }
  MCT_RETURN_IF_ERROR(materialize());
  trace_join("NESTED-LOOP INEQUALITY JOIN");
  return out;
}

Status Evaluator::ApplyResidual(Bindings* b, const Expr& conjunct,
                                const Env& env) {
  // Residual where-conjuncts filter with an order-preserving keep mask: a
  // comparison whose operands each read at most one column is answered
  // from operand columns; any other conjunct (an `or`, an operand over two
  // variables) runs row by row, fanning out across the pool when pure.
  const auto t0 = std::chrono::steady_clock::now();
  const size_t n = b->table.num_rows();
  std::vector<char> mask(n, 0);
  MCT_ASSIGN_OR_RETURN(std::optional<size_t> evals,
                       CompareOperandColumns(*b, conjunct, env, &mask));
  if (!evals.has_value()) {
    MCT_RETURN_IF_ERROR(ForRows(n, IsPureExpr(conjunct), [&](size_t i) {
      EvalCtx c;
      c.b = b;
      c.row = i;
      c.env = &env;
      MCT_ASSIGN_OR_RETURN(bool k, EvalBool(c, conjunct));
      mask[i] = k ? 1 : 0;
      return Status::OK();
    }));
  }
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < n; ++i) {
    if (mask[i]) keep.push_back(static_cast<uint32_t>(i));
  }
  if (exec_.trace != nullptr) {
    query::OpTrace* tn = exec_.trace->Leaf(
        "FILTER", evals.has_value()
                      ? StrFormat("residual, %zu operand evaluations", *evals)
                      : std::string("residual"));
    tn->rows_in = n;
    tn->rows_out = keep.size();
    tn->seconds = SecondsSince(t0);
  }
  b->table.KeepRows(std::move(keep));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Residual comparisons over operand columns
// ---------------------------------------------------------------------------

// The atomized values of one morsel of an operand's slots.
struct Evaluator::OperandValues {
  // One atomized item: its node (kInvalidNodeId for an atomic item), its
  // text (a range of `text`) and its number, when the text parses as one.
  struct Value {
    NodeId node;
    uint32_t text_begin;
    uint32_t text_size;
    bool has_num;
    double num;
  };
  // Local slot s owns values [begin[s], begin[s + 1]).
  std::vector<uint32_t> begin{0};
  std::vector<Value> values;
  std::string text;

  Status Append(NodeId node, std::string_view t) {
    if (text.size() + t.size() > UINT32_MAX) {
      return Status::ResourceExhausted(
          "operand values exceed 4 GiB of text in one morsel");
    }
    const std::optional<double> num = ParseDouble(t);
    values.push_back(Value{node, static_cast<uint32_t>(text.size()),
                           static_cast<uint32_t>(t.size()), num.has_value(),
                           num.value_or(0)});
    text.append(t);
    return Status::OK();
  }
  Atom AtomOf(const Value& v) const {
    return Atom{std::string_view(text).substr(v.text_begin, v.text_size),
                v.has_num ? std::optional<double>(v.num) : std::nullopt};
  }
  size_t bytes() const {
    return begin.capacity() * sizeof(uint32_t) +
           values.capacity() * sizeof(Value) + text.capacity();
  }

  /// Existential comparison of local slot `sa` of `a` against local slot
  /// `sb` of `b`, by EvalBool's rules: an empty operand matches nothing.
  static bool AnyPairMatches(CmpOp op, const OperandValues& a, uint32_t sa,
                             const OperandValues& b, uint32_t sb) {
    for (uint32_t i = a.begin[sa]; i < a.begin[sa + 1]; ++i) {
      const Value& x = a.values[i];
      for (uint32_t j = b.begin[sb]; j < b.begin[sb + 1]; ++j) {
        const Value& y = b.values[j];
        if (ComparePair(
                op, x.node, y.node, [&] { return a.AtomOf(x); },
                [&] { return b.AtomOf(y); })) {
          return true;
        }
      }
    }
    return false;
  }
};

namespace {

// Dictionary of the nodes of one or two binding columns: open addressing
// from NodeId to a dense slot per distinct node, so its size follows the
// distinct count and never the NodeId range.
class NodeSlots {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// The slot of `n`; kNone when `n` was never added.
  uint32_t Find(NodeId n) const {
    for (size_t i = Home(n);; i = (i + 1) & (keys_.size() - 1)) {
      if (slots_[i] == kNone || keys_[i] == n) return slots_[i];
    }
  }
  /// Adds `n` as slot size() unless present; true when added.
  bool Add(NodeId n) {
    if (2 * (nodes_.size() + 1) > keys_.size()) Grow();
    for (size_t i = Home(n);; i = (i + 1) & (keys_.size() - 1)) {
      if (slots_[i] == kNone) {
        keys_[i] = n;
        slots_[i] = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back(n);
        return true;
      }
      if (keys_[i] == n) return false;
    }
  }
  size_t size() const { return nodes_.size(); }
  /// Renumbers the slots in ascending NodeId order; returns the old slot
  /// of each new one.
  std::vector<uint32_t> SortByNode() {
    std::vector<uint32_t> order(nodes_.size());
    for (uint32_t s = 0; s < order.size(); ++s) order[s] = s;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return nodes_[a] < nodes_[b]; });
    std::vector<uint32_t> rank(order.size());
    std::vector<NodeId> sorted(order.size());
    for (uint32_t s = 0; s < order.size(); ++s) {
      rank[order[s]] = s;
      sorted[s] = nodes_[order[s]];
    }
    nodes_ = std::move(sorted);
    for (uint32_t& slot : slots_) {
      if (slot != kNone) slot = rank[slot];
    }
    return order;
  }
  size_t bytes() const {
    return keys_.capacity() * sizeof(NodeId) +
           slots_.capacity() * sizeof(uint32_t) +
           nodes_.capacity() * sizeof(NodeId);
  }

 private:
  size_t Home(NodeId n) const {
    return static_cast<size_t>((uint64_t{n} * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }
  // Doubles the table (from 64 entries), keeping the load at most 1/2.
  void Grow() {
    const size_t cap = keys_.empty() ? 64 : 2 * keys_.size();
    shift_ = 64 - static_cast<int>(__builtin_ctzll(cap));
    keys_.assign(cap, kInvalidNodeId);
    slots_.assign(cap, kNone);
    for (uint32_t s = 0; s < nodes_.size(); ++s) {
      size_t i = Home(nodes_[s]);
      while (slots_[i] != kNone) i = (i + 1) & (cap - 1);
      keys_[i] = nodes_[s];
      slots_[i] = s;
    }
  }

  std::vector<NodeId> keys_;
  std::vector<uint32_t> slots_;
  std::vector<NodeId> nodes_;  // slot -> node
  int shift_ = 64;
};

// The relative steps of an operand over one column, printed: "" for a bare
// variable, the path after its variable; nullopt for any other shape.
std::optional<std::string> RelativeSteps(const Expr& e) {
  if (e.kind == Expr::Kind::kVarRef) return std::string();
  if (e.kind != Expr::Kind::kPath || e.path.start_var.empty()) {
    return std::nullopt;
  }
  return Print(e.path).substr(e.path.start_var.size());
}

}  // namespace

Result<std::optional<size_t>> Evaluator::CompareOperandColumns(
    const Bindings& b, const Expr& e, const Env& env,
    std::vector<char>* keep) {
  if (e.kind != Expr::Kind::kCompare) return std::optional<size_t>();
  // Each operand is variable-free (column -1) or a pure expression over
  // exactly one bound column.
  const Expr* const ops[2] = {e.children[0].get(), e.children[1].get()};
  int cols[2] = {-1, -1};
  for (int k = 0; k < 2; ++k) {
    if (!IsPureExpr(*ops[k])) return std::optional<size_t>();
    std::vector<std::string> vars;
    CollectVars(*ops[k], &vars);
    if (vars.empty()) continue;
    for (const std::string& v : vars) {
      if (v != vars[0]) return std::optional<size_t>();
    }
    cols[k] = b.table.ColumnOf(vars[0]);
    if (cols[k] < 0) return std::optional<size_t>();
  }
  const size_t n = b.table.num_rows();
  if (n == 0) return std::optional<size_t>(0);

  // Two operands share one dictionary, and so one evaluation per node, when
  // they apply identical steps to columns reached alike.
  bool shared = false;
  if (cols[0] >= 0 && cols[1] >= 0) {
    const ColumnInfo& c0 = b.cols[static_cast<size_t>(cols[0])];
    const ColumnInfo& c1 = b.cols[static_cast<size_t>(cols[1])];
    const std::optional<std::string> steps0 = RelativeSteps(*ops[0]);
    shared = c0.color == c1.color && c0.atomic == c1.atomic &&
             c0.attr == c1.attr && steps0.has_value() &&
             steps0 == RelativeSteps(*ops[1]);
  }

  // Dictionary-encode each column: a slot per distinct node, with the row
  // and operand that first reached it, where that node is evaluated. A
  // variable-free operand has one slot, evaluated at row 0.
  struct Dictionary {
    NodeSlots slots;
    std::vector<uint32_t> rows;
    std::vector<uint8_t> sides;
    int shift = 0;  // slot s is local slot s & (2^shift - 1) of part s >> shift
    std::vector<OperandValues> parts;
  };
  Dictionary dicts[2];
  ResourceGovernor* gov = exec_.governor;
  const size_t poll = opts_.morsel_size != 0 ? opts_.morsel_size : n;
  for (int k = 0; k < 2; ++k) {
    Dictionary& d = dicts[shared ? 0 : k];
    if (cols[k] < 0) {
      d.rows.push_back(0);
      d.sides.push_back(static_cast<uint8_t>(k));
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      if (gov != nullptr && i != 0 && i % poll == 0) {
        MCT_RETURN_IF_ERROR(gov->Check());
      }
      if (d.slots.Add(b.table.At(i, cols[k]))) {
        d.rows.push_back(static_cast<uint32_t>(i));
        d.sides.push_back(static_cast<uint8_t>(k));
      }
    }
  }
  size_t evals = 0;
  for (int k = 0; k < (shared ? 1 : 2); ++k) {
    Dictionary& d = dicts[k];
    if (d.slots.size() != 0) {
      // Evaluate in ascending NodeId order.
      const std::vector<uint32_t> order = d.slots.SortByNode();
      std::vector<uint32_t> rows(order.size());
      std::vector<uint8_t> sides(order.size());
      for (size_t s = 0; s < order.size(); ++s) {
        rows[s] = d.rows[order[s]];
        sides[s] = d.sides[order[s]];
      }
      d.rows = std::move(rows);
      d.sides = std::move(sides);
    }
    if (gov != nullptr) {
      MCT_RETURN_IF_ERROR(gov->Charge(d.slots.bytes() +
                                      d.rows.capacity() * sizeof(uint32_t) +
                                      d.sides.capacity()));
    }
    MCT_RETURN_IF_ERROR(
        EvalOperandSlots(b, env, ops, d.rows, d.sides, &d.shift, &d.parts));
    evals += d.rows.size();
  }

  const Dictionary& l = dicts[0];
  const Dictionary& r = dicts[shared ? 0 : 1];
  MCT_RETURN_IF_ERROR(ForRows(n, true, [&](size_t i) {
    const uint32_t sl = cols[0] < 0 ? 0 : l.slots.Find(b.table.At(i, cols[0]));
    const uint32_t sr = cols[1] < 0 ? 0 : r.slots.Find(b.table.At(i, cols[1]));
    (*keep)[i] = OperandValues::AnyPairMatches(
                     e.cmp, l.parts[sl >> l.shift],
                     sl & ((uint32_t{1} << l.shift) - 1),
                     r.parts[sr >> r.shift],
                     sr & ((uint32_t{1} << r.shift) - 1))
                     ? 1
                     : 0;
    return Status::OK();
  }));
  return std::optional<size_t>(evals);
}

Status Evaluator::EvalOperandSlots(const Bindings& b, const Env& env,
                                   const Expr* const exprs[2],
                                   const std::vector<uint32_t>& rows,
                                   const std::vector<uint8_t>& sides,
                                   int* shift,
                                   std::vector<OperandValues>* parts) {
  // One part per morsel of 2^shift slots, so workers never share an output
  // and a slot finds its part by a shift.
  const size_t slots = rows.size();
  const size_t per_part = std::min<size_t>(
      size_t{1} << 31, opts_.morsel_size != 0
                           ? std::bit_floor(opts_.morsel_size)
                           : std::bit_ceil(std::max<size_t>(1, slots)));
  *shift = std::countr_zero(per_part);
  parts->resize((slots + per_part - 1) / per_part);
  return ForRows(
      parts->size(), true,
      [&](size_t m) {
        OperandValues& part = (*parts)[m];
        const size_t first = m * per_part;
        const size_t end = std::min(slots, first + per_part);
        part.begin.reserve(end - first + 1);
        part.values.reserve(end - first);
        std::string scratch;
        for (size_t s = first; s < end; ++s) {
          EvalCtx c;
          c.b = &b;
          c.row = rows[s];
          c.env = &env;
          MCT_ASSIGN_OR_RETURN(std::vector<Item> items,
                               EvalExpr(c, *exprs[sides[s]]));
          for (const Item& it : items) {
            MCT_RETURN_IF_ERROR(part.Append(
                it.is_node ? it.node : kInvalidNodeId, AtomText(it, &scratch)));
          }
          part.begin.push_back(static_cast<uint32_t>(part.values.size()));
        }
        if (exec_.governor != nullptr) {
          return exec_.governor->Charge(part.bytes());
        }
        return Status::OK();
      },
      /*morsel_override=*/1);
}

// ---------------------------------------------------------------------------
// Scalar / constructor evaluation
// ---------------------------------------------------------------------------

Item Evaluator::ColumnItem(const Bindings& b, size_t row, int col) const {
  const ColumnInfo& info = b.cols[static_cast<size_t>(col)];
  NodeId n = b.table.At(row, col);
  if (!info.atomic) return Item::OfNode(n);
  if (!info.attr.empty()) {
    const std::string* v = db_->FindAttr(n, info.attr);
    return Item::OfAtomic(v != nullptr ? *v : "");
  }
  return Item::OfAtomic(db_->Content(n));
}

std::string Evaluator::Atomize(const Item& item) const {
  if (!item.is_node) return item.atomic;
  // Atomize a node: its own content when present, else its string value in
  // its first color.
  if (db_->store().HasContent(item.node)) return db_->Content(item.node);
  ColorSet colors = db_->Colors(item.node);
  if (colors.empty()) return "";
  return db_->StringValue(item.node, colors.ToVector().front()).value_or("");
}

std::string_view Evaluator::AtomText(const Item& item,
                                     std::string* scratch) const {
  if (!item.is_node) return item.atomic;
  if (db_->store().HasContent(item.node)) return db_->Content(item.node);
  *scratch = Atomize(item);
  return *scratch;
}

Result<std::vector<Item>> Evaluator::EvalRelPath(NodeId ctx,
                                                 ColorId default_color,
                                                 const PathExpr& p,
                                                 const EvalCtx& outer) {
  std::vector<NodeId> cur{ctx};
  ColorId color = default_color;
  for (size_t si = 0; si < p.steps.size(); ++si) {
    const PathStep& step = p.steps[si];
    MCT_ASSIGN_OR_RETURN(color, [&]() -> Result<ColorId> {
      if (step.color.empty()) return color;
      return ResolveColor(step.color);
    }());
    // Same hard guarantee as EvalSteps: navigation into a read-invisible
    // color yields nothing (this is the per-node path predicates and
    // update selectors run through).
    if (exec_.mask != nullptr && !exec_.mask->CanRead(color)) {
      cur.clear();
      break;
    }
    std::vector<NodeId> next;
    // Start offset of each context node's results in `next` (positional
    // predicates are per context, XPath semantics).
    std::vector<size_t> group_start;
    auto mark = [&]() { group_start.push_back(next.size()); };
    switch (step.axis) {
      case Axis::kChild:
        for (NodeId n : cur) {
          mark();
          if (!db_->Colors(n).Has(color)) continue;
          db_->tree(color)->ForEachChild(n, [&](NodeId k) {
            if (db_->Kind(k) == xml::NodeKind::kElement &&
                (step.tag.empty() || db_->Tag(k) == step.tag)) {
              next.push_back(k);
            }
          });
        }
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        for (NodeId n : cur) {
          mark();
          if (!db_->tree(color)->Contains(n)) continue;
          for (NodeId d : db_->tree(color)->PreOrder(n)) {
            if (d == n && step.axis == Axis::kDescendant) continue;
            if (db_->Kind(d) == xml::NodeKind::kElement &&
                (step.tag.empty() || db_->Tag(d) == step.tag)) {
              next.push_back(d);
            }
          }
        }
        break;
      case Axis::kParent:
        for (NodeId n : cur) {
          mark();
          auto par = db_->Parent(n, color);
          if (par.has_value() && db_->Kind(*par) == xml::NodeKind::kElement &&
              (step.tag.empty() || db_->Tag(*par) == step.tag)) {
            next.push_back(*par);
          }
        }
        break;
      case Axis::kAncestor:
        for (NodeId n : cur) {
          mark();
          const ColoredTree* t = db_->tree(color);
          for (NodeId a = t->Parent(n); a != kInvalidNodeId;
               a = t->Parent(a)) {
            if (db_->Kind(a) == xml::NodeKind::kElement &&
                (step.tag.empty() || db_->Tag(a) == step.tag)) {
              next.push_back(a);
            }
          }
        }
        break;
      case Axis::kSelf:
        for (NodeId n : cur) {
          mark();
          if (step.tag.empty() || db_->Tag(n) == step.tag) next.push_back(n);
        }
        break;
      case Axis::kAttribute: {
        // Final step: produce atomic items.
        std::vector<Item> items;
        for (NodeId n : cur) {
          const std::string* v = db_->FindAttr(n, step.tag);
          if (v != nullptr) items.push_back(Item::OfAtomic(*v));
        }
        if (si + 1 != p.steps.size()) {
          return Status::NotSupported("attribute step must be final");
        }
        return items;
      }
    }
    // Step predicates. Positional [N] keeps the N-th candidate *per
    // context node* (XPath semantics), using the group offsets recorded
    // above; value predicates filter within groups so later positional
    // predicates see re-indexed groups.
    group_start.push_back(next.size());
    for (const auto& pred : step.predicates) {
      std::vector<NodeId> kept;
      std::vector<size_t> kept_starts;
      for (size_t g = 0; g + 1 < group_start.size(); ++g) {
        kept_starts.push_back(kept.size());
        size_t lo = group_start[g], hi = group_start[g + 1];
        if (pred->kind == Expr::Kind::kNumber) {
          int64_t want = static_cast<int64_t>(pred->num);
          if (want >= 1 && lo + static_cast<size_t>(want) - 1 < hi) {
            kept.push_back(next[lo + static_cast<size_t>(want) - 1]);
          }
        } else {
          for (size_t i = lo; i < hi; ++i) {
            EvalCtx pc = outer;
            pc.ctx_node = next[i];
            pc.ctx_color = color;
            MCT_ASSIGN_OR_RETURN(bool keep, EvalBool(pc, *pred));
            if (keep) kept.push_back(next[i]);
          }
        }
      }
      kept_starts.push_back(kept.size());
      next = std::move(kept);
      group_start = std::move(kept_starts);
    }
    cur = std::move(next);
    if (cur.empty()) break;
  }
  std::vector<Item> out;
  out.reserve(cur.size());
  for (NodeId n : cur) out.push_back(Item::OfNode(n));
  return out;
}

Result<std::vector<Item>> Evaluator::EvalExpr(const EvalCtx& c,
                                              const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kString:
    case Expr::Kind::kText:
      return std::vector<Item>{Item::OfAtomic(e.str)};
    case Expr::Kind::kNumber:
      return std::vector<Item>{Item::OfAtomic(FormatNumber(e.num))};
    case Expr::Kind::kVarRef: {
      if (c.b != nullptr) {
        int col = c.b->table.ColumnOf(e.str);
        if (col >= 0) {
          return std::vector<Item>{ColumnItem(*c.b, c.row, col)};
        }
      }
      if (c.env != nullptr && c.env->contains(e.str)) {
        return std::vector<Item>{c.env->at(e.str)};
      }
      return Status::InvalidArgument("unbound variable " + e.str);
    }
    case Expr::Kind::kPath: {
      const PathExpr& p = e.path;
      NodeId start;
      ColorId start_color;
      if (!p.start_var.empty()) {
        Item base;
        // Single column lookup (hot per-row path — no repeated scans).
        const int col =
            c.b != nullptr ? c.b->table.ColumnOf(p.start_var) : -1;
        if (col >= 0) {
          base = ColumnItem(*c.b, c.row, col);
          start_color = c.b->cols[static_cast<size_t>(col)].color;
        } else if (c.env != nullptr && c.env->contains(p.start_var)) {
          base = c.env->at(p.start_var);
          start_color = opts_.default_color;
        } else {
          return Status::InvalidArgument("unbound variable " + p.start_var);
        }
        if (!base.is_node) {
          return Status::InvalidArgument("path from atomic value");
        }
        start = base.node;
      } else if (p.from_document) {
        start = db_->document();
        start_color = opts_.default_color;
      } else {
        // Relative path: needs a context node (predicate evaluation).
        if (c.ctx_node == kInvalidNodeId) {
          return Status::InvalidArgument("relative path without context");
        }
        start = c.ctx_node;
        start_color = c.ctx_color;
      }
      return EvalRelPath(start, start_color, p, c);
    }
    case Expr::Kind::kCompare:
    case Expr::Kind::kContains:
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      MCT_ASSIGN_OR_RETURN(bool v, EvalBool(c, e));
      return std::vector<Item>{Item::OfAtomic(v ? "true" : "false")};
    }
    case Expr::Kind::kDistinctValues: {
      MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, *e.children[0]));
      std::unordered_set<std::string> seen;
      std::vector<Item> out;
      for (const Item& it : items) {
        std::string v = Atomize(it);
        if (seen.insert(v).second) out.push_back(Item::OfAtomic(v));
      }
      if (opts_.stats != nullptr) ++opts_.stats->dup_elims;
      return out;
    }
    case Expr::Kind::kCount: {
      MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, *e.children[0]));
      return std::vector<Item>{
          Item::OfAtomic(std::to_string(items.size()))};
    }
    case Expr::Kind::kFLWOR: {
      // Correlated nested FLWOR: current row variables become the outer
      // environment.
      Env child_env = c.env != nullptr ? *c.env : Env{};
      if (c.b != nullptr) {
        for (size_t i = 0; i < c.b->table.vars.size(); ++i) {
          child_env[c.b->table.vars[i]] =
              ColumnItem(*c.b, c.row, static_cast<int>(i));
        }
      }
      // A nested FLWOR runs once per outer row; recording every per-row
      // subplan would bloat the trace by the outer cardinality, so its
      // physical operators record into the discard sink instead.
      TracePause pause(exec_.trace);
      return EvalFLWOR(e, child_env);
    }
    case Expr::Kind::kSequence: {
      std::vector<Item> out;
      for (const auto& ch : e.children) {
        MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, *ch));
        out.insert(out.end(), items.begin(), items.end());
      }
      return out;
    }
    case Expr::Kind::kElement: {
      // Constructor: fresh identity; enclosed expressions keep identity and
      // become pending children.
      MCT_ASSIGN_OR_RETURN(NodeId node, db_->CreateFreeElement(e.tag));
      for (const auto& attr : e.attrs) {
        MCT_RETURN_IF_ERROR(db_->SetAttr(node, attr.name, attr.value));
      }
      std::string text;
      std::vector<NodeId>& kids = pending_children_[node];
      for (const auto& ch : e.children) {
        MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, *ch));
        for (const Item& it : items) {
          if (it.is_node) {
            kids.push_back(it.node);
          } else {
            if (!text.empty()) text += " ";
            text += it.atomic;
          }
        }
      }
      if (!text.empty()) MCT_RETURN_IF_ERROR(db_->SetContent(node, text));
      return std::vector<Item>{Item::OfNode(node)};
    }
    case Expr::Kind::kCreateColor: {
      // Write gate: a masked session may only mint or extend colors inside
      // its write set (checked before RegisterColor can grow the palette).
      if (exec_.mask != nullptr) {
        ColorId existing = db_->LookupColor(e.str);
        if (existing == kInvalidColorId || !exec_.mask->CanWrite(existing)) {
          return Status::PermissionDenied("createColor targets color '" +
                                          e.str +
                                          "' outside the session write set");
        }
      }
      MCT_ASSIGN_OR_RETURN(ColorId color, [&]() -> Result<ColorId> {
        ColorId existing = db_->LookupColor(e.str);
        if (existing != kInvalidColorId) return existing;
        return db_->RegisterColor(e.str);
      }());
      MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, *e.children[0]));
      ForgetSchema();
      for (const Item& it : items) {
        if (!it.is_node) continue;
        MCT_RETURN_IF_ERROR(AttachPending(it.node, color, db_->document()));
      }
      return items;
    }
    case Expr::Kind::kCreateCopy: {
      MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, *e.children[0]));
      std::vector<Item> out;
      for (const Item& it : items) {
        if (!it.is_node) {
          out.push_back(it);
          continue;
        }
        MCT_ASSIGN_OR_RETURN(NodeId copy, DeepCopy(it.node));
        out.push_back(Item::OfNode(copy));
      }
      return out;
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> Evaluator::EvalBool(const EvalCtx& c, const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kAnd: {
      MCT_ASSIGN_OR_RETURN(bool a, EvalBool(c, *e.children[0]));
      if (!a) return false;
      return EvalBool(c, *e.children[1]);
    }
    case Expr::Kind::kOr: {
      MCT_ASSIGN_OR_RETURN(bool a, EvalBool(c, *e.children[0]));
      if (a) return true;
      return EvalBool(c, *e.children[1]);
    }
    case Expr::Kind::kCompare: {
      MCT_ASSIGN_OR_RETURN(auto lhs, EvalExpr(c, *e.children[0]));
      MCT_ASSIGN_OR_RETURN(auto rhs, EvalExpr(c, *e.children[1]));
      // Existential comparison: some pair matches. Each item is atomized
      // and parsed at most once, when a pair first compares it by value (a
      // node's string value lands in its unused `atomic`).
      std::vector<std::optional<Atom>> atoms(lhs.size() + rhs.size());
      auto atom = [&](Item& item, size_t k) -> const Atom& {
        if (!atoms[k].has_value()) {
          atoms[k] = ParseAtom(AtomText(item, &item.atomic));
        }
        return *atoms[k];
      };
      auto node = [](const Item& item) {
        return item.is_node ? item.node : kInvalidNodeId;
      };
      for (size_t i = 0; i < lhs.size(); ++i) {
        for (size_t j = 0; j < rhs.size(); ++j) {
          if (ComparePair(
                  e.cmp, node(lhs[i]), node(rhs[j]),
                  [&]() -> const Atom& { return atom(lhs[i], i); },
                  [&]() -> const Atom& {
                    return atom(rhs[j], lhs.size() + j);
                  })) {
            return true;
          }
        }
      }
      return false;
    }
    case Expr::Kind::kContains: {
      MCT_ASSIGN_OR_RETURN(auto lhs, EvalExpr(c, *e.children[0]));
      MCT_ASSIGN_OR_RETURN(auto rhs, EvalExpr(c, *e.children[1]));
      for (const Item& l : lhs) {
        for (const Item& r : rhs) {
          if (Contains(Atomize(l), Atomize(r))) return true;
        }
      }
      return false;
    }
    default: {
      MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, e));
      if (items.empty()) return false;
      if (items.size() == 1 && !items[0].is_node) {
        const std::string& v = items[0].atomic;
        return !v.empty() && v != "false";
      }
      return true;  // non-empty node sequence
    }
  }
}

Result<NodeId> Evaluator::DeepCopy(NodeId n) {
  // Pre-order with an explicit stack, since a database may nest deeper than
  // the call stack allows: each copy is allocated, given its payload and
  // appended to its parent copy's pending children before the next node is
  // taken. Structure comes from a constructed node's pending children,
  // otherwise from the subtree in the node's first color.
  struct Todo {
    NodeId source;
    NodeId parent_copy;  // kInvalidNodeId for `n` itself
  };
  std::vector<Todo> todo{{n, kInvalidNodeId}};
  NodeId root_copy = kInvalidNodeId;
  while (!todo.empty()) {
    const Todo t = todo.back();
    todo.pop_back();
    MCT_ASSIGN_OR_RETURN(NodeId copy,
                         db_->CreateFreeElement(db_->Tag(t.source)));
    for (const NodeAttr& a : db_->Attrs(t.source)) {
      MCT_RETURN_IF_ERROR(
          db_->SetAttr(copy, db_->store().names().Name(a.name), a.value));
    }
    if (db_->store().HasContent(t.source)) {
      MCT_RETURN_IF_ERROR(db_->SetContent(copy, db_->Content(t.source)));
    }
    if (t.parent_copy == kInvalidNodeId) {
      root_copy = copy;
    } else {
      pending_children_[t.parent_copy].push_back(copy);
    }
    const size_t first = todo.size();
    auto pit = pending_children_.find(t.source);
    if (pit != pending_children_.end()) {
      for (NodeId ch : pit->second) todo.push_back({ch, copy});
    } else {
      ColorSet colors = db_->Colors(t.source);
      if (!colors.empty()) {
        const ColorId c0 = static_cast<ColorId>(__builtin_ctzll(colors.mask()));
        db_->tree(c0)->ForEachChild(t.source, [&](NodeId ch) {
          if (db_->Kind(ch) == xml::NodeKind::kElement) {
            todo.push_back({ch, copy});
          }
        });
      }
    }
    std::reverse(todo.begin() + static_cast<ptrdiff_t>(first), todo.end());
  }
  return root_copy;
}

Status Evaluator::AttachPending(NodeId node, ColorId color, NodeId parent) {
  // Pre-order with an explicit stack: a node is attached, then its pending
  // children (which may have pending children of their own), each list
  // detached from pending_children_ as its owner is attached.
  struct Todo {
    NodeId node;
    NodeId parent;
  };
  std::vector<Todo> todo{{node, parent}};
  while (!todo.empty()) {
    const Todo t = todo.back();
    todo.pop_back();
    Status s = db_->AddNodeColor(t.node, color, t.parent);
    if (s.IsAlreadyExists()) {
      // Section 4.2: a node may occur at most once in any colored tree.
      return Status::DynamicError(
          "node occurs more than once in colored tree '" +
          db_->ColorName(color) + "' — use createCopy to duplicate content");
    }
    MCT_RETURN_IF_ERROR(s);
    auto it = pending_children_.find(t.node);
    if (it == pending_children_.end()) continue;
    std::vector<NodeId> kids = std::move(it->second);
    pending_children_.erase(it);
    for (auto k = kids.rbegin(); k != kids.rend(); ++k) {
      todo.push_back({*k, t.node});
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

Result<QueryResult> Evaluator::RunUpdate(const ParsedQuery& q) {
  Env env;
  MCT_ASSIGN_OR_RETURN(Bindings b,
                       EvalFLWORBindings(q.bindings, q.where.get(), env));
  int target = b.table.ColumnOf(q.target_var);
  if (target < 0) {
    return Status::InvalidArgument("update target " + q.target_var +
                                   " is not bound");
  }
  ColorId target_color = b.cols[static_cast<size_t>(target)].color;

  // Deduplicate target nodes (a node may be bound by several rows).
  std::vector<NodeId> targets;
  std::unordered_set<NodeId> seen;
  for (size_t i = 0; i < b.table.num_rows(); ++i) {
    NodeId n = b.table.At(i, target);
    if (seen.insert(n).second) targets.push_back(n);
  }

  // Last governed no-side-effects point: every read (binding evaluation,
  // target dedup) is done and no mutation has been applied yet. A statement
  // cancelled or expired by here returns with the database untouched and
  // nothing in the WAL. No further checks are inserted below — aborting
  // between mutations and the WAL append would leave applied changes
  // unlogged. (A trip inside a nested action expression follows the
  // engine's existing mid-update error semantics; serve sessions get
  // whole-statement atomicity from their trial clones, DESIGN.md §14.)
  if (exec_.governor != nullptr) {
    MCT_RETURN_IF_ERROR(exec_.governor->Check());
  }

  // Write-visibility gate (DESIGN.md §16): resolve every action's color up
  // front and refuse before the first mutation, so a kWarn session that was
  // admitted past the analyzer still cannot touch a write-invisible color —
  // the database stays untouched and nothing reaches the WAL.
  if (exec_.mask != nullptr) {
    for (const UpdateAction& action : q.actions) {
      ColorId color = target_color;
      if (!action.color.empty()) {
        MCT_ASSIGN_OR_RETURN(color, ResolveColor(action.color));
      }
      if (!exec_.mask->CanWrite(color)) {
        return Status::PermissionDenied("update targets write-invisible "
                                        "color '" +
                                        db_->ColorName(color) + "'");
      }
    }
  }

  QueryResult result;
  ColorSet touched;
  for (NodeId t : targets) {
    for (const UpdateAction& action : q.actions) {
      ColorId color = target_color;
      if (!action.color.empty()) {
        MCT_ASSIGN_OR_RETURN(color, ResolveColor(action.color));
      }
      switch (action.kind) {
        case UpdateAction::Kind::kInsert: {
          EvalCtx c;
          c.env = &env;
          c.ctx_node = t;
          c.ctx_color = color;
          MCT_ASSIGN_OR_RETURN(auto items, EvalExpr(c, *action.constructor));
          for (const Item& it : items) {
            if (!it.is_node) continue;
            MCT_RETURN_IF_ERROR(AttachPending(it.node, color, t));
            ++result.updated_count;
          }
          touched.Add(color);
          break;
        }
        case UpdateAction::Kind::kDelete: {
          std::vector<NodeId> victims;
          if (action.selector.steps.empty()) {
            victims.push_back(t);
          } else {
            EvalCtx c;
            c.env = &env;
            MCT_ASSIGN_OR_RETURN(auto items,
                                 EvalRelPath(t, color, action.selector, c));
            for (const Item& it : items) {
              if (it.is_node) victims.push_back(it.node);
            }
          }
          for (NodeId v : victims) {
            Status s = db_->RemoveNodeColor(v, color);
            if (s.ok()) {
              ++result.updated_count;
            } else if (!s.IsNotFound()) {
              return s;
            }
          }
          touched.Add(color);
          break;
        }
        case UpdateAction::Kind::kReplace: {
          EvalCtx c;
          c.env = &env;
          MCT_ASSIGN_OR_RETURN(auto items,
                               EvalRelPath(t, color, action.selector, c));
          for (const Item& it : items) {
            if (!it.is_node) continue;
            MCT_RETURN_IF_ERROR(db_->SetContent(it.node, action.new_value));
            ++result.updated_count;
          }
          break;
        }
      }
    }
  }
  // Fold any relabeling cost into the update, as a real engine would.
  touched.ForEach([&](ColorId c) { db_->tree(c)->EnsureLabels(); });
  // Durability: one logical redo record per effectful statement. The
  // canonical text (Print/Parse round-trips structurally, and evaluation is
  // deterministic) replayed against the covering checkpoint reproduces this
  // exact mutation, so statement granularity is the finest level at which
  // node identities stay stable across a snapshot reload.
  if (opts_.wal != nullptr && result.updated_count > 0) {
    std::string payload;
    uint32_t dc = opts_.default_color;
    payload.append(reinterpret_cast<const char*>(&dc), sizeof(dc));
    payload += Print(q);
    MCT_RETURN_IF_ERROR(
        opts_.wal->Append(WalRecordType::kUpdateStatement, payload).status());
    if (opts_.wal_sync_each) MCT_RETURN_IF_ERROR(opts_.wal->Sync());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Result serialization
// ---------------------------------------------------------------------------

void Evaluator::AppendXml(NodeId n, ColorId color, std::string* out) {
  // Pre-order with an explicit stack, since a database may nest deeper than
  // the call stack allows: an element's end tag is written when the walk
  // pops the marker pushed beneath its children.
  const ColoredTree* tree =
      color < db_->num_colors() ? db_->tree(color) : nullptr;
  struct Todo {
    NodeId node;
    bool end_tag;
  };
  std::vector<Todo> todo{{n, false}};
  while (!todo.empty()) {
    const Todo t = todo.back();
    todo.pop_back();
    const std::string& tag = db_->Tag(t.node);
    if (t.end_tag) {
      out->append("</").append(tag).push_back('>');
      continue;
    }
    out->push_back('<');
    out->append(tag);
    for (const NodeAttr& a : db_->Attrs(t.node)) {
      out->push_back(' ');
      out->append(db_->store().names().Name(a.name));
      out->append("=\"");
      xml::EscapeAttr(a.value, out);
      out->push_back('"');
    }
    todo.push_back({t.node, true});
    const size_t first = todo.size();
    bool has_children = false;
    if (tree != nullptr) {
      tree->ForEachChild(t.node, [&](NodeId ch) {
        has_children = true;
        if (db_->Kind(ch) == xml::NodeKind::kElement) {
          todo.push_back({ch, false});
        }
      });
    }
    const bool has_content = db_->store().HasContent(t.node);
    if (!has_children && !has_content) {
      todo.pop_back();
      out->append("/>");
      continue;
    }
    out->push_back('>');
    if (has_content) xml::EscapeText(db_->Content(t.node), out);
    std::reverse(todo.begin() + static_cast<ptrdiff_t>(first), todo.end());
  }
}

std::string Evaluator::ToXml(const QueryResult& r, ColorId color) {
  // Serialization walks the subtree in `color`; a read-invisible render
  // color would leak the structural context of a masked hierarchy, so node
  // items are dropped entirely (atomic items carry no structure and pass).
  const bool color_blocked =
      exec_.mask != nullptr && !exec_.mask->CanRead(color);
  std::string out;
  for (const Item& it : r.items) {
    if (it.is_node) {
      if (color_blocked) continue;
      AppendXml(it.node, color, &out);
    } else {
      xml::EscapeText(it.atomic, &out);
    }
    out.push_back('\n');
  }
  return out;
}

// ---------------------------------------------------------------------------
// Specification complexity (Figures 11 / 12)
// ---------------------------------------------------------------------------

namespace {

void CountExpr(const Expr& e, QueryComplexity* out);

void CountPath(const PathExpr& p, QueryComplexity* out) {
  ++out->num_path_exprs;
  for (const auto& step : p.steps) {
    for (const auto& pred : step.predicates) CountExpr(*pred, out);
  }
}

void CountExpr(const Expr& e, QueryComplexity* out) {
  if (e.kind == Expr::Kind::kPath) {
    CountPath(e.path, out);
  }
  if (e.kind == Expr::Kind::kFLWOR) {
    out->num_variable_bindings += static_cast<int>(e.bindings.size());
    for (const auto& b : e.bindings) CountExpr(*b.expr, out);
    if (e.where) CountExpr(*e.where, out);
    if (e.order_by) CountExpr(*e.order_by, out);
    if (e.ret) CountExpr(*e.ret, out);
    return;
  }
  for (const auto& c : e.children) CountExpr(*c, out);
  if (e.where) CountExpr(*e.where, out);
  if (e.ret) CountExpr(*e.ret, out);
}

}  // namespace

QueryComplexity AnalyzeComplexity(const ParsedQuery& q) {
  QueryComplexity out;
  if (q.root) CountExpr(*q.root, &out);
  out.num_variable_bindings += static_cast<int>(q.bindings.size());
  for (const auto& b : q.bindings) CountExpr(*b.expr, &out);
  if (q.where) CountExpr(*q.where, &out);
  for (const auto& a : q.actions) {
    if (a.constructor) CountExpr(*a.constructor, &out);
    if (!a.selector.steps.empty()) CountPath(a.selector, &out);
  }
  return out;
}

}  // namespace mct::mcx
