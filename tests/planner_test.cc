// Cost-based planner tests.
//
// The load-bearing property is the determinism contract: for every catalog
// statement, in every dialect, serial and parallel, the planned execution
// must be *identical* (same items, same order, same node identities) to the
// fixed baseline pipeline. On top of that: plan-cache hit/skeleton/
// invalidation behavior, statement normalization, plan selection on
// synthetic statistics, EXPLAIN PLAN surfacing, and the satellite coverage
// (ForEachChild order, zero-copy key extraction).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mcx/evaluator.h"
#include "mcx/parser.h"
#include "mcx/printer.h"
#include "query/ops.h"
#include "query/planner.h"
#include "query/trace.h"
#include "movie_fixture.h"
#include "random_mct.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace mct::workload {
namespace {

constexpr int kThreadCounts[] = {1, 8};

Result<mcx::QueryResult> RunWith(MctDatabase* db, ColorId default_color,
                                 const std::string& text, bool planner,
                                 int threads,
                                 query::PlanCache* cache = nullptr,
                                 query::QueryTrace* trace = nullptr,
                                 query::ExecStats* stats = nullptr) {
  mcx::EvalOptions o;
  o.default_color = default_color;
  o.num_threads = threads;
  o.planner = planner;
  o.plan_cache = cache;
  o.trace = trace;
  o.stats = stats;
  mcx::Evaluator ev(db, o);
  return ev.Run(text);
}

// Exact result identity: size, order, node identity, atomic values.
void ExpectIdenticalItems(const mcx::QueryResult& base,
                          const mcx::QueryResult& planned,
                          const std::string& label) {
  ASSERT_EQ(base.items.size(), planned.items.size()) << label;
  for (size_t i = 0; i < base.items.size(); ++i) {
    EXPECT_EQ(base.items[i].is_node, planned.items[i].is_node)
        << label << " item " << i;
    EXPECT_EQ(base.items[i].node, planned.items[i].node)
        << label << " item " << i;
    EXPECT_EQ(base.items[i].atomic, planned.items[i].atomic)
        << label << " item " << i;
  }
}

struct Dialect {
  const char* name;
  const std::string* text;
  MctDatabase* db;
  ColorId color;
};

template <typename DbT>
std::vector<Dialect> DialectsOf(const CatalogQuery& q, DbT* mct_db,
                                DbT* shallow_db, DbT* deep_db) {
  std::vector<Dialect> out;
  out.push_back({"mct", &q.mct, mct_db->db.get(), mct_db->default_color()});
  out.push_back({"shallow", &q.shallow, shallow_db->db.get(),
                 shallow_db->default_color()});
  out.push_back({"deep", &q.deep, deep_db->db.get(), deep_db->default_color()});
  if (!q.deep_nodup.empty()) {
    out.push_back({"deep_nodup", &q.deep_nodup, deep_db->db.get(),
                   deep_db->default_color()});
  }
  return out;
}

// ---- Mirrored comparisons: the evaluator answers a step predicate
// ---- [path op literal] over one child or attribute step on a fast
// ---- comparison path; the mirrored form [literal op' path] takes neither
// ---- that path nor the index probe, so the interpreter answers it. Both
// ---- must select the same rows.

// Converse of a comparison: `a op b` holds iff `b Converse(op) a`.
mcx::CmpOp Converse(mcx::CmpOp op) {
  switch (op) {
    case mcx::CmpOp::kLt: return mcx::CmpOp::kGt;
    case mcx::CmpOp::kLe: return mcx::CmpOp::kGe;
    case mcx::CmpOp::kGt: return mcx::CmpOp::kLt;
    case mcx::CmpOp::kGe: return mcx::CmpOp::kLe;
    default: return op;  // = and != are symmetric
  }
}

int MirrorComparisons(mcx::Expr* e);

// Rewrites every step predicate [path op literal] of `p`, and of the
// expressions nested in its predicates, into [literal op' path]. Returns
// the number of predicates rewritten.
int MirrorComparisons(mcx::PathExpr* p) {
  int n = 0;
  for (mcx::PathStep& step : p->steps) {
    for (mcx::ExprPtr& pred : step.predicates) {
      if (pred->kind == mcx::Expr::Kind::kCompare &&
          pred->children[0]->kind == mcx::Expr::Kind::kPath &&
          (pred->children[1]->kind == mcx::Expr::Kind::kString ||
           pred->children[1]->kind == mcx::Expr::Kind::kNumber)) {
        std::swap(pred->children[0], pred->children[1]);
        pred->cmp = Converse(pred->cmp);
        ++n;
      }
      n += MirrorComparisons(pred.get());
    }
  }
  return n;
}

int MirrorComparisons(mcx::Expr* e) {
  if (e == nullptr) return 0;
  int n = MirrorComparisons(&e->path);
  for (mcx::ExprPtr& c : e->children) n += MirrorComparisons(c.get());
  for (mcx::Binding& b : e->bindings) n += MirrorComparisons(b.expr.get());
  n += MirrorComparisons(e->where.get());
  n += MirrorComparisons(e->order_by.get());
  n += MirrorComparisons(e->ret.get());
  return n;
}

// Runs every read statement with a mirrorable predicate, in every dialect,
// planner off and on, serial and 8 threads, next to its mirrored print.
// Returns the number of (statement, dialect) pairs that had one.
template <typename DbT>
int MirroredCatalogDifferential(const std::vector<CatalogQuery>& queries,
                                DbT* mct_db, DbT* shallow_db, DbT* deep_db) {
  int pairs = 0;
  for (const CatalogQuery& q : queries) {
    if (q.is_update) continue;
    for (const Dialect& d : DialectsOf(q, mct_db, shallow_db, deep_db)) {
      if (d.text->empty()) continue;
      auto parsed = mcx::Parse(*d.text);
      EXPECT_TRUE(parsed.ok()) << q.id << "/" << d.name;
      if (!parsed.ok() || MirrorComparisons(parsed->root.get()) == 0) {
        continue;
      }
      ++pairs;
      const std::string mirrored = mcx::Print(*parsed);
      for (int threads : kThreadCounts) {
        for (bool planner : {false, true}) {
          std::string label = q.id + "/" + d.name + "/t" +
                              std::to_string(threads) +
                              (planner ? "/planned" : "/base");
          auto orig = RunWith(d.db, d.color, *d.text, planner, threads);
          auto mirr = RunWith(d.db, d.color, mirrored, planner, threads);
          EXPECT_TRUE(orig.ok()) << label << ": " << orig.status();
          EXPECT_TRUE(mirr.ok()) << label << ": " << mirr.status() << "\n"
                                 << mirrored;
          if (orig.ok() && mirr.ok()) {
            ExpectIdenticalItems(*orig, *mirr, label + "\n" + mirrored);
          }
        }
      }
    }
  }
  return pairs;
}

// ---- Residual comparisons: a where-clause comparison that filters the
// ---- binding table (rather than joining two bindings) is answered from
// ---- operand columns when each operand reads at most one column; the
// ---- same comparison written (A) or (A) is not a comparison, so the
// ---- per-row loop answers it. Both must select the same rows.

void CollectVarsOf(const mcx::Expr& e, std::vector<std::string>* out) {
  if (e.kind == mcx::Expr::Kind::kVarRef) {
    out->push_back(e.str);
    return;
  }
  if (e.kind == mcx::Expr::Kind::kPath) {
    if (!e.path.start_var.empty()) out->push_back(e.path.start_var);
    for (const mcx::PathStep& step : e.path.steps) {
      for (const mcx::ExprPtr& pred : step.predicates) {
        CollectVarsOf(*pred, out);
      }
    }
    return;
  }
  for (const mcx::ExprPtr& c : e.children) CollectVarsOf(*c, out);
  if (e.where != nullptr) CollectVarsOf(*e.where, out);
  if (e.ret != nullptr) CollectVarsOf(*e.ret, out);
}

// The one variable `e` reads, or "" when it reads none or several.
std::string SoleVarOf(const mcx::Expr& e) {
  std::vector<std::string> vars;
  CollectVarsOf(e, &vars);
  for (const std::string& v : vars) {
    if (v != vars[0]) return "";
  }
  return vars.empty() ? "" : vars[0];
}

void FlattenAnd(mcx::ExprPtr* e, std::vector<mcx::ExprPtr*>* out) {
  if ((*e)->kind == mcx::Expr::Kind::kAnd) {
    FlattenAnd(&(*e)->children[0], out);
    FlattenAnd(&(*e)->children[1], out);
  } else {
    out->push_back(e);
  }
}

// The conjuncts the evaluator takes as join conditions: when a binding
// over a fresh, uncorrelated path meets earlier bindings, the first unused
// comparison or contains() connecting it to one of them.
std::set<size_t> JoinConjuncts(const mcx::Expr& flwor,
                               const std::vector<mcx::ExprPtr*>& conjuncts) {
  std::set<std::string> bound;
  std::set<size_t> used;
  for (const mcx::Binding& b : flwor.bindings) {
    const mcx::Expr* pe = b.expr.get();
    if (pe->kind == mcx::Expr::Kind::kDistinctValues) {
      pe = pe->children[0].get();
    }
    bool joins = pe->kind == mcx::Expr::Kind::kPath &&
                 pe->path.start_var.empty() && !bound.empty() &&
                 !bound.contains(b.var);
    if (joins) {
      std::vector<std::string> pred_vars;
      for (const mcx::PathStep& step : pe->path.steps) {
        for (const mcx::ExprPtr& pred : step.predicates) {
          CollectVarsOf(*pred, &pred_vars);
        }
      }
      for (const std::string& v : pred_vars) {
        if (bound.contains(v)) joins = false;  // correlated path
      }
    }
    for (size_t i = 0; joins && i < conjuncts.size(); ++i) {
      const mcx::Expr& c = **conjuncts[i];
      if (used.contains(i) || (c.kind != mcx::Expr::Kind::kCompare &&
                               c.kind != mcx::Expr::Kind::kContains)) {
        continue;
      }
      const std::string lv = SoleVarOf(*c.children[0]);
      const std::string rv = SoleVarOf(*c.children[1]);
      if ((lv == b.var && bound.contains(rv)) ||
          (rv == b.var && bound.contains(lv))) {
        used.insert(i);
        break;
      }
    }
    bound.insert(b.var);
  }
  return used;
}

int DoubleResidualComparisons(mcx::Expr* e);

// Rewrites every residual comparison A of every FLWOR's where clause in `e`
// into (A) or (A). Returns the number rewritten.
int DoubleResidualComparisons(mcx::Expr* e) {
  if (e == nullptr) return 0;
  int n = 0;
  if (e->kind == mcx::Expr::Kind::kFLWOR && e->where != nullptr) {
    std::vector<mcx::ExprPtr*> conjuncts;
    FlattenAnd(&e->where, &conjuncts);
    const std::set<size_t> joins = JoinConjuncts(*e, conjuncts);
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      mcx::ExprPtr& c = *conjuncts[i];
      if (joins.contains(i) || c->kind != mcx::Expr::Kind::kCompare) continue;
      // The copy is the comparison's printed form, parsed back.
      auto copy = mcx::Parse("for $z in document(\"d\")/child::z where " +
                             mcx::Print(*c) + " return $z");
      EXPECT_TRUE(copy.ok()) << copy.status();
      if (!copy.ok()) continue;
      auto either = std::make_unique<mcx::Expr>(mcx::Expr::Kind::kOr);
      either->children.push_back(std::move(c));
      either->children.push_back(std::move(copy->root->where));
      c = std::move(either);
      ++n;
    }
  }
  for (mcx::ExprPtr& c : e->children) n += DoubleResidualComparisons(c.get());
  for (mcx::Binding& b : e->bindings) {
    n += DoubleResidualComparisons(b.expr.get());
  }
  n += DoubleResidualComparisons(e->order_by.get());
  n += DoubleResidualComparisons(e->ret.get());
  return n;
}

// Runs `text` and its doubled print, planner off and on, serial and 8
// threads, and requires identical items. Returns false when `text` has no
// residual comparison.
bool ResidualMatchesRowLoop(MctDatabase* db, ColorId color,
                            const std::string& text,
                            const std::string& label) {
  auto parsed = mcx::Parse(text);
  EXPECT_TRUE(parsed.ok()) << label << ": " << parsed.status();
  if (!parsed.ok() || DoubleResidualComparisons(parsed->root.get()) == 0) {
    return false;
  }
  const std::string doubled = mcx::Print(*parsed);
  for (int threads : kThreadCounts) {
    for (bool planner : {false, true}) {
      const std::string l = label + "/t" + std::to_string(threads) +
                            (planner ? "/planned" : "/base");
      auto orig = RunWith(db, color, text, planner, threads);
      auto rows = RunWith(db, color, doubled, planner, threads);
      EXPECT_TRUE(orig.ok()) << l << ": " << orig.status();
      EXPECT_TRUE(rows.ok()) << l << ": " << rows.status() << "\n" << doubled;
      if (orig.ok() && rows.ok()) {
        ExpectIdenticalItems(*orig, *rows, l + "\n" + doubled);
      }
    }
  }
  return true;
}

// Every read statement with a residual comparison, in every dialect.
// Returns the "id/dialect" labels that had one.
template <typename DbT>
std::set<std::string> ResidualCatalogDifferential(
    const std::vector<CatalogQuery>& queries, DbT* mct_db, DbT* shallow_db,
    DbT* deep_db) {
  std::set<std::string> covered;
  for (const CatalogQuery& q : queries) {
    if (q.is_update) continue;
    for (const Dialect& d : DialectsOf(q, mct_db, shallow_db, deep_db)) {
      if (d.text->empty()) continue;
      const std::string label = q.id + "/" + d.name;
      if (ResidualMatchesRowLoop(d.db, d.color, *d.text, label)) {
        covered.insert(label);
      }
    }
  }
  return covered;
}

// ---- Differential suite: every catalog read statement, planner on vs
// ---- forced baseline, serial and 8 threads.

class TpcwPlannerDifferential : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new TpcwData(GenerateTpcw(TpcwScale::Tiny()));
    mct_ = new TpcwDb(std::move(BuildTpcw(*data_, SchemaKind::kMct)).value());
    shallow_ =
        new TpcwDb(std::move(BuildTpcw(*data_, SchemaKind::kShallow)).value());
    deep_ = new TpcwDb(std::move(BuildTpcw(*data_, SchemaKind::kDeep)).value());
  }
  static void TearDownTestSuite() {
    delete mct_;
    delete shallow_;
    delete deep_;
    delete data_;
    mct_ = shallow_ = deep_ = nullptr;
    data_ = nullptr;
  }
  static TpcwData* data_;
  static TpcwDb* mct_;
  static TpcwDb* shallow_;
  static TpcwDb* deep_;
};

TpcwData* TpcwPlannerDifferential::data_ = nullptr;
TpcwDb* TpcwPlannerDifferential::mct_ = nullptr;
TpcwDb* TpcwPlannerDifferential::shallow_ = nullptr;
TpcwDb* TpcwPlannerDifferential::deep_ = nullptr;

TEST_F(TpcwPlannerDifferential, AllReadStatementsMatchBaseline) {
  for (const CatalogQuery& q : TpcwCatalog(*data_)) {
    if (q.is_update) continue;
    for (const Dialect& d : DialectsOf(q, mct_, shallow_, deep_)) {
      for (int threads : kThreadCounts) {
        std::string label = q.id + "/" + d.name + "/t" +
                            std::to_string(threads);
        auto base = RunWith(d.db, d.color, *d.text, /*planner=*/false,
                            threads);
        auto planned = RunWith(d.db, d.color, *d.text, /*planner=*/true,
                               threads);
        ASSERT_TRUE(base.ok()) << label << ": " << base.status();
        ASSERT_TRUE(planned.ok()) << label << ": " << planned.status();
        ExpectIdenticalItems(*base, *planned, label);
      }
    }
  }
}

TEST_F(TpcwPlannerDifferential, MirroredComparisonsMatch) {
  EXPECT_GT(MirroredCatalogDifferential(TpcwCatalog(*data_), mct_, shallow_,
                                        deep_),
            0);
}

TEST_F(TpcwPlannerDifferential, ResidualComparisonsMatchRowLoop) {
  const std::set<std::string> covered =
      ResidualCatalogDifferential(TpcwCatalog(*data_), mct_, shallow_, deep_);
  // TQ15's inequality is a residual in MCT and deep; in shallow it is the
  // nested-loop join and the @customerIdRef equality is the residual.
  for (const char* label : {"TQ15/mct", "TQ15/shallow", "TQ15/deep"}) {
    EXPECT_TRUE(covered.contains(label)) << label;
  }
}

// A step predicate that reads a color outside the session mask selects
// nothing, on every evaluator path: index probe, seek pushdown, both arms
// of the vectorized comparison, and the interpreter (the mirrored forms).
TEST_F(TpcwPlannerDifferential, MaskedPredicateColorSelectsNothing) {
  MctDatabase* db = mct_->db.get();
  const ColorId date = db->LookupColor("date");
  // Literals drawn from the data, so that each predicate selects rows
  // without the mask.
  auto first_item = [&](const std::string& text) {
    auto r = RunWith(db, mct_->default_color(), text, false, 1);
    EXPECT_TRUE(r.ok() && !r->items.empty()) << text;
    if (!r.ok() || r->items.empty()) return std::string();
    const mcx::Item& it = r->items[0];
    return it.is_node ? db->Content(it.node) : it.atomic;
  };
  const std::string order_id = first_item(
      "for $o in document(\"tpcw.xml\")/{cust}descendant::order "
      "return $o/@id");
  const std::string total = first_item(
      "for $t in document(\"tpcw.xml\")/{cust}descendant::total return $t");
  const std::string from =
      "for $o in document(\"tpcw.xml\")/{date}descendant::";
  struct Pair {
    std::string pred, mirrored;
  };
  const std::vector<Pair> pairs = {
      {"order[{cust}child::total > 500]", "order[500 < {cust}child::total]"},
      {"order[{cust}child::status = \"pending\"]",
       "order[\"pending\" = {cust}child::status]"},
      // One context row: the per-row arm of the vectorized comparison.
      {"order[1][{cust}child::total > 0]", "order[1][0 < {cust}child::total]"},
      {"order[{cust}@id != \"\"]", "order[\"\" != {cust}@id]"},
      {"order[{cust}@id = \"" + order_id + "\"]",
       "order[\"" + order_id + "\" = {cust}@id]"},
      {"total[{cust}self::node() = \"" + total + "\"]",
       "total[\"" + total + "\" = {cust}self::node()]"},
  };
  for (const Pair& p : pairs) {
    for (bool planner : {false, true}) {
      for (const std::string* pred : {&p.pred, &p.mirrored}) {
        const std::string text = from + *pred + " return $o";
        const std::string label =
            text + (planner ? " (planned)" : " (base)");
        mcx::EvalOptions o;
        o.default_color = mct_->default_color();
        o.planner = planner;
        auto open = mcx::Evaluator(db, o).Run(text);
        ASSERT_TRUE(open.ok()) << label << ": " << open.status();
        EXPECT_FALSE(open->items.empty()) << label;
        o.mask = ColorMask::AllowOnly(ColorSet::Of(date));
        o.mask_enforcement = mcx::AnalyzeMode::kWarn;
        auto masked = mcx::Evaluator(db, o).Run(text);
        ASSERT_TRUE(masked.ok()) << label << ": " << masked.status();
        EXPECT_TRUE(masked->items.empty())
            << label << ": " << masked->items.size() << " rows";
      }
    }
  }
}

TEST_F(TpcwPlannerDifferential, CachedRunsMatchBaseline) {
  query::PlanCache cache;
  for (const CatalogQuery& q : TpcwCatalog(*data_)) {
    if (q.is_update) continue;
    std::string label = q.id + "/mct/cached";
    auto base =
        RunWith(mct_->db.get(), mct_->default_color(), q.mct, false, 1);
    ASSERT_TRUE(base.ok()) << label << ": " << base.status();
    // Twice through the cache: the second run replays the cached
    // parse + plan and must still be identical.
    for (int round = 0; round < 2; ++round) {
      auto planned = RunWith(mct_->db.get(), mct_->default_color(), q.mct,
                             true, 1, &cache);
      ASSERT_TRUE(planned.ok()) << label << ": " << planned.status();
      ExpectIdenticalItems(*base, *planned, label);
    }
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

class SigmodPlannerDifferential : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SigmodData(GenerateSigmod(SigmodScale::Tiny()));
    mct_ =
        new SigmodDb(std::move(BuildSigmod(*data_, SchemaKind::kMct)).value());
    shallow_ = new SigmodDb(
        std::move(BuildSigmod(*data_, SchemaKind::kShallow)).value());
    deep_ =
        new SigmodDb(std::move(BuildSigmod(*data_, SchemaKind::kDeep)).value());
  }
  static void TearDownTestSuite() {
    delete mct_;
    delete shallow_;
    delete deep_;
    delete data_;
    mct_ = shallow_ = deep_ = nullptr;
    data_ = nullptr;
  }
  static SigmodData* data_;
  static SigmodDb* mct_;
  static SigmodDb* shallow_;
  static SigmodDb* deep_;
};

SigmodData* SigmodPlannerDifferential::data_ = nullptr;
SigmodDb* SigmodPlannerDifferential::mct_ = nullptr;
SigmodDb* SigmodPlannerDifferential::shallow_ = nullptr;
SigmodDb* SigmodPlannerDifferential::deep_ = nullptr;

TEST_F(SigmodPlannerDifferential, AllReadStatementsMatchBaseline) {
  for (const CatalogQuery& q : SigmodCatalog(*data_)) {
    if (q.is_update) continue;
    for (const Dialect& d : DialectsOf(q, mct_, shallow_, deep_)) {
      for (int threads : kThreadCounts) {
        std::string label = q.id + "/" + d.name + "/t" +
                            std::to_string(threads);
        auto base = RunWith(d.db, d.color, *d.text, false, threads);
        auto planned = RunWith(d.db, d.color, *d.text, true, threads);
        ASSERT_TRUE(base.ok()) << label << ": " << base.status();
        ASSERT_TRUE(planned.ok()) << label << ": " << planned.status();
        ExpectIdenticalItems(*base, *planned, label);
      }
    }
  }
}

TEST_F(SigmodPlannerDifferential, MirroredComparisonsMatch) {
  EXPECT_GT(MirroredCatalogDifferential(SigmodCatalog(*data_), mct_,
                                        shallow_, deep_),
            0);
}

// Seeded random MCT databases (the property_mct_test generator, with
// contents redrawn from a pool of equal, numeric, non-numeric and empty
// values): residual comparisons over zero, one and several items, string
// and numeric values, attributes, node identity, both operands on one
// column, a variable-free operand, and two columns of different colors
// reached by identical steps, each against its (A) or (A) form.
TEST(ResidualPropertyTest, OperandColumnsMatchRowLoopOnRandomDatabases) {
  const char* kValues[] = {"0", "1", "2", "2.0", "10", "-3", "9", "1a",
                           "abc", "v1", "", "nan"};
  const std::string red = "for $x in document(\"d\")/{red}descendant::";
  const std::string green = "for $x in document(\"d\")/{green}descendant::";
  const std::string blue = "for $x in document(\"d\")/{blue}descendant::";
  const std::vector<std::string> statements = {
      // Literal against a child sequence; strings, numbers, empty.
      red + "a where $x/{red}child::b > 1 return $x",
      red + "item where \"abc\" <= $x/{red}child::c return $x",
      green + "b where $x/{green}child::name = 2 return $x",
      // Both operands on one column; the second shares its dictionary.
      red + "c where $x/{red}child::a < $x/{red}child::b return $x",
      green + "a where $x/{green}child::c != $x/{green}child::c return $x",
      // Attributes, and counts.
      blue + "item where $x/@k0 >= $x/@k1 return $x",
      red + "name where count($x/{red}child::node()) >= 2 return $x",
      // Two columns of one color; equal steps share a dictionary.
      red + "a, $a in $x/{red}child::node(), $b in $x/{red}child::node() "
            "where $a/{red}child::name > $b/{red}child::name return $a",
      green + "b, $a in $x/{green}child::node(), "
              "$b in $x/{green}child::node() "
              "where $a/{green}child::item = $b/{green}child::a return $b",
      // The same nodes in two colors, read by identical steps: the two
      // columns must not share a dictionary.
      red + "item, $y in $x/{red}self::node()/{green}self::node() "
            "where $x/child::c = $y/child::c return $x",
      red + "a, $y in $x/{red}self::node()/{green}self::node() "
            "where $x/child::node() != $y/child::node() return $x",
      red + "b, $y in $x/{red}self::node()/{green}self::node() "
            "where $x/child::a < $y/child::a return $y",
      // Node identity against a variable-free operand, and bare variables.
      red + "c where $x/{red}child::a = "
            "document(\"d\")/{green}descendant::a return $x",
      red + "name, $y in $x/{red}child::node()/{blue}parent::node() "
            "where $x != $y return $y",
  };
  int compared = 0;
  for (uint64_t seed : {5u, 17u, 23u, 41u}) {
    Rng rng(seed);
    testfix::Model m;
    for (const char* name : testfix::kColors) {
      auto c = m.db->RegisterColor(name);
      ASSERT_TRUE(c.ok());
      m.colors.push_back(*c);
    }
    for (int i = 0; i < 600; ++i) testfix::Mutate(m, rng);
    m.Prune();
    for (NodeId n : m.nodes) {
      if (rng.Bernoulli(0.8)) {
        ASSERT_TRUE(
            m.db->SetContent(n, kValues[rng.Uniform(std::size(kValues))])
                .ok());
      }
    }
    for (const std::string& text : statements) {
      const std::string label = "seed " + std::to_string(seed) + ": " + text;
      EXPECT_TRUE(ResidualMatchesRowLoop(m.db.get(), m.colors[0], text, label))
          << label;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 4 * static_cast<int>(statements.size()));
}

// ---- Sharded differential: every read statement, every dialect, shard
// ---- counts {1, 4}, threads {1, 8}, planner on/off — results AND
// ---- ExecStats must equal the unsharded oracle's (DESIGN.md §17: shard
// ---- fan-out reorders work but never what is counted or answered).

template <typename DbT>
void ShardedCatalogDifferential(const std::vector<CatalogQuery>& queries,
                                DbT* mct_db, DbT* shallow_db, DbT* deep_db) {
  // One detached clone per (base db, shard count): COW snapshot with its
  // own shard count; the base stays unsharded as the oracle.
  std::map<std::pair<MctDatabase*, int>, std::unique_ptr<MctDatabase>> clones;
  auto sharded = [&](MctDatabase* base, int shards) -> MctDatabase* {
    auto key = std::make_pair(base, shards);
    auto it = clones.find(key);
    if (it == clones.end()) {
      std::unique_ptr<MctDatabase> c = base->CowClone();
      c->SetShardCount(shards);
      it = clones.emplace(key, std::move(c)).first;
    }
    return it->second.get();
  };
  for (const CatalogQuery& q : queries) {
    if (q.is_update) continue;
    for (const Dialect& d : DialectsOf(q, mct_db, shallow_db, deep_db)) {
      for (int shards : {1, 4}) {
        MctDatabase* sdb = sharded(d.db, shards);
        for (int threads : kThreadCounts) {
          for (bool planner : {false, true}) {
            std::string label = q.id + "/" + d.name + "/shard" +
                                std::to_string(shards) + "/t" +
                                std::to_string(threads) +
                                (planner ? "/planned" : "/base");
            query::ExecStats oracle_stats, shard_stats;
            auto oracle = RunWith(d.db, d.color, *d.text, planner, threads,
                                  nullptr, nullptr, &oracle_stats);
            auto got = RunWith(sdb, d.color, *d.text, planner, threads,
                               nullptr, nullptr, &shard_stats);
            ASSERT_TRUE(oracle.ok()) << label << ": " << oracle.status();
            ASSERT_TRUE(got.ok()) << label << ": " << got.status();
            ExpectIdenticalItems(*oracle, *got, label);
            EXPECT_EQ(oracle_stats, shard_stats)
                << label << ": ExecStats diverged under sharding";
          }
        }
      }
    }
  }
}

TEST_F(TpcwPlannerDifferential, ShardedRunsMatchUnshardedOracle) {
  ShardedCatalogDifferential(TpcwCatalog(*data_), mct_, shallow_, deep_);
}

TEST_F(SigmodPlannerDifferential, ShardedRunsMatchUnshardedOracle) {
  ShardedCatalogDifferential(SigmodCatalog(*data_), mct_, shallow_, deep_);
}

// ---- Update statements: planned effect == baseline effect, checked on
// ---- twin freshly built databases.

template <typename DataT, typename DbT, typename BuildFn, typename CatFn>
void UpdateDifferential(const DataT& data, BuildFn build, CatFn catalog) {
  auto queries = catalog(data);
  for (const CatalogQuery& q : queries) {
    if (!q.is_update) continue;
    struct DialectSel {
      const char* name;
      const std::string* text;
      SchemaKind kind;
    };
    std::vector<DialectSel> dialects = {
        {"mct", &q.mct, SchemaKind::kMct},
        {"shallow", &q.shallow, SchemaKind::kShallow},
        {"deep", &q.deep, SchemaKind::kDeep},
    };
    for (const DialectSel& d : dialects) {
      if (d.text->empty()) continue;
      for (int threads : kThreadCounts) {
        std::string label =
            q.id + std::string("/") + d.name + "/t" + std::to_string(threads);
        DbT base_db = std::move(build(data, d.kind)).value();
        DbT plan_db = std::move(build(data, d.kind)).value();
        auto base = RunWith(base_db.db.get(), base_db.default_color(),
                            *d.text, false, threads);
        auto planned = RunWith(plan_db.db.get(), plan_db.default_color(),
                               *d.text, true, threads);
        ASSERT_TRUE(base.ok()) << label << ": " << base.status();
        ASSERT_TRUE(planned.ok()) << label << ": " << planned.status();
        EXPECT_EQ(base->updated_count, planned->updated_count) << label;
        DatabaseStats bs = base_db.db->Stats();
        DatabaseStats ps = plan_db.db->Stats();
        EXPECT_EQ(bs.num_elements, ps.num_elements) << label;
        EXPECT_EQ(bs.num_struct_nodes, ps.num_struct_nodes) << label;
        // Post-update reads agree (baseline pipeline on both databases).
        int compared = 0;
        for (const CatalogQuery& rq : queries) {
          if (rq.is_update || !rq.comparable || compared >= 3) continue;
          const std::string& text = d.kind == SchemaKind::kMct ? rq.mct
                                    : d.kind == SchemaKind::kShallow
                                        ? rq.shallow
                                        : rq.deep;
          if (text.empty()) continue;
          auto br = RunWith(base_db.db.get(), base_db.default_color(), text,
                            false, 1);
          auto pr = RunWith(plan_db.db.get(), plan_db.default_color(), text,
                            false, 1);
          ASSERT_TRUE(br.ok()) << label << "/" << rq.id << ": " << br.status();
          ASSERT_TRUE(pr.ok()) << label << "/" << rq.id << ": " << pr.status();
          ASSERT_EQ(br->items.size(), pr->items.size())
              << label << "/" << rq.id;
          ++compared;
        }
      }
    }
  }
}

TEST(TpcwPlannerUpdates, PlannedEffectsMatchBaseline) {
  TpcwData data = GenerateTpcw(TpcwScale::Tiny());
  UpdateDifferential<TpcwData, TpcwDb>(
      data, [](const TpcwData& d, SchemaKind k) { return BuildTpcw(d, k); },
      [](const TpcwData& d) { return TpcwCatalog(d); });
}

TEST(SigmodPlannerUpdates, PlannedEffectsMatchBaseline) {
  SigmodData data = GenerateSigmod(SigmodScale::Tiny());
  UpdateDifferential<SigmodData, SigmodDb>(
      data, [](const SigmodData& d, SchemaKind k) { return BuildSigmod(d, k); },
      [](const SigmodData& d) { return SigmodCatalog(d); });
}

// ---- Plan cache behavior.

TEST(PlanCacheTest, ExactHitSkipsParseAndPlan) {
  testfix::MovieDb m = testfix::BuildMovieDb();
  query::PlanCache cache;
  const std::string q =
      "for $m in document(\"d\")/{red}descendant::movie return $m";
  auto r1 = RunWith(m.db.get(), m.red, q, true, 1, &cache);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // One exact entry plus one skeleton entry.
  EXPECT_EQ(cache.size(), 2u);
  auto r2 = RunWith(m.db.get(), m.red, q, true, 1, &cache);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  ExpectIdenticalItems(*r1, *r2, "cache-hit");
}

TEST(PlanCacheTest, SkeletonHitReusesPlanAcrossLiterals) {
  testfix::MovieDb m = testfix::BuildMovieDb();
  query::PlanCache cache;
  const std::string q1 =
      "for $m in document(\"d\")/{red}descendant::movie[{red}child::name = \"All About Eve\"] "
      "return $m";
  const std::string q2 =
      "for $m in document(\"d\")/{red}descendant::movie[{red}child::name = \"City Lights\"] "
      "return $m";
  ASSERT_EQ(query::NormalizeStatement(q1), query::NormalizeStatement(q2));
  auto r1 = RunWith(m.db.get(), m.red, q1, true, 1, &cache);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(cache.stats().skeleton_hits, 0u);
  auto r2 = RunWith(m.db.get(), m.red, q2, true, 1, &cache);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(cache.stats().skeleton_hits, 1u);
  // Different literals, different results — the plan skeleton is shared,
  // the candidate sets are rebuilt from the live literal at runtime.
  ASSERT_EQ(r1->items.size(), 1u);
  ASSERT_EQ(r2->items.size(), 1u);
  EXPECT_EQ(r1->items[0].node, m.movie_eve);
  EXPECT_EQ(r2->items[0].node, m.movie_lights);
}

TEST(PlanCacheTest, UpdateInvalidatesCache) {
  TpcwData data = GenerateTpcw(TpcwScale::Tiny());
  TpcwDb db = std::move(BuildTpcw(data, SchemaKind::kMct)).value();
  auto queries = TpcwCatalog(data);
  const CatalogQuery* read = nullptr;
  const CatalogQuery* update = nullptr;
  for (const CatalogQuery& q : queries) {
    if (q.is_update && update == nullptr) update = &q;
    if (!q.is_update && read == nullptr) read = &q;
  }
  ASSERT_NE(read, nullptr);
  ASSERT_NE(update, nullptr);
  query::PlanCache cache;
  auto r = RunWith(db.db.get(), db.default_color(), read->mct, true, 1,
                   &cache);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GE(cache.size(), 1u);
  auto u = RunWith(db.db.get(), db.default_color(), update->mct, true, 1,
                   &cache);
  ASSERT_TRUE(u.ok()) << u.status();
  ASSERT_GT(u->updated_count, 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GE(cache.stats().invalidations, 1u);
  // Re-running the read re-plans against post-update statistics.
  auto r2 = RunWith(db.db.get(), db.default_color(), read->mct, true, 1,
                    &cache);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_GE(cache.size(), 1u);
}

// ---- Statement normalization (cache skeleton keying).

TEST(NormalizeStatementTest, ParameterizesLiterals) {
  EXPECT_EQ(query::NormalizeStatement("a[b = \"xyz\"]"), "a[b = \"?\"]");
  EXPECT_EQ(query::NormalizeStatement("a[2]"), "a[?]");
  EXPECT_EQ(query::NormalizeStatement("a[b = 3.14]"), "a[b = ?]");
  // Identifier-embedded digits are not literals.
  EXPECT_EQ(query::NormalizeStatement("$v2/b1"), "$v2/b1");
  // Different literals normalize to the same skeleton.
  EXPECT_EQ(query::NormalizeStatement("x[y = \"a\"][1]"),
            query::NormalizeStatement("x[y = \"bbb\"][7]"));
  // Different structure does not.
  EXPECT_NE(query::NormalizeStatement("x[y = \"a\"]"),
            query::NormalizeStatement("x[z = \"a\"]"));
}

// ---- Plan selection on synthetic statistics (cost model unit tests).

class FakeStats : public query::StatsProvider {
 public:
  FakeStats(double tag_count, double color_size)
      : tag_count_(tag_count), color_size_(color_size) {}
  double TagCount(ColorId, const std::string&) const override {
    return tag_count_;
  }
  double ColorSize(ColorId) const override { return color_size_; }

 private:
  double tag_count_;
  double color_size_;
};

TEST(PlanStatementTest, SelectiveSeekBeatsFullScan) {
  query::BindingDesc b;
  b.doc_context = true;
  b.single_row = true;
  query::StepDesc s;
  s.axis = query::PlanAxis::kDescendant;
  s.tag = "item";
  query::PredDesc p;
  p.seek = query::PredDesc::Seek::kAttr;
  p.est_matches = 3;
  s.preds.push_back(p);
  b.steps.push_back(s);
  FakeStats stats(/*tag_count=*/10000, /*color_size=*/50000);
  query::StatementPlan plan = query::PlanStatement({b}, stats);
  ASSERT_EQ(plan.bindings.size(), 1u);
  ASSERT_EQ(plan.bindings[0].steps.size(), 1u);
  EXPECT_EQ(plan.bindings[0].steps[0].access, query::StepAccess::kIndexSeek);
  EXPECT_EQ(plan.bindings[0].steps[0].seek_pred, 0);
  EXPECT_LT(plan.cost_chosen, plan.cost_baseline);
  EXPECT_NE(plan.Describe().find("index-seek"), std::string::npos);
}

TEST(PlanStatementTest, SelectiveTwigChoosesPathStackSpine) {
  query::BindingDesc b;
  b.doc_context = true;
  b.single_row = true;
  query::StepDesc s1;
  s1.axis = query::PlanAxis::kDescendant;
  s1.tag = "bulk";
  s1.flow_out = 50000;
  query::StepDesc s2;
  s2.axis = query::PlanAxis::kDescendant;
  s2.tag = "rare";
  s2.flow_out = 100;
  b.steps = {s1, s2};
  // TagCount is the same for both tags here; the spine wins because it
  // never materializes the 50000-row intermediate.
  FakeStats stats(/*tag_count=*/50000, /*color_size=*/200000);
  query::StatementPlan plan = query::PlanStatement({b}, stats);
  ASSERT_EQ(plan.bindings.size(), 1u);
  EXPECT_TRUE(plan.bindings[0].use_path_stack);
  EXPECT_LT(plan.cost_chosen, plan.cost_baseline);
  EXPECT_NE(plan.Describe().find("path-stack spine"), std::string::npos);
}

TEST(PlanStatementTest, PositionalPredicatePinsOrderAndBlocksSeek) {
  query::BindingDesc b;
  b.doc_context = true;
  b.single_row = true;
  query::StepDesc s;
  s.axis = query::PlanAxis::kDescendant;
  s.tag = "item";
  query::PredDesc pos;
  pos.positional = true;
  query::PredDesc seekable;
  seekable.seek = query::PredDesc::Seek::kAttr;
  seekable.est_matches = 1;
  s.preds = {pos, seekable};
  b.steps.push_back(s);
  FakeStats stats(10000, 50000);
  query::StatementPlan plan = query::PlanStatement({b}, stats);
  ASSERT_EQ(plan.bindings[0].steps.size(), 1u);
  EXPECT_NE(plan.bindings[0].steps[0].access, query::StepAccess::kIndexSeek);
  EXPECT_TRUE(plan.bindings[0].steps[0].pred_order.empty());
}

// ---- End-to-end spine execution on a crafted selective twig.

TEST(PlannerSpineTest, SpineExecutionMatchesBaseline) {
  auto db = std::make_unique<MctDatabase>();
  ColorId red = std::move(db->RegisterColor("red")).value();
  NodeId root = db->document();
  // 200 bulk nodes; only 5 carry a rare descendant — the shape where the
  // holistic path-stack join beats materializing the intermediate step.
  for (int i = 0; i < 200; ++i) {
    NodeId a = testfix::MustCreate(*db, red, root, "a");
    if (i % 40 == 0) {
      NodeId mid = testfix::MustCreate(*db, red, a, "mid");
      testfix::MustCreate(*db, red, mid, "b", "v" + std::to_string(i));
    }
  }
  const std::string q =
      "for $b in document(\"d\")/{red}descendant::a/{red}descendant::b return $b";
  query::QueryTrace trace;
  auto planned = RunWith(db.get(), red, q, true, 1, nullptr, &trace);
  auto base = RunWith(db.get(), red, q, false, 1);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_EQ(base->items.size(), 5u);
  ExpectIdenticalItems(*base, *planned, "spine");
  const std::string text = trace.ToText();
  EXPECT_NE(text.find("SPINE ORDER RESTORE"), std::string::npos) << text;
}

// ---- EXPLAIN PLAN surfacing.

TEST(ExplainPlanTest, NotesAndTraceCarryEstimates) {
  testfix::MovieDb m = testfix::BuildMovieDb();
  query::QueryTrace trace;
  const std::string q =
      "for $m in document(\"d\")/{red}descendant::movie[{red}child::name = \"All About Eve\"] "
      "return $m";
  auto r = RunWith(m.db.get(), m.red, q, true, 1, nullptr, &trace);
  ASSERT_TRUE(r.ok()) << r.status();
  std::string text = trace.ToText();
  // The PLAN leaf carries the baseline and chosen costs.
  EXPECT_NE(text.find("PLAN"), std::string::npos) << text;
  EXPECT_NE(text.find("baseline ->"), std::string::npos) << text;
  // Estimated-vs-actual: the planned step carries an est~ annotation.
  EXPECT_NE(text.find("est~"), std::string::npos) << text;
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"est_rows\""), std::string::npos);
}

TEST(ExplainPlanTest, PlanForDescribesEveryBinding) {
  testfix::MovieDb m = testfix::BuildMovieDb();
  mcx::EvalOptions o;
  o.default_color = m.red;
  mcx::Evaluator ev(m.db.get(), o);
  auto parsed = mcx::Parse(
      "for $g in document(\"d\")/{red}descendant::genre "
      "for $mv in $g/{red}descendant::movie return $mv");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  query::StatementPlan plan = ev.PlanFor(*parsed);
  EXPECT_EQ(plan.bindings.size(), 2u);
  std::string d = plan.Describe();
  EXPECT_NE(d.find("binding 0"), std::string::npos) << d;
  EXPECT_NE(d.find("binding 1"), std::string::npos) << d;
}

// ---- Satellite: ForEachChild visits what Children lists, in order.

TEST(ForEachChildTest, VisitsChildrenInOrder) {
  testfix::MovieDb m = testfix::BuildMovieDb();
  const ColoredTree* t = m.db->tree(m.red);
  for (NodeId parent : {m.genre_comedy, m.actor_davis}) {
    std::vector<NodeId> seen;
    t->ForEachChild(parent, [&](NodeId n) { seen.push_back(n); });
    EXPECT_EQ(seen, t->Children(parent));
  }
  EXPECT_FALSE(t->Children(m.genre_comedy).empty());
}

// ---- Satellite: zero-copy key extraction agrees with the owning path.

TEST(ExtractKeyViewTest, ViewMatchesOwningExtraction) {
  testfix::MovieDb m = testfix::BuildMovieDb();
  ASSERT_TRUE(m.db->SetAttr(m.movie_eve, "year", "1950").ok());
  const MctDatabase& db = *m.db;

  query::KeySpec own = query::KeySpec::OwnContent();
  query::KeySpec child = query::KeySpec::ChildContent(m.red, "name");
  query::KeySpec attr = query::KeySpec::Attr("year");
  query::KeySpec sval = query::KeySpec::StringValue(m.red);

  EXPECT_TRUE(query::KeySpecViewable(own));
  EXPECT_TRUE(query::KeySpecViewable(child));
  EXPECT_TRUE(query::KeySpecViewable(attr));
  EXPECT_FALSE(query::KeySpecViewable(sval));

  for (const query::KeySpec& spec : {own, child, attr}) {
    for (NodeId n : {m.movie_eve, m.movie_lights, m.genre_comedy,
                     m.actor_davis, m.role_margo}) {
      auto owned = query::ExtractKey(db, n, spec);
      auto view = query::ExtractKeyView(db, n, spec);
      ASSERT_EQ(owned.has_value(), view.has_value());
      if (owned.has_value()) {
        EXPECT_EQ(std::string_view(*owned), *view);
      }
    }
  }
}

}  // namespace
}  // namespace mct::workload
