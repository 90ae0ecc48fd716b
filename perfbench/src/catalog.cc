// Workload `catalog`: an embedded analyst session over the paper's Table 2
// statements.
//
// One client thread, closed loop, num_threads 1, planner on with one shared
// PlanCache (the server's configuration). Each pass runs every statement —
// TQ1-TQ16 on TPC-W, SQ1-SQ5 on SIGMOD-Record, and two benchmark-owned
// reads for paths the catalog never reaches (BQ1: numeric `order by`;
// BQ2: a `return` element constructor) — in a seeded shuffled order, each
// through a fresh Evaluator and followed by ToXml of its result. Each pass
// also runs one first-run op (fresh Evaluator, empty PlanCache), rotating
// through the statements, at a seeded position in the pass. Warm ops are
// the Table 2 path, where the mcx evaluator and query operators do nearly
// all the work; first-run ops add parse, schema inference and planning.
// The workload never touches serve, MVCC, the WAL or ingest.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine.h"
#include "mcx/color_flow.h"
#include "mcx/parser.h"
#include "serialize/schema.h"
#include "workload/catalog.h"
#include "workload/sigmodr_db.h"

namespace perfbench {
namespace {

using namespace mct;

constexpr int kSetups = 3;
constexpr int kRefsPerPass = 2;

struct Statement {
  std::string id;
  std::string text;
  MctDatabase* db = nullptr;
  ColorId color = 0;
  std::string oracle;  // planner-off ToXml on the same database
};

struct CatalogEnv {
  BuiltTpcw tpcw;
  workload::SigmodDb sigmod;
  query::PlanCache cache;
  std::vector<Statement> stmts;
};

/// BQ1 and BQ2 are the benchmark's own; the rest are the paper's Table 2.
bool IsOwn(const Statement& s) { return s.id.rfind("BQ", 0) == 0; }

/// Benchmark-owned statements, with literals drawn from the data so each
/// selects a few hundred rows at any seed.
void AddOwnStatements(CatalogEnv* env) {
  const workload::TpcwData& d = env->tpcw.data;
  std::vector<double> totals;
  for (const workload::TpcwOrder& o : d.orders) totals.push_back(o.total);
  std::sort(totals.begin(), totals.end());
  std::vector<std::string> since;
  for (const workload::TpcwCustomer& c : d.customers) since.push_back(c.since);
  std::sort(since.begin(), since.end());
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "for $o in document(\"tpcw.xml\")/{cust}descendant::order"
                "[{cust}child::total > %.2f] order by $o/{cust}child::total "
                "descending return $o/@id",
                totals[totals.size() * 95 / 100]);
  MctDatabase* db = env->tpcw.db.db.get();
  ColorId color = env->tpcw.db.default_color();
  env->stmts.push_back({"BQ1", buf, db, color, ""});
  std::snprintf(buf, sizeof(buf),
                "for $c in document(\"tpcw.xml\")/{cust}descendant::customer"
                "[{cust}child::since > \"%s\"] return <who> { "
                "$c/{cust}child::uname } </who>",
                since[since.size() * 88 / 100].c_str());
  env->stmts.push_back({"BQ2", buf, db, color, ""});
}

/// Generate, build, label, and warm every statement once through one
/// evaluator per database, which fills the shared plan cache.
std::unique_ptr<CatalogEnv> SetUp() {
  auto env = std::make_unique<CatalogEnv>();
  env->tpcw = BuildTpcwTimed(kTpcwScale);
  const workload::SigmodScale ss = workload::SigmodScale::Default();
  workload::SigmodData sdata;
  TimedSpan("workload.GenerateSigmod",
            [&] { sdata = workload::GenerateSigmod(ss); });
  TimedSpan("mct.BuildSigmod", [&] {
    auto built = workload::BuildSigmod(sdata, workload::SchemaKind::kMct);
    if (!built.ok()) Die("BuildSigmod: " + built.status().ToString());
    env->sigmod = std::move(*built);
  });
  TimedSpan("mct.EnsureLabels", [&] { LabelAll(env->sigmod.db.get()); });

  for (const workload::CatalogQuery& q : workload::TpcwCatalog(env->tpcw.data)) {
    if (q.is_update || q.mct.empty()) continue;
    env->stmts.push_back({q.id, q.mct, env->tpcw.db.db.get(),
                          env->tpcw.db.default_color(), ""});
  }
  for (const workload::CatalogQuery& q : workload::SigmodCatalog(sdata)) {
    if (q.is_update || q.mct.empty()) continue;
    env->stmts.push_back({q.id, q.mct, env->sigmod.db.get(),
                          env->sigmod.default_color(), ""});
  }
  AddOwnStatements(env.get());
  if (env->stmts.size() != CatalogStatementIds().size()) {
    Die("catalog statement set changed; update CatalogStatementIds()");
  }

  std::map<MctDatabase*, std::unique_ptr<mcx::Evaluator>> warmers;
  for (const Statement& s : env->stmts) {
    auto& ev = warmers[s.db];
    if (ev == nullptr) {
      mcx::EvalOptions o;
      o.default_color = s.color;
      o.planner = true;
      o.plan_cache = &env->cache;
      ev = std::make_unique<mcx::Evaluator>(s.db, o);
    }
    PB_SPAN(span, "mcx.Evaluator::Run[warmup]");
    auto r = ev->Run(s.text);
    if (!r.ok()) Die(s.id + " warm-up: " + r.status().ToString());
  }
  return env;
}

/// What one catalog op returned and how long its parts took.
struct OpResult {
  bool ok = false;
  std::string xml;  // ToXml of the result, or the failure status
  size_t items = 0;
  double ms = 0;       // the whole op
  double exec_ms = 0;  // Evaluator construction + Run
  double xml_ms = 0;   // ToXml
};

/// One catalog op: fresh Evaluator, Run, ToXml.
OpResult TimedOp(const Statement& s, query::PlanCache* cache,
                 query::ExecStats* stats) {
  OpResult out;
  Clock::time_point t0 = Clock::now();
  mcx::EvalOptions o;
  o.default_color = s.color;
  o.planner = true;
  o.plan_cache = cache;
  o.stats = stats;
  mcx::Evaluator ev(s.db, o);
  auto r = [&] {
    PB_SPAN(span, "mcx.Evaluator::Run");
    return ev.Run(s.text);
  }();
  Clock::time_point t1 = Clock::now();
  out.ok = r.ok();
  if (r.ok()) {
    PB_SPAN(span, "mcx.Evaluator::ToXml");
    out.xml = ev.ToXml(*r, s.color);
    out.items = r->items.size();
  } else {
    out.xml = r.status().ToString();
  }
  Clock::time_point t2 = Clock::now();
  out.exec_ms = MsBetween(t0, t1);
  out.xml_ms = MsBetween(t1, t2);
  out.ms = MsBetween(t0, t2);
  return out;
}

double MeanOfMedians(const std::map<std::string, std::vector<double>>& m) {
  if (m.empty()) return 0;
  double sum = 0;
  for (const auto& [k, v] : m) sum += Median(v);
  return sum / static_cast<double>(m.size());
}

}  // namespace

int RunCatalog(const Args& args, Report* report) {
  // ---- Set-up, several times; the median is setup_s. ----
  HostRef ref;
  OpLog setups;
  std::unique_ptr<CatalogEnv> env;
  for (int k = 0; k < kSetups; ++k) {
    env.reset();  // free the previous set-up before building the next
    TimedSetUp(&ref, &setups, [&] { env = SetUp(); });
  }
  const size_t n = env->stmts.size();

  // ---- Planner-off oracle for every statement (outside timed regions). ----
  // Its operator counts over the paper's statements are the Table 2 join
  // anatomy (MCT never value-joins; crossings follow the Colors column).
  query::ExecStats anatomy;
  for (Statement& s : env->stmts) {
    query::ExecStats st;
    if (!PlannerOffXml(s.db, s.color, s.text, &s.oracle, &st)) {
      Die(s.id + " oracle failed: " + s.oracle);
    }
    if (!IsOwn(s)) anatomy.Merge(st);
  }
  const DatabaseStats& t1 = env->tpcw.table1;

  // Layer probes' long-lived state: an evaluator whose flow graph is built,
  // so PlanFor times planning alone.
  std::map<MctDatabase*, std::unique_ptr<mcx::Evaluator>> planners;
  if (args.trace) {
    for (const Statement& s : env->stmts) {
      auto& ev = planners[s.db];
      if (ev != nullptr) continue;
      mcx::EvalOptions o;
      o.default_color = s.color;
      o.planner = true;
      ev = std::make_unique<mcx::Evaluator>(s.db, o);
      auto q = mcx::Parse(s.text);
      if (q.ok()) ev->PlanFor(*q);
    }
  }

  // ---- Measured loop. ----
  Rand rng(args.seed ^ 0xca7a109ULL);
  std::vector<size_t> rotation(n);
  for (size_t i = 0; i < n; ++i) rotation[i] = i;
  rng.Shuffle(&rotation);
  OpLog warm, first, traced_warm, untraced_warm;
  OpLog exec_log, xml_log, parse_log, plan_log;
  std::vector<double> infer_ms, flow_ms;
  // ExecStats of the last measured pass: all statements, and the paper's.
  query::ExecStats pass_stats, table2_stats;
  uint64_t pass_results = 0;
  const query::PlanCache::Stats cache0 = env->cache.stats();
  uint64_t op_id = 0;
  size_t passes = 0;
  const Clock::time_point start = Clock::now();
  // Whole rotations only, so every statement has the same number of
  // first-run samples; stop at the rotation boundary nearest the run time.
  for (;;) {
    if (passes > 0 && passes % n == 0) {
      const double elapsed = MsSince(start);
      const double per_rotation = elapsed / static_cast<double>(passes / n);
      if (elapsed + per_rotation / 2 >= args.seconds * 1e3) break;
    }
    std::vector<size_t> order = rotation;
    rng.Shuffle(&order);
    const size_t first_pos = rng.Below(n + 1);
    // The host reference runs kRefsPerPass times per pass, at seeded
    // positions, so every op has samples close to it in time.
    std::vector<size_t> ref_pos;
    for (int k = 0; k < kRefsPerPass; ++k) ref_pos.push_back(rng.Below(n + 1));
    // A traced run records spans on every other pass only; both kinds of
    // pass collect ExecStats and run the side probes, so trace.overhead_pct
    // differs only in tracing.
    const bool traced = args.trace && passes % 2 == 0;
    query::ExecStats stats, table2;
    uint64_t results = 0;
    for (size_t i = 0; i <= n; ++i) {
      for (size_t p : ref_pos) {
        if (p == i) ref.Sample();
      }
      if (i == first_pos) {
        const Statement& s = env->stmts[rotation[passes % n]];
        Tracer::SetOp(++op_id, traced);
        query::PlanCache empty;
        const OpResult r = [&] {
          PB_SPAN(span, "op.first_run");
          return TimedOp(s, &empty, nullptr);
        }();
        report->Attempt();
        if (!r.ok) {
          report->Fail(s.id + " first run: " + r.xml);
        } else {
          first.Add(s.id, r.ms);
          if (r.xml != s.oracle) report->Wrong(s.id + " first run != planner-off");
        }
      }
      if (i == n) break;
      const Statement& s = env->stmts[order[i]];
      Tracer::SetOp(++op_id, traced);
      query::ExecStats op_stats;
      const OpResult r = [&] {
        PB_SPAN(span, "op.warm");
        return TimedOp(s, &env->cache, args.trace ? &op_stats : nullptr);
      }();
      report->Attempt();
      if (!r.ok) {
        report->Fail(s.id + ": " + r.xml);
        continue;
      }
      if (r.xml != s.oracle) report->Wrong(s.id + " != planner-off oracle");
      warm.Add(s.id, r.ms);
      if (!args.trace) continue;
      (traced ? traced_warm : untraced_warm).Add(s.id, r.ms);
      stats.Merge(op_stats);
      if (!IsOwn(s)) table2.Merge(op_stats);
      results += r.items;
      exec_log.Add(s.id, r.exec_ms);
      xml_log.Add(s.id, r.xml_ms * 1e3);
      // Side probes, outside the op: parse and plan this statement alone.
      Clock::time_point p0 = Clock::now();
      auto q = [&] {
        PB_SPAN(span, "mcx.Parse");
        return mcx::Parse(s.text);
      }();
      parse_log.Add(s.id, MsSince(p0) * 1e3);
      if (q.ok()) {
        Clock::time_point q0 = Clock::now();
        {
          PB_SPAN(span, "query.PlanFor");
          planners[s.db]->PlanFor(*q);
        }
        plan_log.Add(s.id, MsSince(q0) * 1e3);
      }
    }
    if (args.trace) {
      pass_stats = stats;
      table2_stats = table2;
      pass_results = results;
      if (passes % 8 == 0) {
        // Schema inference and the color-flow graph over it, on the
        // TPC-W database (the one every TQ first run infers).
        std::unique_ptr<serialize::MctSchema> schema;
        infer_ms.push_back(TimedSpan("serialize.InferSchema", [&] {
          schema = std::make_unique<serialize::MctSchema>(
              serialize::InferSchema(*env->tpcw.db.db));
        }));
        flow_ms.push_back(TimedSpan("mcx.ColorFlowGraph", [&] {
          mcx::ColorFlowGraph g(schema.get());
        }));
      }
    }
    ++passes;
  }
  const query::PlanCache::Stats cache1 = env->cache.stats();

  // ---- Report. ----
  RunSummary sum;
  sum.peak_rss_mb = PeakRssMb();
  std::printf("catalog: %zu statements, %zu passes in %.1f s\n", n, passes,
              MsSince(start) / 1e3);
  const Kinds warm_kinds = warm.Rescaled(ref);
  sum.warm = CombineKinds("warm ops (exact plan-cache hit)", warm_kinds);
  sum.cold = CombineKinds("first-run ops (fresh Evaluator, empty PlanCache)",
                          first.Rescaled(ref));
  Kinds table2_kinds;
  for (const Statement& s : env->stmts) {
    auto it = warm_kinds.find(s.id);
    if (!IsOwn(s) && it != warm_kinds.end()) table2_kinds[s.id] = it->second;
  }
  sum.pass = CombineKinds("Table 2 statements", table2_kinds, false);
  sum.setup_s = SetUpSeconds(setups, ref);
  sum.host = &ref;
  sum.setup_how = "rescaled median of the run's set-ups: generate, build, label, warm";
  sum.warm_how = "gated: geomean over statements of their rescaled warm upper quartiles";
  sum.cold_how = "gated: geomean over statements of their rescaled first-run upper quartiles";
  sum.pass_how = "gated: sum of TQ/SQ rescaled warm upper quartiles (Table 2 MCT column)";
  PrintMetric("read_p50_ms", sum.warm.p50, "ms", sum.warm.samples,
              "geomean over statements of their warm medians");
  PrintMetric("read_tail_ms", sum.warm.tail, "ms", sum.warm.samples,
              "geomean over statements of their warm tails");
  PrintMetric("first_run_ms", sum.cold.p50, "ms", sum.cold.samples,
              "geomean over statements of their first-run medians");
  double pass_ms = 0;
  for (const auto& [id, v] : table2_kinds) pass_ms += Median(v.scaled);
  PrintMetric("catalog_pass_ms", pass_ms, "ms", sum.pass.samples,
              "sum of TQ/SQ warm medians: the warm Table 2 MCT column");
  std::printf("paper shape: Table 1 TPC-W MCT data %.2f MB, index %.2f MB, "
              "%llu elements\n", t1.DataMBytes(), t1.IndexMBytes(),
              static_cast<unsigned long long>(t1.num_elements));
  std::printf("paper shape: join anatomy of the planner-off TQ/SQ pass: "
              "%llu value, %llu cross-tree, %llu nested-loop joins\n",
              static_cast<unsigned long long>(anatomy.value_joins),
              static_cast<unsigned long long>(anatomy.cross_tree_joins),
              static_cast<unsigned long long>(anatomy.nested_loop_joins));
  ReportRun(sum, report);
  if (!args.trace) return 0;

  // ---- Per-layer metrics (traced run). ----
  ReportBuildLayers(env->tpcw, report);
  report->Layer("mcx.parse_us", MeanOfMedians(parse_log.Snapshot()));
  report->Layer("mcx.to_xml_us", MeanOfMedians(xml_log.Snapshot()));
  report->Layer("query.plan_us", MeanOfMedians(plan_log.Snapshot()));
  std::printf("  (base: parse, ToXml and plan are means over %zu statements "
              "of their medians)\n", n);
  report->Layer("serialize.infer_schema_ms", Median(infer_ms));
  report->Layer("mcx.color_flow_ms", Median(flow_ms));
  report->Layer("query.rows_scanned_per_result",
                pass_results == 0 ? 0
                                  : static_cast<double>(pass_stats.rows_scanned) /
                                        static_cast<double>(pass_results));
  std::printf("  (base: %llu rows scanned / %llu results per pass)\n",
              static_cast<unsigned long long>(pass_stats.rows_scanned),
              static_cast<unsigned long long>(pass_results));
  report->Layer("query.value_joins", static_cast<double>(table2_stats.value_joins));
  report->Layer("query.cross_tree_joins",
                static_cast<double>(table2_stats.cross_tree_joins));
  report->Layer("query.nested_loop_joins",
                static_cast<double>(table2_stats.nested_loop_joins));
  std::printf("  (base: the TQ/SQ ops of the last measured pass, planner on)\n");
  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t misses = cache1.misses - cache0.misses;
  report->Layer("query.exact_hit_ratio",
                hits + misses == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(hits + misses));
  std::printf("  (base: %llu exact hits of %llu lookups on the shared cache)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(hits + misses));
  for (const auto& [id, v] : exec_log.Snapshot()) {
    report->Layer("mcx.exec_ms." + id, Median(v));
  }
  report->Layer("trace.overhead_pct", TraceOverheadPct(traced_warm, untraced_warm));
  return 0;
}

}  // namespace perfbench
