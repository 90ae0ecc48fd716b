// Reproduces the TPC-W half of Table 2 (query/update processing time in
// seconds for MCT, shallow and deep, plus the Colors/Trees annotations and
// the deep no-duplicate-elimination "D" rows).
//
// Protocol follows Section 7: warm cache, each read query run five times
// with the lowest and highest readings dropped and the rest averaged.
// Updates mutate the databases and run once (single-shot), on databases
// that have already absorbed the earlier updates — the same drift the
// paper's sequential protocol has.
//
// Expected shape (paper): MCT is comparable to shallow when no value joins
// or crossings are needed and substantially faster when shallow must
// value-join (TQ9/11/13/14/15/16, TU3/4); deep wins pure-nesting rows
// (TQ3) but collapses on duplicate-laden rows (TQ7/12, TU1/2).

#include <cstdio>
#include <vector>

#include "bench_masked_check.h"
#include "bench_planner_compare.h"
#include "bench_util.h"
#include "common/strings.h"
#include "query/trace.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/tpcw_db.h"

namespace {

using namespace mct::workload;

struct Cell {
  double seconds = -1;
  uint64_t results = 0;
};

Cell Measure(TpcwDb* db, const std::string& text, bool is_update) {
  Cell cell;
  if (text.empty()) return cell;
  auto once = [&]() -> double {
    auto run = RunQuery(db->db.get(), text,
                        {.default_color = db->default_color()});
    if (!run.ok()) {
      std::fprintf(stderr, "query failed: %s\n  %s\n",
                   run.status().ToString().c_str(), text.c_str());
      std::exit(1);
    }
    cell.results = run->result_count;
    return run->seconds;
  };
  cell.seconds = is_update ? once() : mct::bench::Repeated(once);
  return cell;
}

void PrintRow(const std::string& id, uint64_t results, const Cell& m,
              const Cell& s, const Cell& d, int colors, int trees) {
  auto fmt = [](const Cell& c) {
    return c.seconds < 0 ? std::string("      --")
                         : mct::StrFormat("%8.4f", c.seconds);
  };
  std::printf("%-6s %9llu %s %s %s %7d %6d\n", id.c_str(),
              static_cast<unsigned long long>(results), fmt(m).c_str(),
              fmt(s).c_str(), fmt(d).c_str(), colors, trees);
}

}  // namespace

int main(int argc, char** argv) {
  double scale = mct::bench::ScaleFromArgs(argc, argv, 0.5);
  TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(scale));
  std::printf("=== Table 2 (TPC-W): Query Processing Time in Seconds ===\n");
  std::printf("(scale %.3g: %zu orders, %zu orderlines, %zu items; E2/E3)\n\n",
              scale, data.orders.size(), data.orderlines.size(),
              data.items.size());

  auto mct_db = BuildTpcw(data, SchemaKind::kMct);
  auto shallow_db = BuildTpcw(data, SchemaKind::kShallow);
  auto deep_db = BuildTpcw(data, SchemaKind::kDeep);
  if (!mct_db.ok() || !shallow_db.ok() || !deep_db.ok()) {
    std::fprintf(stderr, "database build failed\n");
    return 1;
  }
  // Warm the caches / labels (the paper reports warm-cache numbers).
  for (mct::ColorId c = 0; c < mct_db->db->num_colors(); ++c) {
    mct_db->db->tree(c)->EnsureLabels();
  }
  shallow_db->db->tree(shallow_db->doc)->EnsureLabels();
  deep_db->db->tree(deep_db->doc)->EnsureLabels();

  if (mct::bench::HasFlag(argc, argv, "--planner")) {
    // Planner A/B mode: baseline pipeline vs cost-based planner + plan
    // cache on every MCT read statement, with the CI regression gate.
    std::printf("=== Planner A/B (TPC-W, MCT schema) ===\n\n");
    return mct::bench::PlannerCompare(mct_db->db.get(),
                                      mct_db->default_color(),
                                      TpcwCatalog(data), "BENCH_planner.json");
  }

  if (mct::bench::HasFlag(argc, argv, "--check-masked")) {
    // Secure-color-view strict sweep (DESIGN.md §16): random per-run mask,
    // cross-checking analyzer rejection, planner pruning, and evaluator
    // filtering over the whole catalog. Exit nonzero on any leak or
    // strict/planner disagreement.
    std::printf("=== Masked sweep (TPC-W, MCT schema) ===\n\n");
    return mct::bench::MaskedCheck(mct_db->db.get(), mct_db->default_color(),
                                   TpcwCatalog(data),
                                   "BENCH_masked_tpcw.json",
                                   mct::bench::MaskSeedFromArgs(argc, argv));
  }

  if (mct::bench::HasFlag(argc, argv, "--check")) {
    // EXPLAIN CHECK mode: statically analyze and execute every catalog
    // statement against the MCT schema in strict mode. A catalog that fails
    // analysis is a bug (exit 1), so CI can run this as a gate.
    std::FILE* out = std::fopen("BENCH_check_tpcw.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot create BENCH_check_tpcw.json\n");
      return 1;
    }
    std::fprintf(out, "[");
    bool first = true;
    for (const CatalogQuery& q : TpcwCatalog(data)) {
      if (q.mct.empty()) continue;
      mct::mcx::AnalysisReport report;
      auto run = RunQuery(mct_db->db.get(), q.mct,
                          {.default_color = mct_db->default_color(),
                           .analyze = mct::mcx::AnalyzeMode::kStrict,
                           .check = &report});
      std::printf("EXPLAIN CHECK %s\n%s\n", q.id.c_str(),
                  report.ToText().c_str());
      if (!first) std::fprintf(out, ",\n");
      first = false;
      std::fprintf(out, "{\"query\": \"%s\", \"check\": %s}", q.id.c_str(),
                   report.ToJson().c_str());
      if (!run.ok()) {
        std::fprintf(stderr, "statement %s rejected: %s\n", q.id.c_str(),
                     run.status().ToString().c_str());
        return 1;
      }
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("analysis JSON written to BENCH_check_tpcw.json\n");
    return 0;
  }

  if (mct::bench::HasFlag(argc, argv, "--trace")) {
    // EXPLAIN ANALYZE mode: run each read query once against the MCT schema
    // with plan tracing on, print the text tree, and mirror the same data
    // as JSON for downstream tooling.
    std::FILE* out = std::fopen("BENCH_trace_tpcw.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot create BENCH_trace_tpcw.json\n");
      return 1;
    }
    std::fprintf(out, "[");
    bool first = true;
    for (const CatalogQuery& q : TpcwCatalog(data)) {
      if (q.is_update || q.mct.empty()) continue;
      mct::query::QueryTrace trace;
      auto run = RunQuery(mct_db->db.get(), q.mct,
                          {.default_color = mct_db->default_color(),
                           .trace = &trace});
      if (!run.ok()) {
        std::fprintf(stderr, "query %s failed: %s\n", q.id.c_str(),
                     run.status().ToString().c_str());
        return 1;
      }
      std::printf("EXPLAIN ANALYZE %s  (%llu results)\n%s\n", q.id.c_str(),
                  static_cast<unsigned long long>(run->result_count),
                  trace.ToText().c_str());
      if (!first) std::fprintf(out, ",\n");
      first = false;
      std::fprintf(out, "{\"query\": \"%s\", \"trace\": %s}", q.id.c_str(),
                   trace.ToJson().c_str());
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("per-operator JSON written to BENCH_trace_tpcw.json\n");
    return 0;
  }

  std::printf("%-6s %9s %8s %8s %8s %7s %6s\n", "Query", "Results", "MCT",
              "Shallow", "Deep", "Colors", "Trees");
  mct::bench::PrintRule(60);
  for (const CatalogQuery& q : TpcwCatalog(data)) {
    Cell m = Measure(&*mct_db, q.mct, q.is_update);
    Cell s = Measure(&*shallow_db, q.shallow, q.is_update);
    Cell d = Measure(&*deep_db, q.deep, q.is_update);
    PrintRow(q.id, m.results, m, s, d, q.colors, q.trees);
    if (q.is_update && d.results != m.results) {
      // Deep affected more elements (replicas): report its count as the
      // paper's "D" row does.
      PrintRow(q.id + "D", d.results, Cell{}, Cell{}, d, q.colors, q.trees);
    }
    if (!q.deep_nodup.empty()) {
      Cell dn = Measure(&*deep_db, q.deep_nodup, q.is_update);
      PrintRow(q.id + "D", dn.results, Cell{}, Cell{}, dn, q.colors, q.trees);
    }
  }
  mct::bench::PrintRule(60);
  std::printf(
      "\nShape checks vs the paper's Table 2:\n"
      "  * 1-color/1-tree rows: MCT ~ Shallow, Deep never faster than both\n"
      "  * multi-tree rows (TQ9,11,13,14,15,16; TU3,4): Shallow pays value\n"
      "    joins and loses to MCT\n"
      "  * duplicate rows (TQ7,TQ12,TU1,TU2): Deep pays replicas +\n"
      "    duplicate elimination\n"
      "  * TQ3: Deep's pure nesting wins; MCT pays one color crossing\n");
  return 0;
}
