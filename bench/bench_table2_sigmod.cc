// Reproduces the SIGMOD-Record half of Table 2 (SQ1-SQ5, SU1-SU2, plus the
// deep "D" rows). Protocol as in bench_table2_tpcw.
//
// Expected shape (paper): MCT matches deep on structural rows and crushes
// shallow when shallow value-joins (SQ2/3/5); SQ4's deep variant pays
// replicated editors + duplicate elimination; SU1/SU2 deep must touch every
// replica.

#include <cstdio>

#include "bench_masked_check.h"
#include "bench_planner_compare.h"
#include "bench_util.h"
#include "common/strings.h"
#include "query/trace.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/sigmodr_db.h"

namespace {

using namespace mct::workload;

struct Cell {
  double seconds = -1;
  uint64_t results = 0;
};

Cell Measure(SigmodDb* db, const std::string& text, bool is_update) {
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
  double scale = mct::bench::ScaleFromArgs(argc, argv, 1.0);
  SigmodData data = GenerateSigmod(SigmodScale::Default().ScaledBy(scale));
  std::printf(
      "=== Table 2 (SIGMOD-Record): Query Processing Time in Seconds ===\n");
  std::printf("(scale %.3g: %zu issues, %zu articles; E4)\n\n", scale,
              data.issues.size(), data.articles.size());

  auto mct_db = BuildSigmod(data, SchemaKind::kMct);
  auto shallow_db = BuildSigmod(data, SchemaKind::kShallow);
  auto deep_db = BuildSigmod(data, SchemaKind::kDeep);
  if (!mct_db.ok() || !shallow_db.ok() || !deep_db.ok()) {
    std::fprintf(stderr, "database build failed\n");
    return 1;
  }
  for (mct::ColorId c = 0; c < mct_db->db->num_colors(); ++c) {
    mct_db->db->tree(c)->EnsureLabels();
  }
  shallow_db->db->tree(shallow_db->doc)->EnsureLabels();
  deep_db->db->tree(deep_db->doc)->EnsureLabels();

  if (mct::bench::HasFlag(argc, argv, "--planner")) {
    // Planner A/B mode, as in bench_table2_tpcw.
    std::printf("=== Planner A/B (SIGMOD-Record, MCT schema) ===\n\n");
    return mct::bench::PlannerCompare(mct_db->db.get(),
                                      mct_db->default_color(),
                                      SigmodCatalog(data),
                                      "BENCH_planner_sigmod.json");
  }

  if (mct::bench::HasFlag(argc, argv, "--check-masked")) {
    // Secure-color-view strict sweep, as in bench_table2_tpcw.
    std::printf("=== Masked sweep (SIGMOD-Record, MCT schema) ===\n\n");
    return mct::bench::MaskedCheck(mct_db->db.get(), mct_db->default_color(),
                                   SigmodCatalog(data),
                                   "BENCH_masked_sigmod.json",
                                   mct::bench::MaskSeedFromArgs(argc, argv));
  }

  if (mct::bench::HasFlag(argc, argv, "--check")) {
    // EXPLAIN CHECK mode, as in bench_table2_tpcw: strict static analysis
    // over every catalog statement; any rejection is a catalog bug.
    std::FILE* out = std::fopen("BENCH_check_sigmod.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot create BENCH_check_sigmod.json\n");
      return 1;
    }
    std::fprintf(out, "[");
    bool first = true;
    for (const CatalogQuery& q : SigmodCatalog(data)) {
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
    std::printf("analysis JSON written to BENCH_check_sigmod.json\n");
    return 0;
  }

  if (mct::bench::HasFlag(argc, argv, "--trace")) {
    // EXPLAIN ANALYZE mode, as in bench_table2_tpcw.
    std::FILE* out = std::fopen("BENCH_trace_sigmod.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot create BENCH_trace_sigmod.json\n");
      return 1;
    }
    std::fprintf(out, "[");
    bool first = true;
    for (const CatalogQuery& q : SigmodCatalog(data)) {
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
    std::printf("per-operator JSON written to BENCH_trace_sigmod.json\n");
    return 0;
  }

  std::printf("%-6s %9s %8s %8s %8s %7s %6s\n", "Query", "Results", "MCT",
              "Shallow", "Deep", "Colors", "Trees");
  mct::bench::PrintRule(60);
  for (const CatalogQuery& q : SigmodCatalog(data)) {
    Cell m = Measure(&*mct_db, q.mct, q.is_update);
    Cell s = Measure(&*shallow_db, q.shallow, q.is_update);
    Cell d = Measure(&*deep_db, q.deep, q.is_update);
    PrintRow(q.id, m.results, m, s, d, q.colors, q.trees);
    if (q.is_update && d.results != m.results) {
      PrintRow(q.id + "D", d.results, Cell{}, Cell{}, d, q.colors, q.trees);
    }
    if (!q.deep_nodup.empty()) {
      Cell dn = Measure(&*deep_db, q.deep_nodup, q.is_update);
      PrintRow(q.id + "D", dn.results, Cell{}, Cell{}, dn, q.colors, q.trees);
    }
  }
  mct::bench::PrintRule(60);
  std::printf(
      "\nShape checks vs the paper's Table 2 (SIGMOD-Record rows):\n"
      "  * SQ2/SQ3/SQ5: shallow pays value joins, MCT/deep are structural\n"
      "  * SQ4: deep scans replicated editors and deduplicates (SQ4D)\n"
      "  * SU1/SU2: deep updates every replica (SU1D/SU2D counts)\n");
  return 0;
}
