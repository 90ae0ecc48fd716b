// Shared --planner A/B mode for the Table 2 benches: measure every read
// statement of a catalog twice — fixed baseline pipeline vs cost-based
// planner behind a shared plan cache (session-style: parse + plan + execute
// inside the timer, so cache hits show their parse/plan savings) — print a
// comparison table, write a machine-readable JSON, and gate on regressions.
//
// The gate: any planned statement slower than baseline by more than 10%
// plus a 0.2 ms noise floor fails the run (exit 1), so CI can keep the
// planner honest. Result counts must match exactly — a count mismatch is a
// determinism bug, not a perf regression, and also fails the run.
//
// Updates are excluded: TU2/TU4-style inserts are not idempotent, so an
// A/B pair would measure two different databases.

#ifndef COLORFUL_XML_BENCH_BENCH_PLANNER_COMPARE_H_
#define COLORFUL_XML_BENCH_BENCH_PLANNER_COMPARE_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/planner.h"
#include "workload/catalog.h"
#include "workload/runner.h"

namespace mct::bench {

inline int PlannerCompare(MctDatabase* db, ColorId default_color,
                          const std::vector<workload::CatalogQuery>& catalog,
                          const char* json_path) {
  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot create %s\n", json_path);
    return 1;
  }
  query::PlanCache cache;
  std::printf("%-6s %9s %10s %10s %8s\n", "Query", "Results", "Base(s)",
              "Plan(s)", "Speedup");
  PrintRule(48);
  std::fprintf(out, "[");
  bool first = true;
  int regressions = 0;
  int wins = 0;
  int measured = 0;
  for (const workload::CatalogQuery& q : catalog) {
    if (q.is_update || q.mct.empty()) continue;
    uint64_t base_count = 0;
    uint64_t plan_count = 0;
    auto base_once = [&]() -> double {
      auto run =
          workload::RunQuery(db, q.mct, {.default_color = default_color});
      if (!run.ok()) {
        std::fprintf(stderr, "baseline %s failed: %s\n", q.id.c_str(),
                     run.status().ToString().c_str());
        std::exit(1);
      }
      base_count = run->result_count;
      return run->seconds;
    };
    auto plan_once = [&]() -> double {
      auto run = workload::RunQuery(db, q.mct,
                                    {.default_color = default_color,
                                     .planner = true,
                                     .plan_cache = &cache});
      if (!run.ok()) {
        std::fprintf(stderr, "planned %s failed: %s\n", q.id.c_str(),
                     run.status().ToString().c_str());
        std::exit(1);
      }
      plan_count = run->result_count;
      return run->seconds;
    };
    double base = Repeated(base_once);
    double planned = Repeated(plan_once);
    if (base_count != plan_count) {
      std::fprintf(stderr,
                   "%s: planned result count %llu != baseline %llu — "
                   "determinism violation\n",
                   q.id.c_str(), static_cast<unsigned long long>(plan_count),
                   static_cast<unsigned long long>(base_count));
      std::fclose(out);
      return 1;
    }
    ++measured;
    double speedup = planned > 0 ? base / planned : 0;
    bool regressed = planned > base * 1.10 + 2e-4;
    if (regressed) ++regressions;
    if (speedup >= 1.3) ++wins;
    std::printf("%-6s %9llu %10.5f %10.5f %7.2fx%s\n", q.id.c_str(),
                static_cast<unsigned long long>(base_count), base, planned,
                speedup, regressed ? "  REGRESSED" : "");
    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out,
                 "{\"query\": \"%s\", \"results\": %llu, "
                 "\"base_ms\": %.4f, \"planned_ms\": %.4f, "
                 "\"speedup\": %.3f, \"regressed\": %s}",
                 q.id.c_str(), static_cast<unsigned long long>(base_count),
                 base * 1e3, planned * 1e3, speedup,
                 regressed ? "true" : "false");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  query::PlanCache::Stats cs = cache.stats();
  PrintRule(48);
  std::printf(
      "%d statements; %d at >=1.3x, %d regressed (>10%% + 0.2 ms)\n"
      "plan cache: %llu hits, %llu misses, %llu skeleton hits\n"
      "JSON written to %s\n",
      measured, wins, regressions, static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses),
      static_cast<unsigned long long>(cs.skeleton_hits), json_path);
  return regressions > 0 ? 1 : 0;
}

}  // namespace mct::bench

#endif  // COLORFUL_XML_BENCH_BENCH_PLANNER_COMPARE_H_
