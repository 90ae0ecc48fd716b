// E7 — Section 7.2's scaling claim: "most of the times scaled linearly
// with data set size. The only exceptions were the two queries involving an
// inequality value join, which is implemented as nested loops, and hence
// has a quadratic dependence on data set size."
//
// This harness runs a linear-shaped query (TQ13, order->orderline
// navigation / value join) and the inequality-join query (TQ15) on the
// shallow database at a geometric ladder of scales and reports the growth
// exponent between successive sizes (log t ratio / log n ratio): ~1 means
// linear, ~2 quadratic.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "mct/shard.h"
#include "query/trace.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace {

using namespace mct::workload;

const CatalogQuery* FindQuery(const std::vector<CatalogQuery>& catalog,
                              const std::string& id) {
  for (const CatalogQuery& q : catalog) {
    if (q.id == id) return &q;
  }
  return nullptr;
}

double MeasureQuery(TpcwDb* db, const std::string& text, int num_threads = 1) {
  return mct::bench::Repeated(
      [&]() {
        auto run = RunQuery(db->db.get(), text,
                            {.default_color = db->default_color(),
                             .num_threads = num_threads});
        if (!run.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       run.status().ToString().c_str());
          std::exit(1);
        }
        return run->seconds;
      },
      3);
}

// --- Interval-range shard sweep (--shards; DESIGN.md §17) -----------------
//
// Runs descendant-heavy SIGMOD statements on the MCT schema at shard counts
// {1, 2, 4, 8} with 8 execution threads, reporting per-query speedup over
// the 1-shard run and the shard-pruning ratio (pruned / cut runs), and
// writes BENCH_shard.json. With --check it exits nonzero when
//  * any query at shard_count=1 runs >10% (plus a noise floor) slower than
//    the same query before SetShardCount was ever called (the 1-shard code
//    path must stay byte-identical to the unsharded seed), or
//  * the geomean speedup of the descendant-heavy gate set at 4 shards is
//    <= 1.0, or
//  * interval pruning never fired across the whole sweep.
int RunShardSweep(double base, bool check) {
  const double scale = base * 10;
  SigmodData data = GenerateSigmod(SigmodScale::Default().ScaledBy(scale));
  auto db = BuildSigmod(data, SchemaKind::kMct);
  if (!db.ok()) {
    std::fprintf(stderr, "shard-sweep build failed\n");
    return 1;
  }
  auto catalog = SigmodCatalog(data);
  const std::string doc = "document(\"sigmod.xml\")";
  const std::string editor0 = data.editors[0];
  const SigmodIssue& is0 = data.issues[data.issues.size() / 2];

  struct ShardQuery {
    std::string id;
    std::string text;
    bool descendant_heavy;  // member of the geomean gate set
  };
  // SQ1/SQ4: full-tree descendant scans (sharded sort + merge, no pruning
  // opportunity — the context is the whole document). SQ3 and the SX pair:
  // a selective context anchors the second descendant step, so whole
  // shards are interval-disjoint and pruned.
  std::vector<ShardQuery> queries = {
      {"SQ1", FindQuery(catalog, "SQ1")->mct, false},
      {"SQ4", FindQuery(catalog, "SQ4")->mct, false},
      {"SQ3", FindQuery(catalog, "SQ3")->mct, true},
      {"SXed",
       mct::StrFormat(
           "for $e in %s/{topic}descendant::editor"
           "[{topic}child::name = \"%s\"] "
           "for $a in $e/{topic}descendant::article return $a",
           doc.c_str(), editor0.c_str()),
       true},
      {"SXis",
       mct::StrFormat(
           "for $i in %s/{time}descendant::issue[{time}child::volume = %d]"
           "[{time}child::number = %d] "
           "for $a in $i/{time}descendant::article return $a",
           doc.c_str(), is0.volume, is0.number),
       true},
  };

  const int kThreads = 8;
  auto run_once = [&](const std::string& text) {
    auto run = RunQuery(db->db.get(), text,
                        {.default_color = db->default_color(),
                         .num_threads = kThreads});
    if (!run.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   run.status().ToString().c_str());
      std::exit(1);
    }
    return run->seconds;
  };

  std::printf("=== Interval-range shard sweep (SIGMOD mct, %d threads) ===\n\n",
              kThreads);
  // Seed pass: the database has never seen SetShardCount — the oracle the
  // 1-shard run must not regress against. Min-of-5 (not the paper's trimmed
  // mean): the gates compare two timings of identical work, where the
  // minimum is the noise-robust estimator on a shared CI box.
  const int kRounds = 5;
  std::vector<double> seed_times(queries.size(), 1e99);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      seed_times[qi] = std::min(seed_times[qi], run_once(queries[qi].text));
    }
  }

  const std::vector<int> shard_counts{1, 2, 4, 8};
  // times[q][s] (min over rounds), pruned[q][s], tasks[q][s].
  std::vector<std::vector<double>> times(
      queries.size(), std::vector<double>(shard_counts.size(), 1e99));
  std::vector<std::vector<uint64_t>> pruned(
      queries.size(), std::vector<uint64_t>(shard_counts.size(), 0));
  std::vector<std::vector<uint64_t>> tasks(
      queries.size(), std::vector<uint64_t>(shard_counts.size(), 0));
  // Interleaved rounds — every shard count runs once per round, so
  // machine-wide drift (frequency scaling, noisy neighbours) lands on all
  // shard counts of a query equally instead of biasing whichever block
  // happened to run during the slow spell.
  for (int round = 0; round < kRounds; ++round) {
    for (size_t si = 0; si < shard_counts.size(); ++si) {
      db->db->SetShardCount(shard_counts[si]);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const uint64_t p0 = mct::ShardPrunedCounter()->value();
        const uint64_t t0 = mct::ShardTasksCounter()->value();
        times[qi][si] = std::min(times[qi][si], run_once(queries[qi].text));
        pruned[qi][si] += mct::ShardPrunedCounter()->value() - p0;
        tasks[qi][si] += mct::ShardTasksCounter()->value() - t0;
      }
    }
  }
  db->db->SetShardCount(1);

  double gate_log_sum = 0;
  int gate_count = 0;
  uint64_t total_pruned = 0;
  bool seed_ok = true;
  std::FILE* json = std::fopen("BENCH_shard.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"scale\": %g,\n  \"articles\": %zu,\n"
                 "  \"threads\": %d,\n  \"queries\": [\n",
                 scale, data.articles.size(), kThreads);
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const ShardQuery& q = queries[qi];
    std::printf("%-5s seed=%8.5fs", q.id.c_str(), seed_times[qi]);
    for (size_t si = 0; si < shard_counts.size(); ++si) {
      std::printf("  s%d=%8.5fs", shard_counts[si], times[qi][si]);
    }
    const double speedup4 = times[qi][0] / times[qi][2];
    const uint64_t cut_runs4 = pruned[qi][2] + tasks[qi][2];
    const double prune_ratio4 =
        cut_runs4 > 0 ? static_cast<double>(pruned[qi][2]) /
                            static_cast<double>(cut_runs4)
                      : 0;
    std::printf("  | 4-shard speedup %.2fx, pruned %.0f%%%s\n",
                speedup4, prune_ratio4 * 100,
                q.descendant_heavy ? "  [gate]" : "");
    // 1-shard vs seed: identical code path, so only measurement noise can
    // separate them — but the seed pass necessarily ran before any
    // SetShardCount and cannot be interleaved with it, so give the 10%
    // bound a 2ms drift floor.
    if (times[qi][0] > seed_times[qi] * 1.10 + 0.002) seed_ok = false;
    if (q.descendant_heavy) {
      gate_log_sum += std::log(speedup4);
      ++gate_count;
    }
    for (size_t si = 0; si < shard_counts.size(); ++si) {
      total_pruned += pruned[qi][si];
    }
    if (json != nullptr) {
      std::fprintf(json,
                   "%s    {\"id\": \"%s\", \"descendant_heavy\": %s, "
                   "\"seed\": %.6f",
                   qi == 0 ? "" : ",\n", q.id.c_str(),
                   q.descendant_heavy ? "true" : "false", seed_times[qi]);
      for (size_t si = 0; si < shard_counts.size(); ++si) {
        std::fprintf(json, ", \"s%d\": %.6f", shard_counts[si],
                     times[qi][si]);
        std::fprintf(json, ", \"pruned_s%d\": %llu", shard_counts[si],
                     static_cast<unsigned long long>(pruned[qi][si]));
        std::fprintf(json, ", \"tasks_s%d\": %llu", shard_counts[si],
                     static_cast<unsigned long long>(tasks[qi][si]));
      }
      std::fprintf(json, ", \"speedup_s4\": %.3f, \"prune_ratio_s4\": %.3f}",
                   speedup4, prune_ratio4);
    }
  }
  const double geomean4 =
      gate_count > 0 ? std::exp(gate_log_sum / gate_count) : 0;
  std::printf("\nDescendant-heavy geomean speedup at 4 shards: %.2fx\n",
              geomean4);
  std::printf("Interval pruning fired %llu times across the sweep\n",
              static_cast<unsigned long long>(total_pruned));
  if (json != nullptr) {
    std::fprintf(json,
                 "\n  ],\n  \"geomean_speedup_s4\": %.3f,\n"
                 "  \"total_pruned_shards\": %llu,\n  \"seed_ok\": %s\n}\n",
                 geomean4, static_cast<unsigned long long>(total_pruned),
                 seed_ok ? "true" : "false");
    std::fclose(json);
    std::printf("Wrote BENCH_shard.json\n");
  }
  if (check) {
    if (!seed_ok) {
      std::fprintf(stderr,
                   "FAIL: shard_count=1 regressed >10%% against the "
                   "unsharded seed\n");
      return 1;
    }
    if (geomean4 <= 1.0) {
      std::fprintf(stderr,
                   "FAIL: 4-shard geomean speedup %.3f <= 1.0 on the "
                   "descendant-heavy set\n",
                   geomean4);
      return 1;
    }
    if (total_pruned == 0) {
      std::fprintf(stderr, "FAIL: interval pruning never fired\n");
      return 1;
    }
    std::printf("shard sweep gates ok\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double base = mct::bench::ScaleFromArgs(argc, argv, 0.1);
  if (mct::bench::HasFlag(argc, argv, "--shards")) {
    return RunShardSweep(base, mct::bench::HasFlag(argc, argv, "--check"));
  }
  if (mct::bench::HasFlag(argc, argv, "--trace")) {
    // EXPLAIN ANALYZE mode: trace the thread-sweep queries serially and at
    // 8 threads (to exercise the morsel counters), print the text trees,
    // and mirror the data as JSON.
    TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(base * 10));
    auto mct_db = BuildTpcw(data, SchemaKind::kMct);
    auto shallow_db = BuildTpcw(data, SchemaKind::kShallow);
    if (!mct_db.ok() || !shallow_db.ok()) {
      std::fprintf(stderr, "trace-mode build failed\n");
      return 1;
    }
    auto catalog = TpcwCatalog(data);
    struct Traced {
      const char* id;
      const char* schema;
      std::string text;
      TpcwDb* db;
    };
    std::vector<Traced> queries = {
        {"TQ2", "mct", FindQuery(catalog, "TQ2")->mct, &*mct_db},
        {"TQ6", "mct", FindQuery(catalog, "TQ6")->mct, &*mct_db},
        {"TQ6", "shallow", FindQuery(catalog, "TQ6")->shallow, &*shallow_db},
        {"TQ15", "shallow", FindQuery(catalog, "TQ15")->shallow,
         &*shallow_db},
    };
    std::FILE* out = std::fopen("BENCH_trace_scaling.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot create BENCH_trace_scaling.json\n");
      return 1;
    }
    std::fprintf(out, "[");
    bool first = true;
    for (const Traced& q : queries) {
      for (int threads : {1, 8}) {
        mct::query::QueryTrace trace;
        auto run = RunQuery(q.db->db.get(), q.text,
                            {.default_color = q.db->default_color(),
                             .trace = &trace,
                             .num_threads = threads});
        if (!run.ok()) {
          std::fprintf(stderr, "query %s failed: %s\n", q.id,
                       run.status().ToString().c_str());
          return 1;
        }
        std::printf("EXPLAIN ANALYZE %s (%s, %d threads)  (%llu results)\n%s\n",
                    q.id, q.schema, threads,
                    static_cast<unsigned long long>(run->result_count),
                    trace.ToText().c_str());
        if (!first) std::fprintf(out, ",\n");
        first = false;
        std::fprintf(out,
                     "{\"query\": \"%s\", \"schema\": \"%s\", "
                     "\"threads\": %d, \"trace\": %s}",
                     q.id, q.schema, threads, trace.ToJson().c_str());
      }
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("per-operator JSON written to BENCH_trace_scaling.json\n");
    return 0;
  }
  std::printf("=== Scaling (Section 7.2): linear vs quadratic queries ===\n\n");
  std::vector<double> scales{base, base * 2, base * 4};
  struct Point {
    double n;
    double linear_t;
    double quad_t;
  };
  std::vector<Point> points;
  for (double s : scales) {
    TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(s));
    auto shallow = BuildTpcw(data, SchemaKind::kShallow);
    if (!shallow.ok()) {
      std::fprintf(stderr, "build failed\n");
      return 1;
    }
    shallow->db->tree(shallow->doc)->EnsureLabels();
    auto catalog = TpcwCatalog(data);
    const CatalogQuery* linear = FindQuery(catalog, "TQ13");
    const CatalogQuery* quad = FindQuery(catalog, "TQ15");
    Point p;
    p.n = static_cast<double>(data.orders.size());
    p.linear_t = MeasureQuery(&*shallow, linear->shallow);
    p.quad_t = MeasureQuery(&*shallow, quad->shallow);
    points.push_back(p);
    std::printf("orders=%8.0f   TQ13(shallow, equality join)=%8.4fs   "
                "TQ15(shallow, inequality nested loop)=%8.4fs\n",
                p.n, p.linear_t, p.quad_t);
  }
  // Exponent over the widest span (robust against millisecond-scale noise
  // at the small end) plus the final step, where the asymptotic term
  // dominates.
  const Point& lo = points.front();
  const Point& hi = points.back();
  const Point& mid = points[points.size() - 2];
  double span = std::log(hi.n / lo.n);
  double lin_overall = std::log(hi.linear_t / lo.linear_t) / span;
  double quad_overall = std::log(hi.quad_t / lo.quad_t) / span;
  double last = std::log(hi.n / mid.n);
  double lin_last = std::log(hi.linear_t / mid.linear_t) / last;
  double quad_last = std::log(hi.quad_t / mid.quad_t) / last;
  std::printf("\nGrowth exponents (1 = linear, 2 = quadratic):\n");
  std::printf("  TQ13 (equality join):          overall %.2f, last step %.2f\n",
              lin_overall, lin_last);
  std::printf("  TQ15 (inequality nested loop): overall %.2f, last step %.2f\n",
              quad_overall, quad_last);
  std::printf(
      "\nExpected shape (paper Section 7.2): TQ13 stays near 1 (its small\n"
      "absolute times make the small-scale steps noisy); TQ15 approaches 2\n"
      "as the quadratic nested loop dominates.\n");

  // --- Morsel-driven parallel thread sweep (not in the paper; measures the
  // worker-pool execution path). Serial remains the default everywhere; this
  // section opts in per query and reports speedup over num_threads = 1.
  // Results also land in BENCH_parallel.json for machine consumption.
  std::printf("\n=== Morsel-driven parallel execution: thread sweep ===\n\n");
  double par_scale = base * 10;  // scale 1.0 at the default --scale=0.1
  TpcwData pdata = GenerateTpcw(TpcwScale::Default().ScaledBy(par_scale));
  auto pmct = BuildTpcw(pdata, SchemaKind::kMct);
  auto pshallow = BuildTpcw(pdata, SchemaKind::kShallow);
  if (!pmct.ok() || !pshallow.ok()) {
    std::fprintf(stderr, "parallel-sweep build failed\n");
    return 1;
  }
  auto pcatalog = TpcwCatalog(pdata);
  struct Sweep {
    const char* id;
    const char* schema;
    std::string text;
    TpcwDb* db;
  };
  std::vector<Sweep> sweeps = {
      {"TQ2", "mct", FindQuery(pcatalog, "TQ2")->mct, &*pmct},
      {"TQ6", "mct", FindQuery(pcatalog, "TQ6")->mct, &*pmct},
      {"TQ6", "shallow", FindQuery(pcatalog, "TQ6")->shallow, &*pshallow},
      {"TQ15", "shallow", FindQuery(pcatalog, "TQ15")->shallow, &*pshallow},
  };
  const std::vector<int> thread_counts{1, 2, 4, 8};
  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"scale\": %g,\n  \"orders\": %zu,\n"
                 "  \"queries\": [\n", par_scale, pdata.orders.size());
  }
  bool first = true;
  for (const Sweep& s : sweeps) {
    std::printf("%-5s (%s):", s.id, s.schema);
    std::vector<double> times;
    for (int t : thread_counts) {
      times.push_back(MeasureQuery(s.db, s.text, t));
      std::printf("  %dt=%7.4fs", t, times.back());
    }
    double speedup4 = times[0] / times[2];
    std::printf("  | 4-thread speedup %.2fx\n", speedup4);
    if (json != nullptr) {
      std::fprintf(json, "%s    {\"id\": \"%s\", \"schema\": \"%s\"",
                   first ? "" : ",\n", s.id, s.schema);
      for (size_t i = 0; i < thread_counts.size(); ++i) {
        std::fprintf(json, ", \"t%d\": %.6f", thread_counts[i], times[i]);
      }
      std::fprintf(json, ", \"speedup_4t\": %.3f}", speedup4);
      first = false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nWrote BENCH_parallel.json\n");
  }
  return 0;
}
