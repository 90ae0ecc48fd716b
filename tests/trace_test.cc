// Trace-consistency tests: re-runs the read-only query corpus from
// mcx_eval_test / mcx_more_test with EXPLAIN ANALYZE tracing on, at 1 and 8
// threads, and asserts
//   * the query results are identical regardless of thread count,
//   * the trace root accounts for every result item,
//   * within each FOR group, consecutive operators chain (rows_in of one
//     equals rows_out of the previous),
//   * morsel counts are consistent with the fan-out size and morsel size,
//   * the trace structure (ops, details, row counts) is identical at 1 and
//     8 threads — only wall times and morsel counts (serial runs claim one
//     morsel) may differ.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "mcx/evaluator.h"
#include "movie_fixture.h"
#include "query/trace.h"
#include "workload/runner.h"
#include "workload/tpcw_db.h"

namespace mct::mcx {
namespace {

using query::OpTrace;
using query::QueryTrace;
using testfix::BuildMovieDb;
using testfix::MovieDb;

// Read-only queries lifted from mcx_eval_test / mcx_more_test (mutating
// returns stripped where needed): paths, predicates, color crossings, value
// joins, nested loops, distinct-values, order by.
const char* kMovieQueries[] = {
    // Simple descendant path.
    "for $m in document(\"mdb.xml\")/{red}descendant::movie return $m",
    // Predicate on child content.
    "for $g in document(\"mdb.xml\")/{red}descendant::movie-genre"
    "[{red}child::name = \"Comedy\"] return $g",
    // Paper Q4's path: two color transitions (green->red, red->blue).
    "for $a in document(\"mdb.xml\")/{green}descendant::movie-award"
    "[contains({green}child::name, \"Oscar\")]/"
    "{green}descendant::movie[{green}child::votes > 10]/"
    "{red}child::movie-role/{blue}parent::actor return $a",
    // Where residual filter.
    "for $m in document(\"d\")/{green}descendant::movie "
    "where $m/{green}child::votes > 10 return $m",
    // Inequality value join: nested loop.
    "for $a in document(\"d\")/{green}descendant::movie, "
    "$b in document(\"d\")/{green}descendant::movie "
    "where $a/{green}child::votes > $b/{green}child::votes return $a",
    // Order by, descending.
    "for $m in document(\"d\")/{red}descendant::movie "
    "order by $m/{red}child::name descending return $m",
    // Distinct-values over a content path.
    "for $v in distinct-values(document(\"d\")/{green}descendant::votes) "
    "order by $v return $v",
    // Descendant-or-self with a relative predicate (deep dialect).
    "for $m in document(\"mdb.xml\")//movie-genre[name = \"Comedy\"]"
    "//movie[.//movie-role/name = \"Margo\"] return $m",
};

QueryResult RunTraced(MctDatabase* db, const std::string& text,
                      int num_threads, size_t morsel_size, QueryTrace* trace) {
  EvalOptions opts;
  opts.trace = trace;
  opts.num_threads = num_threads;
  opts.morsel_size = morsel_size;
  Evaluator ev(db, opts);
  auto r = ev.Run(text);
  EXPECT_TRUE(r.ok()) << r.status() << "\nquery: " << text;
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

// Results compare by node identity for node items, by value otherwise.
std::vector<std::string> ResultKeys(const QueryResult& r) {
  std::vector<std::string> keys;
  for (const Item& i : r.items) {
    keys.push_back(i.is_node ? "node:" + std::to_string(i.node)
                             : "val:" + i.atomic);
  }
  return keys;
}

void CheckMorselInvariant(const QueryTrace& trace, size_t morsel_size,
                          const std::string& text) {
  trace.root().Visit([&](const OpTrace& n) {
    if (n.morsels <= 1) return;  // serial or empty: nothing to check
    EXPECT_EQ(n.morsels, (n.fanout_rows + morsel_size - 1) / morsel_size)
        << n.op << " fanned out " << n.fanout_rows << " rows\nquery: " << text;
  });
}

void CheckChainInvariant(const QueryTrace& trace, const std::string& text) {
  trace.root().Visit([&](const OpTrace& g) {
    if (g.op != "FOR") return;
    for (size_t i = 1; i < g.children.size(); ++i) {
      EXPECT_EQ(g.children[i]->rows_in, g.children[i - 1]->rows_out)
          << g.children[i]->op << " after " << g.children[i - 1]->op
          << "\nquery: " << text;
    }
  });
}

// Structural equality, ignoring wall times (nondeterministic) and morsel
// counts (a serial run claims one morsel where a parallel run claims
// ceil(n / morsel_size)).
void ExpectSameStructure(const OpTrace& a, const OpTrace& b,
                         const std::string& text) {
  EXPECT_EQ(a.op, b.op) << "query: " << text;
  EXPECT_EQ(a.detail, b.detail) << a.op << "\nquery: " << text;
  EXPECT_EQ(a.rows_in, b.rows_in) << a.op << "\nquery: " << text;
  EXPECT_EQ(a.rows_out, b.rows_out) << a.op << "\nquery: " << text;
  EXPECT_EQ(a.fanout_rows, b.fanout_rows) << a.op << "\nquery: " << text;
  EXPECT_EQ(a.color_transitions, b.color_transitions)
      << a.op << "\nquery: " << text;
  ASSERT_EQ(a.children.size(), b.children.size())
      << a.op << "\nquery: " << text;
  for (size_t i = 0; i < a.children.size(); ++i) {
    ExpectSameStructure(*a.children[i], *b.children[i], text);
  }
}

TEST(TraceDifferentialTest, MovieCorpusSerialVsEightThreads) {
  for (const char* text : kMovieQueries) {
    // Fresh fixtures per run: tracing must not depend on shared state.
    MovieDb f1 = BuildMovieDb();
    MovieDb f8 = BuildMovieDb();
    QueryTrace t1;
    QueryTrace t8;
    // Morsel size 2 forces real fan-outs even on the small fixture.
    QueryResult r1 = RunTraced(f1.db.get(), text, 1, 2, &t1);
    QueryResult r8 = RunTraced(f8.db.get(), text, 8, 2, &t8);

    EXPECT_EQ(ResultKeys(r1), ResultKeys(r8)) << "query: " << text;
    EXPECT_EQ(t1.root().rows_out, r1.items.size()) << "query: " << text;
    EXPECT_EQ(t8.root().rows_out, r8.items.size()) << "query: " << text;
    EXPECT_GT(t1.NodeCount(), 0u) << "query: " << text;

    CheckChainInvariant(t1, text);
    CheckChainInvariant(t8, text);
    CheckMorselInvariant(t1, 2, text);
    CheckMorselInvariant(t8, 2, text);
    ExpectSameStructure(t1.root(), t8.root(), text);
  }
}

TEST(TraceDifferentialTest, PaperQ4CountsTwoColorTransitions) {
  MovieDb f = BuildMovieDb();
  QueryTrace trace;
  RunTraced(f.db.get(), kMovieQueries[2], 1, 1024, &trace);
  EXPECT_EQ(trace.TotalColorTransitions(), 2u);
  // The crossings are attributed to CROSS-TREE JOIN operators.
  uint64_t join_crossings = 0;
  trace.root().Visit([&](const OpTrace& n) {
    if (n.op == "CROSS-TREE JOIN") join_crossings += n.color_transitions;
  });
  EXPECT_EQ(join_crossings, 2u);
}

TEST(TraceDifferentialTest, RenderersCoverEveryNode) {
  MovieDb f = BuildMovieDb();
  QueryTrace trace;
  RunTraced(f.db.get(), kMovieQueries[2], 1, 1024, &trace);
  std::string text = trace.ToText();
  std::string json = trace.ToJson();
  trace.root().Visit([&](const OpTrace& n) {
    EXPECT_NE(text.find(n.op), std::string::npos) << n.op;
    EXPECT_NE(json.find("\"op\": \"" + n.op + "\""), std::string::npos)
        << n.op;
  });
  // JSON braces balance (cheap well-formedness check; full parsing happens
  // in the bench tooling).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// A database big enough that 8-thread runs actually claim several morsels:
// the trace must stay consistent under the real morsel pool, and the
// parallel run's morsel counts must match ceil(fanout / morsel_size).
TEST(TraceDifferentialTest, TpcwMorselCountsUnderParallelPool) {
  using namespace mct::workload;
  TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(0.02));
  auto db1 = BuildTpcw(data, SchemaKind::kMct);
  auto db8 = BuildTpcw(data, SchemaKind::kMct);
  ASSERT_TRUE(db1.ok());
  ASSERT_TRUE(db8.ok());
  const std::string text =
      "for $l in document(\"tpcw.xml\")/{cust}descendant::orderline"
      "[{cust}child::discount >= 0.25] return $l";

  QueryTrace t1;
  QueryTrace t8;
  auto r1 = RunQuery(db1->db.get(), text,
                     {.default_color = db1->default_color(),
                      .trace = &t1,
                      .num_threads = 1,
                      .morsel_size = 64});
  auto r8 = RunQuery(db8->db.get(), text,
                     {.default_color = db8->default_color(),
                      .trace = &t8,
                      .num_threads = 8,
                      .morsel_size = 64});
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r8.ok()) << r8.status();
  EXPECT_EQ(r1->result_count, r8->result_count);
  EXPECT_GT(r1->result_count, 0u);

  CheckChainInvariant(t1, text);
  CheckChainInvariant(t8, text);
  CheckMorselInvariant(t1, 64, text);
  CheckMorselInvariant(t8, 64, text);
  ExpectSameStructure(t1.root(), t8.root(), text);

  // The parallel run drove the descendant scan through several morsels.
  bool multi_morsel = false;
  t8.root().Visit([&](const OpTrace& n) {
    if (n.morsels > 1) multi_morsel = true;
  });
  EXPECT_TRUE(multi_morsel) << t8.ToText();
  // The serial run never fans out.
  t1.root().Visit(
      [&](const OpTrace& n) { EXPECT_LE(n.morsels, 1u) << n.op; });
}

TEST(TraceDifferentialTest, PausedNestedFlworStaysOutOfTrace) {
  // The per-row nested FLWOR in the return clause must not multiply the
  // trace by the outer cardinality.
  MovieDb f = BuildMovieDb();
  QueryTrace trace;
  RunTraced(f.db.get(),
            "for $g in document(\"d\")/{red}descendant::movie-genre "
            "return count(for $m in $g/{red}descendant::movie return $m)",
            1, 1024, &trace);
  uint64_t for_groups = 0;
  trace.root().Visit([&](const OpTrace& n) {
    if (n.op == "FOR") ++for_groups;
  });
  EXPECT_EQ(for_groups, 1u) << trace.ToText();
}

TEST(TraceDifferentialTest, DisabledTraceRecordsNothing) {
  MovieDb f = BuildMovieDb();
  EvalOptions opts;  // no trace sink
  Evaluator ev(f.db.get(), opts);
  auto r = ev.Run(kMovieQueries[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->items.size(), 3u);
}

}  // namespace
}  // namespace mct::mcx
