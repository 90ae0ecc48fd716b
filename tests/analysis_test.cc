// Static-analysis subsystem tests (mcx/analysis.h):
//   * golden diagnostics — one test per MCX0xx / MCX1xx class, each on a
//     seeded bad statement, asserting the stable code, severity and span;
//   * strict-mode evaluator behavior — rejection with Status::StaticError
//     before any execution (updates leave the database untouched);
//   * a workload sweep — every TPC-W and SIGMOD-Record catalog statement
//     (all three dialects) passes strict analysis clean;
//   * a differential check — strict-clean queries return identical results
//     with analysis off, warn and strict;
//   * analysis.* metrics counters.

#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "gtest/gtest.h"
#include "mcx/analysis.h"
#include "mcx/evaluator.h"
#include "mcx/parser.h"
#include "movie_fixture.h"
#include "serialize/schema.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace mct::mcx {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;

constexpr char kDoc[] = "document(\"mdb.xml\")";

// Analyzes `text` against the schema inferred from the Figure 2 movie
// fixture, default color red.
AnalysisReport AnalyzeOnMovieDb(const std::string& text) {
  MovieDb f = BuildMovieDb();
  serialize::MctSchema schema = serialize::InferSchema(*f.db);
  auto parsed = Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  AnalyzeOptions opts;
  opts.schema = &schema;
  opts.default_color = "red";
  return Analyze(*parsed, opts);
}

// True when the report contains a diagnostic with `code`; checks that every
// diagnostic carries a resolvable span (line/col > 0).
bool HasCode(const AnalysisReport& r, const std::string& code) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

std::string Codes(const AnalysisReport& r) {
  std::string out;
  for (const Diagnostic& d : r.diagnostics) {
    out += d.ToString() + "\n";
  }
  return out;
}

// ---- golden diagnostics, one per class ------------------------------------

TEST(AnalysisTest, Mcx001UnknownColor) {
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{purple}descendant::movie return $m");
  ASSERT_TRUE(HasCode(r, "MCX001")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_TRUE(d.span.valid());
  EXPECT_EQ(d.line, 1u);
  EXPECT_GT(d.col, 1u);
  EXPECT_NE(d.message.find("purple"), std::string::npos);
}

TEST(AnalysisTest, Mcx002UnknownElement) {
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::moovie return $m");
  ASSERT_TRUE(HasCode(r, "MCX002")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
  EXPECT_NE(r.diagnostics[0].message.find("moovie"), std::string::npos);
}

TEST(AnalysisTest, Mcx003StaticallyEmptyStep) {
  // votes only exists in green; asking for it in red is provably empty.
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $v in ") + kDoc +
      "/{red}descendant::votes return $v");
  ASSERT_TRUE(HasCode(r, "MCX003")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
}

TEST(AnalysisTest, Mcx003CrossTreeTransitionEmpty) {
  // movie carries red+green but never blue: {blue}child off a movie flow
  // can match nothing.
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::movie/{blue}child::name return $m");
  ASSERT_TRUE(HasCode(r, "MCX003")) << Codes(r);
}

TEST(AnalysisTest, Mcx003TaintSuppressesCascade) {
  // The unknown color poisons the flow; the downstream steps must not pile
  // an MCX003 on top of the MCX001.
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{purple}descendant::movie/{red}child::name return $m");
  EXPECT_TRUE(HasCode(r, "MCX001")) << Codes(r);
  EXPECT_FALSE(HasCode(r, "MCX003")) << Codes(r);
}

TEST(AnalysisTest, Mcx004DuplicateNodeInCreateColor) {
  // The same enclosed identity-preserving expression twice in one
  // constructor: attaching it via createColor provably raises the paper's
  // Section 4.2 duplicate-node dynamic error.
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::movie "
      "return createColor(black, <wrap> { $m } { $m } </wrap>)");
  ASSERT_TRUE(HasCode(r, "MCX004")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
}

TEST(AnalysisTest, Mcx004NotFiredForCreateCopy) {
  // createCopy makes fresh nodes: the second occurrence is a different
  // node, so no duplicate is provable.
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::movie "
      "return createColor(black, <wrap> { $m } { createCopy($m) } </wrap>)");
  EXPECT_FALSE(HasCode(r, "MCX004")) << Codes(r);
}

TEST(AnalysisTest, Mcx005UnboundVariable) {
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::movie return $nosuch");
  ASSERT_TRUE(HasCode(r, "MCX005")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
}

TEST(AnalysisTest, Mcx006InsertIntoUnreachableColor) {
  // votes nodes are green-only; inserting under one into the blue tree
  // must fail at runtime (the parent is not in that tree).
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $v in ") + kDoc +
      "/{green}descendant::votes "
      "update $v { insert <flag>x</flag> into {blue} }");
  ASSERT_TRUE(HasCode(r, "MCX006")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
}

TEST(AnalysisTest, Mcx101CrossTreeJoinNoSharedColor) {
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $g in ") + kDoc +
      "/{red}descendant::movie-genre, $a in " + kDoc +
      "/{blue}descendant::actor "
      "where $g/{red}child::name = $a/{blue}child::name return $g");
  ASSERT_TRUE(HasCode(r, "MCX101")) << Codes(r);
  EXPECT_FALSE(r.HasErrors());  // warning only
  EXPECT_EQ(r.num_warnings(), 1u);
}

TEST(AnalysisTest, Mcx102AlwaysFalseWhere) {
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::movie where 1 > 2 return $m");
  ASSERT_TRUE(HasCode(r, "MCX102")) << Codes(r);
  EXPECT_FALSE(r.HasErrors());
}

TEST(AnalysisTest, Mcx102AlwaysFalsePredicate) {
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::movie[\"a\" = \"b\"] return $m");
  ASSERT_TRUE(HasCode(r, "MCX102")) << Codes(r);
}

TEST(AnalysisTest, Mcx103CardinalityBlowup) {
  // The Figure 8 schema's quant statistics: movie-genre is recursive with
  // quant 3 and movies have quant 20, so descendant::movie explodes.
  serialize::MctSchema schema = serialize::MovieSchemaOfFigure8();
  auto parsed = Parse(std::string("for $m in ") + kDoc +
                      "/{red}descendant::movie return $m");
  ASSERT_TRUE(parsed.ok());
  AnalyzeOptions opts;
  opts.schema = &schema;
  opts.default_color = "red";
  opts.blowup_threshold = 1e6;
  AnalysisReport r = Analyze(*parsed, opts);
  ASSERT_TRUE(HasCode(r, "MCX103")) << Codes(r);
  EXPECT_FALSE(r.HasErrors());
}

TEST(AnalysisTest, Mcx104PositionalBeyondQuantifier) {
  // Figure 8: movie has exactly one name ('1'); [2] can never select.
  serialize::MctSchema schema = serialize::MovieSchemaOfFigure8();
  auto parsed = Parse(std::string("for $n in ") + kDoc +
                      "/{red}descendant::movie/{red}child::name[2] "
                      "return $n");
  ASSERT_TRUE(parsed.ok());
  AnalyzeOptions opts;
  opts.schema = &schema;
  opts.default_color = "red";
  AnalysisReport r = Analyze(*parsed, opts);
  ASSERT_TRUE(HasCode(r, "MCX104")) << Codes(r);
  EXPECT_FALSE(r.HasErrors());
}

// ---- report rendering ------------------------------------------------------

TEST(AnalysisTest, CleanQueryRendersCleanCheck) {
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::movie return $m/{red}child::name");
  EXPECT_TRUE(r.diagnostics.empty()) << Codes(r);
  std::string text = r.ToText();
  EXPECT_NE(text.find("EXPLAIN CHECK"), std::string::npos);
  EXPECT_NE(text.find("check: clean"), std::string::npos);
  EXPECT_NE(text.find("movie@red"), std::string::npos);
  std::string json = r.ToJson();
  EXPECT_NE(json.find("\"errors\":0"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\":[]"), std::string::npos);
}

TEST(AnalysisTest, DiagnosticRenderingCarriesCodeAndPosition) {
  AnalysisReport r = AnalyzeOnMovieDb(
      std::string("for $m in ") + kDoc +
      "/{red}descendant::movie\n return $m/{purple}child::name");
  ASSERT_TRUE(HasCode(r, "MCX001")) << Codes(r);
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(d.line, 2u);  // the bad step is on the second line
  std::string s = d.ToString();
  EXPECT_NE(s.find("error MCX001 at 2:"), std::string::npos) << s;
  std::string json = r.ToJson();
  EXPECT_NE(json.find("\"code\":\"MCX001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
}

// ---- evaluator wiring ------------------------------------------------------

TEST(AnalysisTest, StrictModeRejectsWithStaticError) {
  MovieDb f = BuildMovieDb();
  EvalOptions opts;
  opts.analyze = AnalyzeMode::kStrict;
  AnalysisReport report;
  opts.check = &report;
  Evaluator ev(f.db.get(), opts);
  auto r = ev.Run(std::string("for $m in ") + kDoc +
                  "/{purple}descendant::movie return $m");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsStaticError()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("MCX001"), std::string::npos);
  EXPECT_TRUE(HasCode(report, "MCX001"));
}

TEST(AnalysisTest, WarnModeReportsButExecutes) {
  MovieDb f = BuildMovieDb();
  EvalOptions opts;
  opts.analyze = AnalyzeMode::kWarn;
  AnalysisReport report;
  opts.check = &report;
  Evaluator ev(f.db.get(), opts);
  // Statically empty (votes is green-only): warn mode still executes and
  // correctly returns zero rows.
  auto r = ev.Run(std::string("for $v in ") + kDoc +
                  "/{red}descendant::votes return $v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 0u);
  EXPECT_TRUE(HasCode(report, "MCX003"));
}

TEST(AnalysisTest, StrictRejectionPrecedesUpdateExecution) {
  MovieDb f = BuildMovieDb();
  const size_t nodes_before = f.db->store().size();
  EvalOptions opts;
  opts.analyze = AnalyzeMode::kStrict;
  Evaluator ev(f.db.get(), opts);
  auto r = ev.Run(std::string("for $v in ") + kDoc +
                  "/{green}descendant::votes "
                  "update $v { insert <flag>x</flag> into {blue} }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsStaticError()) << r.status().ToString();
  // Rejected before execution: no node was created.
  EXPECT_EQ(f.db->store().size(), nodes_before);
}

TEST(AnalysisTest, StrictModePassesCleanStatements) {
  MovieDb f = BuildMovieDb();
  EvalOptions opts;
  opts.analyze = AnalyzeMode::kStrict;
  Evaluator ev(f.db.get(), opts);
  auto r = ev.Run(std::string("for $m in ") + kDoc +
                  "/{red}descendant::movie-genre[{red}child::name = "
                  "\"Comedy\"]/{red}descendant::movie "
                  "return $m/{red}child::name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Comedy's subtree holds Eve and (via Slapstick) City Lights.
  EXPECT_EQ(r->items.size(), 2u);
}

TEST(AnalysisTest, ReusedEvaluatorSeesTypesItsUpdateAdds) {
  using namespace workload;
  auto t = BuildTpcw(GenerateTpcw(TpcwScale::Default().ScaledBy(0.05)),
                     SchemaKind::kMct);
  ASSERT_TRUE(t.ok()) << t.status();
  EvalOptions opts;
  opts.analyze = AnalyzeMode::kStrict;
  opts.default_color = t->cust;
  Evaluator ev(t->db.get(), opts);
  const std::string notes =
      std::string("for $n in ") + kDoc + "/{cust}descendant::note return $n";
  auto unknown = ev.Run(notes);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("MCX002"), std::string::npos)
      << unknown.status().ToString();

  auto insert = ev.Run(std::string("for $c in ") + kDoc +
                       "/{cust}descendant::customer[@id = \"c0\"] "
                       "update $c { insert <note>vip</note> into {cust} }");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  ASSERT_EQ(insert->updated_count, 1u);

  // The same evaluator re-projects its schema after its own update, and
  // agrees with a fresh one.
  auto seen = ev.Run(notes);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  ASSERT_EQ(seen->items.size(), 1u);
  Evaluator fresh(t->db.get(), opts);
  auto fresh_seen = fresh.Run(notes);
  ASSERT_TRUE(fresh_seen.ok()) << fresh_seen.status().ToString();
  ASSERT_EQ(fresh_seen->items.size(), 1u);
  EXPECT_EQ(seen->items[0].node, fresh_seen->items[0].node);
}

TEST(AnalysisTest, MetricsCountersAdvance) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const uint64_t runs0 = reg.counter("mct.analysis.runs")->value();
  const uint64_t errors0 = reg.counter("mct.analysis.errors")->value();
  const uint64_t rejected0 = reg.counter("mct.analysis.rejected")->value();

  MovieDb f = BuildMovieDb();
  EvalOptions opts;
  opts.analyze = AnalyzeMode::kStrict;
  Evaluator ev(f.db.get(), opts);
  auto ok = ev.Run(std::string("for $m in ") + kDoc +
                   "/{red}descendant::movie return $m");
  ASSERT_TRUE(ok.ok());
  auto bad = ev.Run(std::string("for $m in ") + kDoc +
                    "/{purple}descendant::movie return $m");
  ASSERT_FALSE(bad.ok());

  EXPECT_EQ(reg.counter("mct.analysis.runs")->value(), runs0 + 2);
  EXPECT_GE(reg.counter("mct.analysis.errors")->value(), errors0 + 1);
  EXPECT_EQ(reg.counter("mct.analysis.rejected")->value(), rejected0 + 1);
}

// ---- a seeded suite of bad statements, all rejected in strict mode --------

TEST(AnalysisTest, StrictRejectsSeededBadStatementSuite) {
  // At least one statement per error class; every one must be rejected
  // with a span-carrying stable code.
  const struct {
    const char* text;
    const char* expect_code;
  } kBad[] = {
      {"for $m in document(\"d\")/{purple}descendant::movie return $m",
       "MCX001"},
      {"for $m in document(\"d\")/{red}descendant::movie "
       "update $m { insert <x>1</x> into {purple} }",
       "MCX001"},
      {"for $m in document(\"d\")/{red}descendant::moovie return $m",
       "MCX002"},
      {"for $m in document(\"d\")/{red}descendant::movie/"
       "{red}child::actor return $m",
       "MCX003"},
      {"for $v in document(\"d\")/{red}descendant::votes return $v",
       "MCX003"},
      {"for $m in document(\"d\")/{red}descendant::movie/"
       "{blue}child::name return $m",
       "MCX003"},
      {"for $m in document(\"d\")/{red}descendant::movie "
       "return createColor(black, <w> { $m } { $m } </w>)",
       "MCX004"},
      {"for $m in document(\"d\")/{red}descendant::movie "
       "return createColor(black, <w> { $m/{red}child::name } "
       "{ $m/{red}child::name } </w>)",
       "MCX004"},
      {"for $m in document(\"d\")/{red}descendant::movie return $oops",
       "MCX005"},
      {"for $m in document(\"d\")/{red}descendant::movie "
       "where $ghost/{red}child::name = \"x\" update $m { delete name }",
       "MCX005"},
      {"for $v in document(\"d\")/{green}descendant::votes "
       "update $v { insert <f>1</f> into {blue} }",
       "MCX006"},
      {"for $a in document(\"d\")/{blue}descendant::actor "
       "update $a { insert <f>1</f> into {red} }",
       "MCX006"},
  };
  int rejected = 0;
  for (const auto& bad : kBad) {
    MovieDb f = BuildMovieDb();
    EvalOptions opts;
    opts.analyze = AnalyzeMode::kStrict;
    AnalysisReport report;
    opts.check = &report;
    Evaluator ev(f.db.get(), opts);
    auto r = ev.Run(bad.text);
    ASSERT_FALSE(r.ok()) << "not rejected: " << bad.text;
    EXPECT_TRUE(r.status().IsStaticError()) << r.status().ToString();
    EXPECT_TRUE(HasCode(report, bad.expect_code))
        << bad.text << "\n" << Codes(report);
    // Every error diagnostic carries a resolvable span.
    for (const Diagnostic& d : report.diagnostics) {
      if (d.severity != Severity::kError) continue;
      EXPECT_TRUE(d.span.valid()) << d.ToString();
      EXPECT_GE(d.line, 1u) << d.ToString();
    }
    ++rejected;
  }
  EXPECT_GE(rejected, 10);
}

// ---- workload sweeps: every catalog statement is strict-clean -------------

TEST(AnalysisTest, TpcwCatalogStrictClean) {
  workload::TpcwData data =
      workload::GenerateTpcw(workload::TpcwScale::Default().ScaledBy(0.02));
  for (auto kind : {workload::SchemaKind::kMct, workload::SchemaKind::kShallow,
                    workload::SchemaKind::kDeep}) {
    auto db = workload::BuildTpcw(data, kind);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const workload::CatalogQuery& q : workload::TpcwCatalog(data)) {
      std::vector<const std::string*> texts;
      if (kind == workload::SchemaKind::kMct) {
        texts = {&q.mct};
      } else if (kind == workload::SchemaKind::kShallow) {
        texts = {&q.shallow};
      } else {
        texts = {&q.deep, &q.deep_nodup};
      }
      for (const std::string* text : texts) {
        const std::string& stmt = *text;
        if (stmt.empty()) continue;
        AnalysisReport report;
        auto run = workload::RunQuery(db->db.get(), stmt,
                                      {.default_color = db->default_color(),
                                       .analyze = AnalyzeMode::kStrict,
                                       .check = &report});
        ASSERT_TRUE(run.ok()) << q.id << " [" << static_cast<int>(kind)
                              << "]: " << run.status().ToString() << "\n"
                              << stmt;
        EXPECT_FALSE(report.HasErrors()) << q.id << "\n" << Codes(report);
      }
    }
  }
}

TEST(AnalysisTest, SigmodCatalogStrictClean) {
  workload::SigmodData data = workload::GenerateSigmod(
      workload::SigmodScale::Default().ScaledBy(0.05));
  for (auto kind : {workload::SchemaKind::kMct, workload::SchemaKind::kShallow,
                    workload::SchemaKind::kDeep}) {
    auto db = workload::BuildSigmod(data, kind);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const workload::CatalogQuery& q : workload::SigmodCatalog(data)) {
      const std::string& stmt = kind == workload::SchemaKind::kMct ? q.mct
                                : kind == workload::SchemaKind::kShallow
                                    ? q.shallow
                                    : q.deep;
      if (stmt.empty()) continue;
      AnalysisReport report;
      auto run = workload::RunQuery(db->db.get(), stmt,
                                    {.default_color = db->default_color(),
                                     .analyze = AnalyzeMode::kStrict,
                                     .check = &report});
      ASSERT_TRUE(run.ok()) << q.id << ": " << run.status().ToString() << "\n"
                            << stmt;
      EXPECT_FALSE(report.HasErrors()) << q.id << "\n" << Codes(report);
    }
  }
}

// ---- differential: analysis must not change results -----------------------

TEST(AnalysisTest, AnalysisOnOffDifferential) {
  const char* kQueries[] = {
      "for $m in document(\"d\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"]/{red}descendant::movie "
      "return $m/{red}child::name",
      "for $a in document(\"d\")/{blue}descendant::actor "
      "return $a/{blue}child::name",
      "for $m in document(\"d\")/{green}descendant::movie-award"
      "[contains({green}child::name, \"Oscar\")]/"
      "{green}descendant::movie return $m/{green}child::votes",
  };
  for (const char* text : kQueries) {
    std::vector<std::vector<std::string>> runs;
    for (AnalyzeMode mode :
         {AnalyzeMode::kOff, AnalyzeMode::kWarn, AnalyzeMode::kStrict}) {
      MovieDb f = BuildMovieDb();
      EvalOptions opts;
      opts.analyze = mode;
      Evaluator ev(f.db.get(), opts);
      auto r = ev.Run(text);
      ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
      std::vector<std::string> values;
      for (const Item& item : r->items) {
        values.push_back(item.is_node ? f.db->Content(item.node)
                                      : item.atomic);
      }
      runs.push_back(std::move(values));
    }
    EXPECT_EQ(runs[0], runs[1]) << text;
    EXPECT_EQ(runs[0], runs[2]) << text;
  }
}

// ---- MCX2xx secure color views (DESIGN.md §16) ----------------------------

// Analyzes `text` on the movie fixture under a visibility mask.
AnalysisReport AnalyzeMasked(const std::string& text,
                             std::vector<std::string> read,
                             std::vector<std::string> write) {
  MovieDb f = BuildMovieDb();
  serialize::MctSchema schema = serialize::InferSchema(*f.db);
  auto parsed = Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  AnalyzeOptions opts;
  opts.schema = &schema;
  opts.default_color = "red";
  opts.mask.active = true;
  opts.mask.read = std::move(read);
  opts.mask.write = std::move(write);
  return Analyze(*parsed, opts);
}

TEST(AnalysisTest, Mcx200NamedInvisibleColor) {
  AnalysisReport r = AnalyzeMasked(
      std::string("for $a in ") + kDoc +
          "/{green}descendant::movie-award return $a",
      {"red", "blue"}, {"red", "blue"});
  ASSERT_TRUE(HasCode(r, "MCX200")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_TRUE(d.span.valid());
  EXPECT_NE(d.message.find("green"), std::string::npos);
}

TEST(AnalysisTest, Mcx200TaintSuppressesDownstreamCascade) {
  // The masked first step poisons the flow; the visible downstream step
  // must not pile MCX003/MCX201 on top of the MCX200.
  AnalysisReport r = AnalyzeMasked(
      std::string("for $m in ") + kDoc +
          "/{green}descendant::movie/{red}child::name return $m",
      {"red", "blue"}, {"red", "blue"});
  EXPECT_TRUE(HasCode(r, "MCX200")) << Codes(r);
  EXPECT_FALSE(HasCode(r, "MCX003")) << Codes(r);
  EXPECT_FALSE(HasCode(r, "MCX201")) << Codes(r);
  EXPECT_EQ(r.num_errors(), 1u) << Codes(r);
}

TEST(AnalysisTest, Mcx201DefaultColorInvisible) {
  // The statement names no color at all; the steps resolve to the default
  // (red), which the mask hides — reachable only through invisible colors.
  AnalysisReport r = AnalyzeMasked(
      std::string("for $m in ") + kDoc + "/descendant::movie return $m",
      {"green", "blue"}, {"green", "blue"});
  ASSERT_TRUE(HasCode(r, "MCX201")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
  EXPECT_FALSE(HasCode(r, "MCX200")) << Codes(r);
  EXPECT_NE(r.diagnostics[0].message.find("default"), std::string::npos);
}

TEST(AnalysisTest, Mcx202UpdateIntoWriteInvisibleColor) {
  // green is readable but not writable: the binding passes, the insert
  // into {green} is refused.
  AnalysisReport r = AnalyzeMasked(
      std::string("for $v in ") + kDoc +
          "/{green}descendant::votes "
          "update $v { insert <flag>x</flag> into {green} }",
      {"red", "green"}, {"red"});
  ASSERT_TRUE(HasCode(r, "MCX202")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
  EXPECT_NE(Codes(r).find("write mask"), std::string::npos);
}

TEST(AnalysisTest, Mcx202CreateColorOutsideWriteMask) {
  AnalysisReport r = AnalyzeMasked(
      std::string("for $m in ") + kDoc +
          "/{red}descendant::movie "
          "return createColor(black, <wrap> { $m } </wrap>)",
      {"red"}, {"red"});
  ASSERT_TRUE(HasCode(r, "MCX202")) << Codes(r);
  EXPECT_TRUE(r.HasErrors());
}

TEST(AnalysisTest, Mcx203JoinBridgesOnlyThroughMaskedColor) {
  // The red-vs-blue name join of the MCX101 test: the `name` type also
  // carries green (award names), so with green masked the join's only
  // bridge is invisible — error, not the plain MCX101 warning.
  const std::string join =
      std::string("for $g in ") + kDoc +
      "/{red}descendant::movie-genre, $a in " + kDoc +
      "/{blue}descendant::actor "
      "where $g/{red}child::name = $a/{blue}child::name return $g";
  AnalysisReport masked =
      AnalyzeMasked(join, {"red", "blue"}, {"red", "blue"});
  ASSERT_TRUE(HasCode(masked, "MCX203")) << Codes(masked);
  EXPECT_TRUE(masked.HasErrors());
  EXPECT_FALSE(HasCode(masked, "MCX101")) << Codes(masked);
  // Unmasked, the same statement stays the MCX101 warning.
  AnalysisReport plain = AnalyzeOnMovieDb(join);
  EXPECT_TRUE(HasCode(plain, "MCX101")) << Codes(plain);
  EXPECT_FALSE(HasCode(plain, "MCX203")) << Codes(plain);
}

TEST(AnalysisTest, Mcx204ResultSharedWithMaskedColor) {
  // movie nodes are red+green; returning them under a green-less mask may
  // leak the structure of the green hierarchy through node identity.
  AnalysisReport r = AnalyzeMasked(
      std::string("for $m in ") + kDoc + "/{red}descendant::movie return $m",
      {"red", "blue"}, {"red", "blue"});
  ASSERT_TRUE(HasCode(r, "MCX204")) << Codes(r);
  EXPECT_FALSE(r.HasErrors());  // warning only
  EXPECT_NE(Codes(r).find("green"), std::string::npos);
}

TEST(AnalysisTest, FullMaskMatchesNoMaskDiagnostics) {
  // A mask admitting every schema color must not change the diagnostics of
  // any statement (the zero-cost-when-on-but-full contract).
  const std::string kStatements[] = {
      std::string("for $m in ") + kDoc +
          "/{red}descendant::movie return $m/{red}child::name",
      std::string("for $v in ") + kDoc +
          "/{red}descendant::votes return $v",  // MCX003
      std::string("for $g in ") + kDoc +
          "/{red}descendant::movie-genre, $a in " + kDoc +
          "/{blue}descendant::actor "
          "where $g/{red}child::name = $a/{blue}child::name "
          "return $g",  // MCX101
  };
  for (const std::string& text : kStatements) {
    AnalysisReport plain = AnalyzeOnMovieDb(text);
    AnalysisReport full = AnalyzeMasked(text, {"red", "green", "blue"},
                                        {"red", "green", "blue"});
    EXPECT_EQ(Codes(plain), Codes(full)) << text;
  }
}

TEST(AnalysisTest, DiagnosticsSortedBySourceOffset) {
  // MCX204 is emitted after the whole statement is analyzed but anchors at
  // the statement root, before the mid-statement MCX102 span — rendering
  // must reorder by byte offset, not emission order.
  AnalysisReport r = AnalyzeMasked(
      std::string("for $m in ") + kDoc +
          "/{red}descendant::movie where 1 > 2 return $m",
      {"red", "blue"}, {"red", "blue"});
  ASSERT_TRUE(HasCode(r, "MCX204")) << Codes(r);
  ASSERT_TRUE(HasCode(r, "MCX102")) << Codes(r);
  for (size_t i = 1; i < r.diagnostics.size(); ++i) {
    EXPECT_LE(r.diagnostics[i - 1].span.begin, r.diagnostics[i].span.begin)
        << Codes(r);
  }
}

// ---- MCX2xx evaluator wiring -----------------------------------------------

TEST(AnalysisTest, StrictMaskRejectsWithPermissionDenied) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const uint64_t vis0 =
      reg.counter("mct.analysis.visibility.rejected")->value();
  MovieDb f = BuildMovieDb();
  EvalOptions opts;  // analyze stays kOff: the mask alone forces the pass
  opts.mask = ColorMask::AllowOnly(
      ColorSet::Of(f.red).Union(ColorSet::Of(f.blue)));
  AnalysisReport report;
  opts.check = &report;
  Evaluator ev(f.db.get(), opts);
  auto r = ev.Run(std::string("for $a in ") + kDoc +
                  "/{green}descendant::movie-award return $a");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsPermissionDenied()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("MCX200"), std::string::npos);
  EXPECT_TRUE(HasCode(report, "MCX200"));
  EXPECT_EQ(reg.counter("mct.analysis.visibility.rejected")->value(),
            vis0 + 1);
}

TEST(AnalysisTest, WarnMaskFiltersResultsAtEvaluatorLayer) {
  MovieDb f = BuildMovieDb();
  EvalOptions opts;
  opts.mask = ColorMask::AllowOnly(
      ColorSet::Of(f.red).Union(ColorSet::Of(f.blue)));
  opts.mask_enforcement = AnalyzeMode::kWarn;
  Evaluator ev(f.db.get(), opts);
  const std::string q = std::string("for $a in ") + kDoc +
                        "/{green}descendant::movie-award return $a";
  auto masked = ev.Run(q);
  ASSERT_TRUE(masked.ok()) << masked.status().ToString();
  EXPECT_EQ(masked->items.size(), 0u);  // layer-3 filtering, no leak

  MovieDb g = BuildMovieDb();
  Evaluator plain(g.db.get(), EvalOptions{});
  auto open = plain.Run(q);
  ASSERT_TRUE(open.ok());
  EXPECT_GT(open->items.size(), 0u);  // the same query sees data unmasked
}

TEST(AnalysisTest, MaskedUpdateRefusedBeforeSideEffects) {
  // Even under kWarn (analyzer does not reject), the evaluator's write
  // gate refuses before the first mutation.
  MovieDb f = BuildMovieDb();
  const size_t nodes_before = f.db->store().size();
  EvalOptions opts;
  opts.mask = ColorMask(
      ColorSet::Of(f.red).Union(ColorSet::Of(f.green)), ColorSet::Of(f.red));
  opts.mask_enforcement = AnalyzeMode::kWarn;
  Evaluator ev(f.db.get(), opts);
  auto r = ev.Run(std::string("for $v in ") + kDoc +
                  "/{green}descendant::votes "
                  "update $v { insert <flag>x</flag> into {green} }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsPermissionDenied()) << r.status().ToString();
  EXPECT_EQ(f.db->store().size(), nodes_before);
}

TEST(AnalysisTest, FullMaskRunsMatchNoMaskRuns) {
  const char* kQueries[] = {
      "for $m in document(\"d\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"]/{red}descendant::movie "
      "return $m/{red}child::name",
      "for $a in document(\"d\")/{blue}descendant::actor "
      "return $a/{blue}child::name",
  };
  for (const char* text : kQueries) {
    MovieDb f = BuildMovieDb();
    Evaluator plain(f.db.get(), EvalOptions{});
    auto base = plain.Run(text);
    ASSERT_TRUE(base.ok()) << base.status().ToString();

    MovieDb g = BuildMovieDb();
    EvalOptions opts;
    ColorSet all;
    for (size_t c = 0; c < g.db->num_colors(); ++c) {
      all.Add(static_cast<ColorId>(c));
    }
    opts.mask = ColorMask::AllowOnly(all);
    Evaluator full(g.db.get(), opts);
    auto masked = full.Run(text);
    ASSERT_TRUE(masked.ok()) << masked.status().ToString();

    ASSERT_EQ(base->items.size(), masked->items.size()) << text;
    for (size_t i = 0; i < base->items.size(); ++i) {
      ASSERT_EQ(base->items[i].is_node, masked->items[i].is_node);
      if (base->items[i].is_node) {
        EXPECT_EQ(f.db->Content(base->items[i].node),
                  g.db->Content(masked->items[i].node));
      } else {
        EXPECT_EQ(base->items[i].atomic, masked->items[i].atomic);
      }
    }
  }
}

// ---- masked vs unmasked workload differentials ----------------------------

// Full-visibility masks must be byte-identical to running with no mask at
// all, across every statement of both workload catalogs.
TEST(AnalysisTest, TpcwFullMaskDifferential) {
  workload::TpcwData data =
      workload::GenerateTpcw(workload::TpcwScale::Default().ScaledBy(0.02));
  auto db = workload::BuildTpcw(data, workload::SchemaKind::kMct);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ColorSet all;
  for (size_t c = 0; c < db->db->num_colors(); ++c) {
    all.Add(static_cast<ColorId>(c));
  }
  const ColorMask full = ColorMask::AllowOnly(all);
  for (const workload::CatalogQuery& q : workload::TpcwCatalog(data)) {
    if (q.mct.empty()) continue;
    auto base = workload::RunQuery(db->db.get(), q.mct,
                                   {.default_color = db->default_color()},
                                   /*collect_values=*/true);
    ASSERT_TRUE(base.ok()) << q.id << ": " << base.status().ToString();
    auto masked = workload::RunQuery(
        db->db.get(), q.mct,
        {.default_color = db->default_color(), .mask = full},
        /*collect_values=*/true);
    ASSERT_TRUE(masked.ok()) << q.id << ": " << masked.status().ToString();
    EXPECT_EQ(base->result_count, masked->result_count) << q.id;
    EXPECT_EQ(base->values, masked->values) << q.id;
  }
}

TEST(AnalysisTest, SigmodFullMaskDifferential) {
  workload::SigmodData data = workload::GenerateSigmod(
      workload::SigmodScale::Default().ScaledBy(0.05));
  auto db = workload::BuildSigmod(data, workload::SchemaKind::kMct);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ColorSet all;
  for (size_t c = 0; c < db->db->num_colors(); ++c) {
    all.Add(static_cast<ColorId>(c));
  }
  const ColorMask full = ColorMask::AllowOnly(all);
  for (const workload::CatalogQuery& q : workload::SigmodCatalog(data)) {
    if (q.mct.empty()) continue;
    auto base = workload::RunQuery(db->db.get(), q.mct,
                                   {.default_color = db->default_color()},
                                   /*collect_values=*/true);
    ASSERT_TRUE(base.ok()) << q.id << ": " << base.status().ToString();
    auto masked = workload::RunQuery(
        db->db.get(), q.mct,
        {.default_color = db->default_color(), .mask = full},
        /*collect_values=*/true);
    ASSERT_TRUE(masked.ok()) << q.id << ": " << masked.status().ToString();
    EXPECT_EQ(base->result_count, masked->result_count) << q.id;
    EXPECT_EQ(base->values, masked->values) << q.id;
  }
}

}  // namespace
}  // namespace mct::mcx
