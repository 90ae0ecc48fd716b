// Tests for the tooling layer: the integrity validator, XML ingestion, the
// MCXQuery printer (parse/print round trips over the whole catalog) and the
// EXPLAIN plan trace.

#include <gtest/gtest.h>

#include "mct/validate.h"
#include "mct/xml_load.h"
#include "mcx/evaluator.h"
#include "mcx/parser.h"
#include "mcx/printer.h"
#include "movie_fixture.h"
#include "query/trace.h"
#include "workload/catalog.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace mct {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;

// ---- ValidateDatabase ----

TEST(ValidateTest, MovieDbIsConsistent) {
  MovieDb f = BuildMovieDb();
  ValidationReport r = ValidateDatabase(*f.db);
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_GT(r.nodes_checked, 20u);
  EXPECT_GT(r.edges_checked, 15u);
}

TEST(ValidateTest, WorkloadDatabasesAreConsistent) {
  using namespace workload;
  TpcwData data = GenerateTpcw(TpcwScale::Tiny());
  for (SchemaKind k :
       {SchemaKind::kMct, SchemaKind::kShallow, SchemaKind::kDeep}) {
    auto db = BuildTpcw(data, k);
    ASSERT_TRUE(db.ok());
    ValidationReport r = ValidateDatabase(*db->db);
    EXPECT_TRUE(r.ok()) << SchemaKindName(k) << ": " << r.ToString();
  }
  SigmodData sdata = GenerateSigmod(SigmodScale::Tiny());
  auto sdb = BuildSigmod(sdata, SchemaKind::kMct);
  ASSERT_TRUE(sdb.ok());
  EXPECT_TRUE(ValidateDatabase(*sdb->db).ok());
}

TEST(ValidateTest, StillConsistentAfterMutations) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->RemoveNodeColor(f.movie_sunset, f.green).ok());
  ASSERT_TRUE(f.db->SetContent(f.db->Children(f.movie_eve, f.green)[1], "20")
                  .ok());
  auto extra = f.db->CreateElement(f.red, f.genre_drama, "movie");
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(f.db->SetAttr(*extra, "id", "mX").ok());
  ValidationReport r = ValidateDatabase(*f.db);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST(ValidateTest, DetectsInjectedBitmaskCorruption) {
  MovieDb f = BuildMovieDb();
  // Inject: claim a color the node is in no tree of.
  f.db->mutable_store()->AddColor(f.actor_davis, f.red);
  ValidationReport r = ValidateDatabase(*f.db);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.ToString().find("bitmask"), std::string::npos) << r.ToString();
}

TEST(ValidateTest, ReportToStringFormats) {
  MovieDb f = BuildMovieDb();
  ValidationReport r = ValidateDatabase(*f.db);
  EXPECT_NE(r.ToString().find("consistent"), std::string::npos);
}

// ---- LoadXml ----

TEST(XmlLoadTest, LoadsDocumentWithAttrsAndContent) {
  MctDatabase db;
  ColorId c = *db.RegisterColor("doc");
  auto root = LoadXmlText(&db, c,
                          "<catalog><item sku=\"a1\">Widget</item>"
                          "<item sku=\"a2\"><name>Gadget</name></item>"
                          "</catalog>");
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(db.Tag(*root), "catalog");
  auto items = db.TagScan(c, "item");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(*db.FindAttr(items[0], "sku"), "a1");
  EXPECT_EQ(db.Content(items[0]), "Widget");
  EXPECT_EQ(db.Children(items[1], c).size(), 1u);
  EXPECT_TRUE(ValidateDatabase(db).ok());
}

TEST(XmlLoadTest, CommentsAndPisDropped) {
  MctDatabase db;
  ColorId c = *db.RegisterColor("doc");
  auto root = LoadXmlText(&db, c, "<a><!-- note --><?pi data?><b/></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(db.Children(*root, c).size(), 1u);
}

TEST(XmlLoadTest, MalformedInputFails) {
  MctDatabase db;
  ColorId c = *db.RegisterColor("doc");
  EXPECT_TRUE(LoadXmlText(&db, c, "<a><b></a>").status().IsParseError());
}

TEST(XmlLoadTest, LoadedDocumentIsQueryable) {
  MctDatabase db;
  ColorId c = *db.RegisterColor("doc");
  ASSERT_TRUE(LoadXmlText(&db, c,
                          "<lib><book><title>Dune</title><year>1965</year>"
                          "</book><book><title>Emma</title><year>1815</year>"
                          "</book></lib>")
                  .ok());
  mcx::Evaluator ev(&db, mcx::EvalOptions{.default_color = c});
  auto r = ev.Run(
      "for $b in document(\"lib\")//book[year < 1900] return $b/title");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(db.Content(r->items[0].node), "Emma");
}

// ---- Printer round trips ----

void ExpectStablePrint(const std::string& text) {
  auto q1 = mcx::Parse(text);
  ASSERT_TRUE(q1.ok()) << q1.status() << "\n" << text;
  std::string p1 = mcx::Print(*q1);
  auto q2 = mcx::Parse(p1);
  ASSERT_TRUE(q2.ok()) << q2.status() << "\nprinted: " << p1;
  EXPECT_EQ(mcx::Print(*q2), p1) << "original: " << text;
}

TEST(PrinterTest, CoreShapes) {
  ExpectStablePrint("for $m in document(\"d\")/{red}descendant::movie "
                    "return $m");
  ExpectStablePrint("for $m in document(\"d\")//movie[name = \"X\"][@id = "
                    "\"m1\"] return $m/@id");
  ExpectStablePrint("for $a in document(\"d\")//a, $b in document(\"d\")//b "
                    "where $a/@x = $b/@y and ($a/v > 3 or contains($b/s, "
                    "\"t\")) order by $a/v descending return <r>{ $a, $b "
                    "}</r>");
  ExpectStablePrint("let $n := document(\"d\")//x return count($n)");
  ExpectStablePrint(
      "for $v in distinct-values(document(\"d\")/{g}descendant::votes) "
      "return createColor(black, <t a=\"1\">txt{ $v }</t>)");
  ExpectStablePrint("for $x in document(\"d\")//y[. = $z] return "
                    "createCopy($x)");
  ExpectStablePrint("for $o in document(\"d\")//order[status = \"p\"] "
                    "update $o { insert <f>x</f> into {cust}, replace "
                    "status with \"done\", delete {cust} orderline }");
}

TEST(PrinterTest, WholeCatalogRoundTrips) {
  using namespace workload;
  TpcwData data = GenerateTpcw(TpcwScale::Tiny());
  for (const CatalogQuery& q : TpcwCatalog(data)) {
    ExpectStablePrint(q.mct);
    ExpectStablePrint(q.shallow);
    ExpectStablePrint(q.deep);
    if (!q.deep_nodup.empty()) ExpectStablePrint(q.deep_nodup);
  }
  SigmodData sdata = GenerateSigmod(SigmodScale::Tiny());
  for (const CatalogQuery& q : SigmodCatalog(sdata)) {
    ExpectStablePrint(q.mct);
    ExpectStablePrint(q.shallow);
    ExpectStablePrint(q.deep);
  }
}

TEST(PrinterTest, PrintedQueryEvaluatesIdentically) {
  MovieDb f = BuildMovieDb();
  const std::string text =
      "for $m in document(\"d\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"]/{red}descendant::movie "
      "order by $m/{red}child::name return $m/{red}child::name";
  auto parsed = mcx::Parse(text);
  ASSERT_TRUE(parsed.ok());
  mcx::Evaluator ev1(f.db.get(), {});
  auto r1 = ev1.Run(*parsed);
  ASSERT_TRUE(r1.ok());
  mcx::Evaluator ev2(f.db.get(), {});
  auto r2 = ev2.Run(mcx::Print(*parsed));
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->items.size(), r2->items.size());
  for (size_t i = 0; i < r1->items.size(); ++i) {
    EXPECT_EQ(r1->items[i].node, r2->items[i].node);
  }
}

// ---- EXPLAIN plan trace ----

TEST(ExplainTest, TracesStructuralPlan) {
  MovieDb f = BuildMovieDb();
  query::QueryTrace trace;
  mcx::EvalOptions opts;
  opts.trace = &trace;
  mcx::Evaluator ev(f.db.get(), opts);
  auto r = ev.Run(
      "for $a in document(\"d\")/{green}descendant::movie"
      "[{green}child::votes > 10]/{red}child::movie-role/"
      "{blue}parent::actor return $a");
  ASSERT_TRUE(r.ok()) << r.status();
  const std::string joined = trace.ToText();
  EXPECT_NE(joined.find("DESCENDANT STEP {green}descendant::movie"),
            std::string::npos)
      << joined;
  EXPECT_NE(joined.find("CROSS-TREE JOIN"), std::string::npos) << joined;
  EXPECT_NE(joined.find("{red}child::movie-role"), std::string::npos)
      << joined;
  EXPECT_NE(joined.find("FILTER predicate"), std::string::npos) << joined;
}

TEST(ExplainTest, TracesValueJoinPlan) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.actor_davis, "id", "a1").ok());
  ASSERT_TRUE(f.db->SetAttr(f.role_margo, "actorIdRef", "a1").ok());
  query::QueryTrace trace;
  mcx::EvalOptions opts;
  opts.trace = &trace;
  mcx::Evaluator ev(f.db.get(), opts);
  auto r = ev.Run(
      "for $a in document(\"d\")/{blue}descendant::actor, "
      "$r in document(\"d\")/{red}descendant::movie-role "
      "where $r/@actorIdRef = $a/@id return $r");
  ASSERT_TRUE(r.ok()) << r.status();
  const std::string joined = trace.ToText();
  EXPECT_NE(joined.find("HASH VALUE JOIN"), std::string::npos) << joined;
}

TEST(ExplainTest, TracesIndexProbe) {
  MovieDb f = BuildMovieDb();
  query::QueryTrace trace;
  mcx::EvalOptions opts;
  opts.trace = &trace;
  mcx::Evaluator ev(f.db.get(), opts);
  ASSERT_TRUE(ev.Run("for $g in document(\"d\")/{red}descendant::movie-genre"
                     "[{red}child::name = \"Comedy\"] return $g")
                  .ok());
  const std::string joined = trace.ToText();
  EXPECT_NE(joined.find("INDEX PROBE"), std::string::npos) << joined;
}

}  // namespace
}  // namespace mct
