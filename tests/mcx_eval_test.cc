// Evaluator tests: the paper's Figure 3 queries Q1-Q5 run verbatim against
// the Figure 2 movie database fixture.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "mcx/evaluator.h"
#include "mcx/parser.h"
#include "movie_fixture.h"

namespace mct::mcx {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;

QueryResult MustRun(Evaluator& ev, const std::string& text) {
  auto r = ev.Run(text);
  EXPECT_TRUE(r.ok()) << r.status() << "\nquery: " << text;
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

std::set<NodeId> NodeSet(const QueryResult& r) {
  std::set<NodeId> out;
  for (const Item& i : r.items) {
    if (i.is_node) out.insert(i.node);
  }
  return out;
}

TEST(EvalTest, SimplePathQuery) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev, "for $m in document(\"mdb.xml\")/{red}descendant::movie return $m");
  EXPECT_EQ(NodeSet(r),
            (std::set<NodeId>{f.movie_eve, f.movie_lights, f.movie_sunset}));
}

std::vector<NodeId> Nodes(const QueryResult& r) {
  std::vector<NodeId> out;
  for (const Item& i : r.items) out.push_back(i.node);
  return out;
}

TEST(EvalTest, PredicateOnChildContent) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "year", "1950").ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_lights, "year", "1931").ok());
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $g in document(\"mdb.xml\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"] return $g");
  EXPECT_EQ(NodeSet(r), (std::set<NodeId>{f.genre_comedy}));

  // [path op literal] over one child or attribute step runs on the
  // evaluator's comparison fast path (the selective-tag semi-join when the
  // tag is rare, else a per-row child walk). The mirrored [literal op'
  // path] runs on the interpreter and must select the same rows in the
  // same order: every operator, numeric and string literals, a movie with
  // no year attribute (Sunset) and one outside the predicate's color (City
  // Lights is not green).
  const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  const char* converse[] = {"=", "!=", ">", ">=", "<", "<="};
  struct Case {
    const char* context;
    const char* path;
    std::vector<const char*> literals;
  };
  const Case cases[] = {
      {"{red}descendant::movie", "{green}child::votes",
       {"8", "\"10\"", "\"9x\""}},
      {"{red}descendant::movie", "@year", {"1950", "\"1931\"", "\"194\""}},
      {"{red}descendant::movie-genre", "{red}child::name",
       {"\"Comedy\"", "\"D\""}},
      // One context row against nine red names: the per-row walk.
      {"{red}child::movie-genre", "{red}child::name", {"\"All\"", "\"B\""}},
  };
  for (const Case& c : cases) {
    for (const char* lit : c.literals) {
      for (size_t k = 0; k < 6; ++k) {
        const std::string head =
            std::string("for $x in document(\"d\")/") + c.context + "[";
        const std::string fast =
            head + c.path + " " + ops[k] + " " + lit + "] return $x";
        const std::string mirrored =
            head + lit + " " + converse[k] + " " + c.path + "] return $x";
        EXPECT_EQ(Nodes(MustRun(ev, fast)), Nodes(MustRun(ev, mirrored)))
            << fast << "\n" << mirrored;
      }
    }
  }
  EXPECT_EQ(Nodes(MustRun(ev,
                          "for $x in document(\"d\")/{red}descendant::movie"
                          "[{green}child::votes < 10] return $x")),
            (std::vector<NodeId>{f.movie_sunset}));
  EXPECT_EQ(Nodes(MustRun(ev,
                          "for $x in document(\"d\")/{red}descendant::movie"
                          "[@year != \"1931\"] return $x")),
            (std::vector<NodeId>{f.movie_eve}));
}

// ---- Figure 3, Q1: comedy movies whose title contains "Eve". ----
TEST(EvalTest, PaperQ1) {
  MovieDb f = BuildMovieDb();
  query::ExecStats stats;
  Evaluator ev(f.db.get(), EvalOptions{.default_color = 0, .stats = &stats});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"mdb.xml\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"]/"
      "{red}descendant::movie[contains({red}child::name, \"Eve\")] "
      "return createColor(black, <m-name> { $m/{red}child::name } "
      "</m-name>)");
  ASSERT_EQ(r.items.size(), 1u);
  NodeId mname = r.items[0].node;
  EXPECT_EQ(f.db->Tag(mname), "m-name");
  // The enclosed expression retained the identity of Eve's name node
  // (paper: "the result ... would contain the node with identity RG015").
  ColorId black = f.db->LookupColor("black");
  ASSERT_NE(black, kInvalidColorId);
  auto kids = f.db->Children(mname, black);
  ASSERT_EQ(kids.size(), 1u);
  NodeId eve_name = f.db->Children(f.movie_eve, f.red)[0];
  EXPECT_EQ(kids[0], eve_name);
  EXPECT_TRUE(f.db->Colors(eve_name).Has(black));
  EXPECT_TRUE(f.db->Colors(eve_name).Has(f.red));    // keeps old colors
  EXPECT_TRUE(f.db->Colors(eve_name).Has(f.green));
  // Q1 is single-colored: no cross-tree joins.
  EXPECT_EQ(stats.cross_tree_joins, 0u);
}

// ---- Figure 3, Q2: comedy movies with "Eve" nominated for an Oscar. ----
TEST(EvalTest, PaperQ2) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"mdb.xml\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"]/"
      "{red}descendant::movie[contains({red}child::name, \"Eve\")], "
      "$m in document(\"mdb.xml\")/{green}descendant::movie-award"
      "[contains({green}child::name, \"Oscar\")]/"
      "{green}descendant::movie "
      "return createColor(black, <m-name> { $m/{red}child::name } "
      "</m-name>)");
  ASSERT_EQ(r.items.size(), 1u);
  Evaluator ev2(f.db.get(), EvalOptions{});
  std::string xml = ev2.ToXml(r, f.db->LookupColor("black"));
  EXPECT_EQ(xml, "<m-name><name>All About Eve</name></m-name>\n");
}

// Q2 with a non-Oscar-nominated pattern: Lights is a comedy but not green.
TEST(EvalTest, PaperQ2NoNominationNoResult) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"mdb.xml\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"]/"
      "{red}descendant::movie[contains({red}child::name, \"Lights\")], "
      "$m in document(\"mdb.xml\")/{green}descendant::movie-award"
      "[contains({green}child::name, \"Oscar\")]/"
      "{green}descendant::movie "
      "return $m");
  EXPECT_TRUE(r.items.empty());
}

// ---- Figure 3, Q3: comedy movies nominated for an Oscar, with Bette
// Davis. ----
TEST(EvalTest, PaperQ3) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"mdb.xml\")/{green}descendant::movie-award"
      "[contains({green}child::name, \"Oscar\")]/"
      "{green}descendant::movie, "
      "$r in document(\"mdb.xml\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"]/"
      "{red}descendant::movie[. = $m]/{red}child::movie-role, "
      "$r in document(\"mdb.xml\")/{blue}descendant::actor"
      "[{blue}child::name = \"Bette Davis\"]/{blue}child::movie-role "
      "return createColor(black, <m-name> { $m/{red}child::name } "
      "</m-name>)");
  ASSERT_EQ(r.items.size(), 1u);
  ColorId black = f.db->LookupColor("black");
  NodeId eve_name = f.db->Children(f.movie_eve, f.red)[0];
  EXPECT_EQ(f.db->Children(r.items[0].node, black)[0], eve_name);
}

// ---- Figure 3, Q4: actors in Oscar-nominated movies with > 10 votes. ----
TEST(EvalTest, PaperQ4) {
  MovieDb f = BuildMovieDb();
  query::ExecStats stats;
  Evaluator ev(f.db.get(), EvalOptions{.default_color = 0, .stats = &stats});
  QueryResult r = MustRun(
      ev,
      "for $a in document(\"mdb.xml\")/{green}descendant::movie-award"
      "[contains({green}child::name, \"Oscar\")]/"
      "{green}descendant::movie[{green}child::votes > 10]/"
      "{red}child::movie-role/{blue}parent::actor "
      "return createColor(black, <a-name> { $a/{blue}child::name } "
      "</a-name>)");
  ASSERT_EQ(r.items.size(), 1u);
  ColorId black = f.db->LookupColor("black");
  NodeId davis_name = f.db->Children(f.actor_davis, f.blue)[0];
  EXPECT_EQ(f.db->Children(r.items[0].node, black)[0], davis_name);
  // Q4's path crosses green->red and red->blue: two color transitions.
  EXPECT_EQ(stats.cross_tree_joins, 2u);
}

// ---- Figure 3, Q5: Oscar movies grouped by votes. ----
TEST(EvalTest, PaperQ5) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "createColor(black, <byvotes> {"
      " for $v in distinct-values(document(\"mdb.xml\")/"
      "{green}descendant::votes)"
      " order by $v"
      " return <award-byvotes> {"
      "   for $m in document(\"mdb.xml\")/{green}descendant::movie"
      "     [{green}child::votes = $v]"
      "   return $m }"
      "   <votes> { $v } </votes>"
      " </award-byvotes>"
      "} </byvotes>)");
  ASSERT_EQ(r.items.size(), 1u);
  ColorId black = f.db->LookupColor("black");
  NodeId byvotes = r.items[0].node;
  EXPECT_EQ(f.db->Tag(byvotes), "byvotes");
  auto groups = f.db->Children(byvotes, black);
  ASSERT_EQ(groups.size(), 2u);  // votes 8 and 14
  // Ascending vote order: Sunset (8) then Eve (14).
  auto g0 = f.db->Children(groups[0], black);
  ASSERT_EQ(g0.size(), 2u);  // movie + votes
  EXPECT_EQ(g0[0], f.movie_sunset);
  EXPECT_EQ(f.db->Tag(g0[1]), "votes");
  EXPECT_EQ(f.db->Content(g0[1]), "8");
  auto g1 = f.db->Children(groups[1], black);
  EXPECT_EQ(g1[0], f.movie_eve);
  EXPECT_EQ(f.db->Content(g1[1]), "14");
  // Paper: "movie nodes now have three colors"; the new votes nodes are
  // black only.
  EXPECT_EQ(f.db->Colors(f.movie_eve).count(), 3);
  EXPECT_EQ(f.db->Colors(g1[1]).count(), 1);
  // The movies' original votes children were NOT recolored.
  NodeId orig_votes = f.db->Children(f.movie_eve, f.green)[1];
  EXPECT_NE(orig_votes, g1[1]);
  EXPECT_FALSE(f.db->Colors(orig_votes).Has(black));
}

// ---- Section 4.2: duplicate node in one colored tree is a dynamic
// error. ----
TEST(EvalTest, DuplicateNodeDynamicError) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  auto r = ev.Run(
      "for $m in document(\"mdb.xml\")/{red}descendant::movie"
      "[contains({red}child::name, \"Eve\")] "
      "return createColor(black, <dupl-problem>"
      "<m1> { $m/{red}child::name } </m1>"
      "<m2> { $m/{red}child::name } </m2>"
      "</dupl-problem>)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDynamicError()) << r.status();
}

TEST(EvalTest, CreateCopyAvoidsDynamicError) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"mdb.xml\")/{red}descendant::movie"
      "[contains({red}child::name, \"Eve\")] "
      "return createColor(black, <dupl-problem>"
      "<m1> { createCopy($m/{red}child::name) } </m1>"
      "<m2> { createCopy($m/{red}child::name) } </m2>"
      "</dupl-problem>)");
  ASSERT_EQ(r.items.size(), 1u);
  ColorId black = f.db->LookupColor("black");
  auto kids = f.db->Children(r.items[0].node, black);
  ASSERT_EQ(kids.size(), 2u);
  NodeId c1 = f.db->Children(kids[0], black)[0];
  NodeId c2 = f.db->Children(kids[1], black)[0];
  EXPECT_NE(c1, c2);  // fresh identities
  EXPECT_EQ(f.db->Content(c1), "All About Eve");
  EXPECT_EQ(f.db->Content(c2), "All About Eve");
  NodeId eve_name = f.db->Children(f.movie_eve, f.red)[0];
  EXPECT_NE(c1, eve_name);
  EXPECT_FALSE(f.db->Colors(eve_name).Has(black));
}

// ---- Value joins (shallow dialect) ----
TEST(EvalTest, ShallowStyleValueJoin) {
  // Single-color database with ID/IDREF links.
  MctDatabase db;
  ColorId doc = *db.RegisterColor("doc");
  NodeId root = *db.CreateElement(doc, db.document(), "db");
  NodeId g1 = *db.CreateElement(doc, root, "genre");
  ASSERT_TRUE(db.SetAttr(g1, "id", "g1").ok());
  ASSERT_TRUE(db.SetContent(*db.CreateElement(doc, g1, "name"), "Comedy").ok());
  NodeId g2 = *db.CreateElement(doc, root, "genre");
  ASSERT_TRUE(db.SetAttr(g2, "id", "g2").ok());
  ASSERT_TRUE(db.SetContent(*db.CreateElement(doc, g2, "name"), "Drama").ok());
  for (int i = 0; i < 6; ++i) {
    NodeId m = *db.CreateElement(doc, root, "movie");
    ASSERT_TRUE(db.SetAttr(m, "genreIdRef", i % 2 == 0 ? "g1" : "g2").ok());
    ASSERT_TRUE(db.SetContent(*db.CreateElement(doc, m, "name"),
                              "m" + std::to_string(i))
                    .ok());
  }
  query::ExecStats stats;
  Evaluator ev(&db, EvalOptions{.default_color = doc, .stats = &stats});
  QueryResult r = MustRun(
      ev,
      "for $g in document(\"d\")//genre[name = \"Comedy\"], "
      "$m in document(\"d\")//movie "
      "where $g/@id = $m/@genreIdRef "
      "return $m");
  EXPECT_EQ(r.items.size(), 3u);
  EXPECT_EQ(stats.value_joins, 1u);  // planner picked the hash join
}

TEST(EvalTest, IdrefsListJoin) {
  MctDatabase db;
  ColorId doc = *db.RegisterColor("doc");
  NodeId root = *db.CreateElement(doc, db.document(), "db");
  NodeId m = *db.CreateElement(doc, root, "movie");
  ASSERT_TRUE(db.SetAttr(m, "roleIdRefs", "r1 r3").ok());
  for (const char* rid : {"r1", "r2", "r3"}) {
    NodeId r = *db.CreateElement(doc, root, "movie-role");
    ASSERT_TRUE(db.SetAttr(r, "id", rid).ok());
  }
  Evaluator ev(&db, EvalOptions{.default_color = doc});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"d\")//movie, $r in document(\"d\")//movie-role "
      "where contains($m/@roleIdRefs, $r/@id) "
      "return $r");
  EXPECT_EQ(r.items.size(), 2u);
}

TEST(EvalTest, InequalityJoinNestedLoop) {
  MovieDb f = BuildMovieDb();
  query::ExecStats stats;
  Evaluator ev(f.db.get(), EvalOptions{.default_color = 0, .stats = &stats});
  QueryResult r = MustRun(
      ev,
      "for $a in document(\"d\")/{green}descendant::movie, "
      "$b in document(\"d\")/{green}descendant::movie "
      "where $a/{green}child::votes > $b/{green}child::votes "
      "return $a");
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0].node, f.movie_eve);
  EXPECT_EQ(stats.nested_loop_joins, 1u);
}

TEST(EvalTest, DeepStyleNavigationWithPredicates) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});  // default color red
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"mdb.xml\")//movie-genre[name = \"Comedy\"]"
      "//movie[.//movie-role/name = \"Margo\"] return $m");
  EXPECT_EQ(NodeSet(r), (std::set<NodeId>{f.movie_eve}));
}

TEST(EvalTest, WhereResidualFilter) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"d\")/{green}descendant::movie "
      "where $m/{green}child::votes > 10 "
      "return $m");
  EXPECT_EQ(NodeSet(r), (std::set<NodeId>{f.movie_eve}));
}

TEST(EvalTest, OrderByNameDescending) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"d\")/{red}descendant::movie "
      "order by $m/{red}child::name descending return $m");
  ASSERT_EQ(r.items.size(), 3u);
  EXPECT_EQ(r.items[0].node, f.movie_sunset);  // Sunset > City > All
  EXPECT_EQ(r.items[2].node, f.movie_eve);
}

// Keys that mix numbers and other strings sort by one strict weak order —
// numbers by value first, then the rest by string — whatever order the
// rows arrive in. (Comparing two keys as numbers when both parse and as
// strings otherwise is a cycle here: 9 < 10 < "1a" < "9".)
TEST(EvalTest, OrderByMixedKeysIgnoresInputOrder) {
  std::vector<std::string> keys = {"10", "1a", "9"};
  do {
    MctDatabase db;
    const ColorId c = db.RegisterColor("c").value();
    for (const std::string& k : keys) {
      const NodeId n = db.CreateElement(c, db.document(), "k").value();
      ASSERT_TRUE(db.SetContent(n, k).ok());
    }
    EvalOptions o;
    o.default_color = c;
    Evaluator ev(&db, o);
    auto sorted = [&](const char* direction) {
      QueryResult r = MustRun(
          ev, std::string("for $k in document(\"d\")/{c}descendant::k "
                          "order by $k") +
                  direction + " return $k");
      std::vector<std::string> out;
      for (const Item& i : r.items) out.push_back(db.Content(i.node));
      return out;
    };
    const std::string input = keys[0] + "," + keys[1] + "," + keys[2];
    EXPECT_EQ(sorted(""), (std::vector<std::string>{"9", "10", "1a"}))
        << "input " << input;
    EXPECT_EQ(sorted(" descending"),
              (std::vector<std::string>{"1a", "10", "9"}))
        << "input " << input;
  } while (std::next_permutation(keys.begin(), keys.end()));
}

TEST(EvalTest, CountFunction) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $g in document(\"d\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"] "
      "return <c> { count($g/{red}descendant::movie) } </c>");
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(f.db->Content(r.items[0].node), "2");
}

// ---- Updates ----

TEST(UpdateTest, InsertSubelement) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $a in document(\"d\")/{blue}descendant::actor"
      "[{blue}child::name = \"Bette Davis\"] "
      "update $a { insert <birthDate>1908-04-05</birthDate> into {blue} }");
  EXPECT_EQ(r.updated_count, 1u);
  auto kids = f.db->Children(f.actor_davis, f.blue);
  ASSERT_EQ(kids.size(), 3u);  // name, movie-role, birthDate
  EXPECT_EQ(f.db->Tag(kids.back()), "birthDate");
  EXPECT_EQ(f.db->Content(kids.back()), "1908-04-05");
  // The new node carries only blue.
  EXPECT_EQ(f.db->Colors(kids.back()).count(), 1);
}

TEST(UpdateTest, DeleteSubelement) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"d\")/{green}descendant::movie"
      "[{green}child::votes > 10] "
      "update $m { delete {green} votes }");
  EXPECT_EQ(r.updated_count, 1u);
  auto kids = f.db->Children(f.movie_eve, f.green);
  ASSERT_EQ(kids.size(), 1u);  // name only
  // Sunset (8 votes) untouched.
  EXPECT_EQ(f.db->Children(f.movie_sunset, f.green).size(), 2u);
}

TEST(UpdateTest, ReplaceContent) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"d\")/{green}descendant::movie"
      "[{green}child::name = \"Sunset Boulevard\"] "
      "update $m { replace {green}child::votes with \"9\" }");
  EXPECT_EQ(r.updated_count, 1u);
  NodeId votes = f.db->Children(f.movie_sunset, f.green)[1];
  EXPECT_EQ(f.db->Content(votes), "9");
}

TEST(UpdateTest, UpdateManyTargets) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"d\")/{red}descendant::movie "
      "update $m { insert <reviewed>yes</reviewed> into {red} }");
  EXPECT_EQ(r.updated_count, 3u);
  for (NodeId m : {f.movie_eve, f.movie_lights, f.movie_sunset}) {
    auto kids = f.db->Children(m, f.red);
    EXPECT_EQ(f.db->Tag(kids.back()), "reviewed");
  }
}

TEST(UpdateTest, DeleteNodeEntirelyWhenLastColor) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  NodeId lights_name = f.db->Children(f.movie_lights, f.red)[0];
  QueryResult r = MustRun(
      ev,
      "for $m in document(\"d\")/{red}descendant::movie"
      "[{red}child::name = \"City Lights\"] "
      "update $m { delete }");
  EXPECT_EQ(r.updated_count, 1u);
  EXPECT_FALSE(f.db->store().Exists(f.movie_lights));
  EXPECT_FALSE(f.db->store().Exists(lights_name));
  EXPECT_EQ(f.db->TagScan(f.red, "movie").size(), 2u);
}

TEST(EvalTest, UnknownColorFails) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  auto r = ev.Run(
      "for $m in document(\"d\")/{mauve}descendant::movie return $m");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(EvalTest, UnboundVariableFails) {
  MovieDb f = BuildMovieDb();
  Evaluator ev(f.db.get(), EvalOptions{});
  auto r = ev.Run("for $m in $nope/{red}child::movie return $m");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

}  // namespace
}  // namespace mct::mcx
