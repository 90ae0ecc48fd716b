#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "movie_fixture.h"
#include "query/ops.h"
#include "query/table.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/tpcw_db.h"

namespace mct::query {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;

TEST(TableTest, FromNodesAndColumn) {
  Table t = Table::FromNodes("$x", {3, 1, 4});
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_cols(), 1u);
  EXPECT_EQ(t.ColumnOf("$x"), 0);
  EXPECT_EQ(t.ColumnOf("$y"), -1);
  EXPECT_EQ(t.Column(0), (std::vector<NodeId>{3, 1, 4}));
}

TEST(KeySpecTest, ExtractAllKinds) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "id", "m1").ok());
  // Own content of a name node.
  NodeId name = f.db->Children(f.movie_eve, f.red)[0];
  EXPECT_EQ(*ExtractKey(*f.db, name, KeySpec::OwnContent()), "All About Eve");
  // Child content.
  EXPECT_EQ(*ExtractKey(*f.db, f.movie_eve,
                        KeySpec::ChildContent(f.red, "name")),
            "All About Eve");
  EXPECT_FALSE(ExtractKey(*f.db, f.movie_eve,
                          KeySpec::ChildContent(f.red, "votes"))
                   .has_value());  // votes is green-only
  EXPECT_EQ(*ExtractKey(*f.db, f.movie_eve,
                        KeySpec::ChildContent(f.green, "votes")),
            "14");
  // Attribute.
  EXPECT_EQ(*ExtractKey(*f.db, f.movie_eve, KeySpec::Attr("id")), "m1");
  EXPECT_FALSE(ExtractKey(*f.db, f.movie_eve, KeySpec::Attr("no")).has_value());
  // Color-aware string value.
  EXPECT_EQ(*ExtractKey(*f.db, f.movie_eve, KeySpec::StringValue(f.green)),
            "All About Eve14");
}

TEST(ScanTest, TagScanTable) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table t = TagScanTable(f.db.get(), f.red, "$m", "movie", &stats);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(stats.rows_scanned, 3u);
}

// The `name` child a fixture node got on creation (its first red child).
NodeId NameOf(const MovieDb& f, NodeId n) {
  return f.db->Children(n, f.red)[0];
}

// `t` restricted to the rows whose column-0 node passes `keep`, held as a
// selection vector over the untouched columns (FilterRows on an rvalue
// copies no cells), so an operator fed this table must read through `sel`.
Table Selected(const Table& t, const std::function<bool(NodeId)>& keep) {
  Table out = FilterRows(
      Table(t), [&](size_t r) { return keep(t.At(r, 0)); }, nullptr);
  EXPECT_TRUE(out.use_sel);
  return out;
}

using Rows = std::vector<std::vector<NodeId>>;

// Red document order: City Lights (under Slapstick, inside Comedy) comes
// before All About Eve (a later child of Comedy), then Sunset Boulevard.

TEST(ExpandTest, ChildrenStep) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table movies = TagScanTable(f.db.get(), f.red, "$m", "movie", &stats);
  ASSERT_EQ(movies.Column(0),
            (std::vector<NodeId>{f.movie_lights, f.movie_eve,
                                 f.movie_sunset}));
  Table names =
      ExpandChildren(f.db.get(), movies, 0, f.red, "name", "$n", &stats);
  EXPECT_EQ(names.vars, (std::vector<std::string>{"$m", "$n"}));
  EXPECT_EQ(names.ToRows(),
            (Rows{{f.movie_lights, NameOf(f, f.movie_lights)},
                  {f.movie_eve, NameOf(f, f.movie_eve)},
                  {f.movie_sunset, NameOf(f, f.movie_sunset)}}));
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 1, .rows_scanned = 3}));
  // Wildcard tag matches all element children, in child order.
  Table all = ExpandChildren(f.db.get(), movies, 0, f.red, "", "$c", &stats);
  EXPECT_EQ(all.ToRows(),
            (Rows{{f.movie_lights, NameOf(f, f.movie_lights)},
                  {f.movie_lights, f.role_tramp},
                  {f.movie_eve, NameOf(f, f.movie_eve)},
                  {f.movie_eve, f.role_margo},
                  {f.movie_sunset, NameOf(f, f.movie_sunset)}}));
  // Selected input: the base column is gathered through the selection.
  Table sel = Selected(movies, [&](NodeId m) { return m != f.movie_lights; });
  EXPECT_EQ(
      ExpandChildren(f.db.get(), sel, 0, f.red, "", "$c", &stats).ToRows(),
      (Rows{{f.movie_eve, NameOf(f, f.movie_eve)},
            {f.movie_eve, f.role_margo},
            {f.movie_sunset, NameOf(f, f.movie_sunset)}}));
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 3, .rows_scanned = 3}));
}

TEST(ExpandTest, DescendantsStep) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table genres = TagScanTable(f.db.get(), f.red, "$g", "movie-genre", &stats);
  Table sub = FilterRows(
      genres, [&](size_t r) { return genres.At(r, 0) == f.genre_comedy; },
      &stats);
  Table movies =
      ExpandDescendants(f.db.get(), sub, 0, f.red, "movie", "$m", &stats);
  // Comedy subtree holds (via Slapstick) City Lights and Eve, in that
  // document order.
  const Rows expect{{f.genre_comedy, f.movie_lights},
                    {f.genre_comedy, f.movie_eve}};
  EXPECT_EQ(movies.ToRows(), expect);
  // The descendant scan reads all 3 movies on top of the 4 genres.
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 1, .rows_scanned = 7}));
  Table sel = Selected(genres, [&](NodeId g) { return g == f.genre_comedy; });
  EXPECT_EQ(
      ExpandDescendants(f.db.get(), sel, 0, f.red, "movie", "$m", &stats)
          .ToRows(),
      expect);
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 2, .rows_scanned = 10}));
}

TEST(ExpandTest, DescendantsFromAllGenresProducesPerAncestorRows) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table genres = TagScanTable(f.db.get(), f.red, "$g", "movie-genre", &stats);
  ASSERT_EQ(genres.Column(0),
            (std::vector<NodeId>{f.genre_root, f.genre_comedy,
                                 f.genre_slapstick, f.genre_drama}));
  Table movies =
      ExpandDescendants(f.db.get(), genres, 0, f.red, "movie", "$m", &stats);
  // All(3 movies) + Comedy(2) + Slapstick(1) + Drama(1) = 7 rows, in
  // descendant order, outermost ancestor first.
  const Rows expect{{f.genre_root, f.movie_lights},
                    {f.genre_comedy, f.movie_lights},
                    {f.genre_slapstick, f.movie_lights},
                    {f.genre_root, f.movie_eve},
                    {f.genre_comedy, f.movie_eve},
                    {f.genre_root, f.movie_sunset},
                    {f.genre_drama, f.movie_sunset}};
  EXPECT_EQ(movies.ToRows(), expect);
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 1, .rows_scanned = 7}));
  // The planner's alternative access methods emit the same sequence, from
  // a selected input too (Drama dropped).
  const std::vector<NodeId> all_movies{f.movie_sunset, f.movie_eve,
                                       f.movie_lights};
  EXPECT_EQ(ExpandDescendantsNav(f.db.get(), genres, 0, f.red, "movie", "$m",
                                 nullptr)
                .ToRows(),
            expect);
  EXPECT_EQ(ExpandDescendantsAmong(f.db.get(), genres, 0, f.red, "movie",
                                   all_movies, "$m", nullptr)
                .ToRows(),
            expect);
  Table sel = Selected(genres, [&](NodeId g) { return g != f.genre_drama; });
  const Rows expect_sel(expect.begin(), expect.end() - 1);
  EXPECT_EQ(
      ExpandDescendants(f.db.get(), sel, 0, f.red, "movie", "$m", nullptr)
          .ToRows(),
      expect_sel);
  EXPECT_EQ(ExpandDescendantsNav(f.db.get(), sel, 0, f.red, "movie", "$m",
                                 nullptr)
                .ToRows(),
            expect_sel);
  EXPECT_EQ(ExpandDescendantsAmong(f.db.get(), sel, 0, f.red, "movie",
                                   all_movies, "$m", nullptr)
                .ToRows(),
            expect_sel);
  // From the lone document row, the scan shortcut emits every movie.
  Table doc = Table::FromNodes("$d", {f.db->document()});
  EXPECT_EQ(ExpandDescendantsRoot(f.db.get(), doc, 0, f.red, "movie", "$m",
                                  nullptr)
                .ToRows(),
            (Rows{{f.db->document(), f.movie_lights},
                  {f.db->document(), f.movie_eve},
                  {f.db->document(), f.movie_sunset}}));
}

TEST(ExpandTest, ParentStep) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table roles = TagScanTable(f.db.get(), f.blue, "$r", "movie-role", &stats);
  Table actors =
      ExpandParent(f.db.get(), roles, 0, f.blue, "actor", "$a", &stats);
  EXPECT_EQ(actors.ToRows(), (Rows{{f.role_margo, f.actor_davis},
                                   {f.role_tramp, f.actor_chaplin}}));
  // Parent with wrong tag drops rows.
  Table none =
      ExpandParent(f.db.get(), roles, 0, f.blue, "movie", "$x", &stats);
  EXPECT_EQ(none.num_rows(), 0u);
  Table sel = Selected(roles, [&](NodeId r) { return r == f.role_tramp; });
  EXPECT_EQ(
      ExpandParent(f.db.get(), sel, 0, f.blue, "actor", "$a", &stats).ToRows(),
      (Rows{{f.role_tramp, f.actor_chaplin}}));
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 3, .rows_scanned = 2}));
}

TEST(ExpandTest, AncestorsStep) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table t = Table::FromNodes("$m", {f.movie_lights});
  Table ancs =
      ExpandAncestors(f.db.get(), t, 0, f.red, "movie-genre", "$g", &stats);
  // Slapstick, Comedy, All: nearest first.
  const Rows expect{{f.movie_lights, f.genre_slapstick},
                    {f.movie_lights, f.genre_comedy},
                    {f.movie_lights, f.genre_root}};
  EXPECT_EQ(ancs.ToRows(), expect);
  Table sel = Selected(Table::FromNodes("$m", {f.movie_eve, f.movie_lights}),
                       [&](NodeId m) { return m == f.movie_lights; });
  EXPECT_EQ(ExpandAncestors(f.db.get(), sel, 0, f.red, "movie-genre", "$g",
                            &stats)
                .ToRows(),
            expect);
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 2}));
}

TEST(CrossTreeTest, ColorTransitionKeepsIdentity) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table red_movies = TagScanTable(f.db.get(), f.red, "$m", "movie", &stats);
  EXPECT_EQ(red_movies.num_rows(), 3u);
  Table green_too = CrossTreeJoin(f.db.get(), red_movies, 0, f.green, &stats);
  // Only Eve and Sunset are Oscar-nominated (red+green).
  const Rows expect{{f.movie_eve}, {f.movie_sunset}};
  EXPECT_EQ(green_too.ToRows(), expect);
  EXPECT_EQ(stats, (ExecStats{.cross_tree_joins = 1, .rows_scanned = 3}));
  // A selected input, through both the gathering and the moving overload.
  Table sel =
      Selected(red_movies, [&](NodeId m) { return m != f.movie_lights; });
  EXPECT_EQ(CrossTreeJoin(f.db.get(), sel, 0, f.green, &stats).ToRows(),
            expect);
  EXPECT_EQ(
      CrossTreeJoin(f.db.get(), Table(sel), 0, f.green, &stats).ToRows(),
      expect);
  EXPECT_EQ(stats, (ExecStats{.cross_tree_joins = 3, .rows_scanned = 3}));
}

TEST(SemiJoinTest, FiltersByContainment) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table movies = TagScanTable(f.db.get(), f.red, "$m", "movie", &stats);
  Table under_comedy = StructuralSemiJoin(f.db.get(), movies, 0, f.red,
                                          {f.genre_comedy}, &stats);
  EXPECT_EQ(under_comedy.ToRows(), (Rows{{f.movie_lights}, {f.movie_eve}}));
  // Empty ancestor set -> empty result.
  Table none = StructuralSemiJoin(f.db.get(), movies, 0, f.red, {}, &stats);
  EXPECT_EQ(none.num_rows(), 0u);
  Table sel = Selected(movies, [&](NodeId m) { return m != f.movie_lights; });
  EXPECT_EQ(StructuralSemiJoin(f.db.get(), sel, 0, f.red,
                               {f.genre_comedy, f.genre_drama}, &stats)
                .ToRows(),
            (Rows{{f.movie_eve}, {f.movie_sunset}}));
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 3, .rows_scanned = 3}));
}

TEST(ValueJoinTest, HashJoinOnChildContent) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  // Join movies with actors on nothing sensible — use the role name vs role
  // name to exercise key equality: join roles (red) with roles (blue) on
  // child name content.
  Table red_roles = TagScanTable(f.db.get(), f.red, "$r1", "movie-role", &stats);
  Table blue_roles =
      TagScanTable(f.db.get(), f.blue, "$r2", "movie-role", &stats);
  ASSERT_EQ(red_roles.Column(0),
            (std::vector<NodeId>{f.role_tramp, f.role_margo}));
  ASSERT_EQ(blue_roles.Column(0),
            (std::vector<NodeId>{f.role_margo, f.role_tramp}));
  Table joined = HashValueJoin(
      f.db.get(), red_roles, 0, KeySpec::ChildContent(f.red, "name"),
      blue_roles, 0, KeySpec::ChildContent(f.blue, "name"), &stats);
  // Each role matches itself (names are unique), in probe (blue) order.
  EXPECT_EQ(joined.vars, (std::vector<std::string>{"$r1", "$r2"}));
  EXPECT_EQ(joined.ToRows(), (Rows{{f.role_margo, f.role_margo},
                                   {f.role_tramp, f.role_tramp}}));
  EXPECT_EQ(stats, (ExecStats{.value_joins = 1, .rows_scanned = 4}));
  // Selected build side (the smaller, left input).
  Table sel = Selected(red_roles, [&](NodeId r) { return r == f.role_margo; });
  EXPECT_EQ(HashValueJoin(f.db.get(), sel, 0,
                          KeySpec::ChildContent(f.red, "name"), blue_roles, 0,
                          KeySpec::ChildContent(f.blue, "name"), &stats)
                .ToRows(),
            (Rows{{f.role_margo, f.role_margo}}));
  EXPECT_EQ(stats, (ExecStats{.value_joins = 2, .rows_scanned = 4}));
}

TEST(ValueJoinTest, IdrefsJoin) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  ASSERT_TRUE(f.db->SetAttr(f.actor_davis, "id", "a1").ok());
  ASSERT_TRUE(f.db->SetAttr(f.actor_chaplin, "id", "a2").ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "actorIdRefs", "a1 a9").ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_lights, "actorIdRefs", "a2").ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_sunset, "actorIdRefs", "").ok());
  Table movies = TagScanTable(f.db.get(), f.red, "$m", "movie", &stats);
  Table actors = TagScanTable(f.db.get(), f.blue, "$a", "actor", &stats);
  Table joined =
      IdrefsJoin(f.db.get(), movies, 0, KeySpec::Attr("actorIdRefs"), actors,
                 0, KeySpec::Attr("id"), &stats);
  EXPECT_EQ(joined.ToRows(), (Rows{{f.movie_lights, f.actor_chaplin},
                                   {f.movie_eve, f.actor_davis}}));
  EXPECT_EQ(stats, (ExecStats{.value_joins = 1, .rows_scanned = 5}));
  Table sel = Selected(movies, [&](NodeId m) { return m != f.movie_lights; });
  EXPECT_EQ(IdrefsJoin(f.db.get(), sel, 0, KeySpec::Attr("actorIdRefs"),
                       actors, 0, KeySpec::Attr("id"), &stats)
                .ToRows(),
            (Rows{{f.movie_eve, f.actor_davis}}));
  EXPECT_EQ(stats, (ExecStats{.value_joins = 2, .rows_scanned = 5}));
}

TEST(JoinTest, IdentityJoin) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table red_movies = TagScanTable(f.db.get(), f.red, "$m1", "movie", &stats);
  Table green_movies = TagScanTable(f.db.get(), f.green, "$m2", "movie", &stats);
  Table joined =
      IdentityJoin(f.db.get(), red_movies, 0, green_movies, 0, &stats);
  const Rows expect{{f.movie_eve, f.movie_eve},
                    {f.movie_sunset, f.movie_sunset}};
  EXPECT_EQ(joined.ToRows(), expect);
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 1, .rows_scanned = 5}));
  Table sel =
      Selected(red_movies, [&](NodeId m) { return m != f.movie_lights; });
  EXPECT_EQ(IdentityJoin(f.db.get(), sel, 0, green_movies, 0, &stats).ToRows(),
            expect);
  EXPECT_EQ(stats, (ExecStats{.structural_joins = 2, .rows_scanned = 5}));
}

TEST(JoinTest, NestedLoopInequality) {
  MovieDb f = BuildMovieDb();
  ExecStats stats;
  Table g = TagScanTable(f.db.get(), f.green, "$m1", "movie", &stats);
  Table g2 = TagScanTable(f.db.get(), f.green, "$m2", "movie", &stats);
  KeySpec votes = KeySpec::ChildContent(f.green, "votes");
  auto more_votes = [&](const Table& l, const Table& r) {
    return [&](size_t li, size_t ri) {
      auto lv = ExtractKey(*f.db, l.At(li, 0), votes);
      auto rv = ExtractKey(*f.db, r.At(ri, 0), votes);
      if (!lv || !rv) return false;
      return *mct::ParseDouble(*lv) > *mct::ParseDouble(*rv);
    };
  };
  Table joined = NestedLoopJoin(f.db.get(), g, g2, more_votes(g, g2), &stats);
  // Eve (14) > Sunset (8): exactly one pair.
  ASSERT_EQ(joined.num_rows(), 1u);
  EXPECT_EQ(joined.At(0, 0), f.movie_eve);
  EXPECT_EQ(joined.At(0, 1), f.movie_sunset);
  EXPECT_EQ(stats.nested_loop_joins, 1u);
  // Selected right side.
  Table sel = Selected(g2, [&](NodeId m) { return m == f.movie_sunset; });
  EXPECT_EQ(
      NestedLoopJoin(f.db.get(), g, sel, more_votes(g, sel), &stats).ToRows(),
      (Rows{{f.movie_eve, f.movie_sunset}}));
}

TEST(DupElimTest, RemovesDuplicateProjections) {
  Table t = Table::FromRows({"$a", "$b"}, {{1, 2}, {1, 3}, {1, 2}, {2, 2}});
  ExecStats stats;
  Table d1 = DupElim(t, {0, 1}, &stats);
  EXPECT_EQ(d1.ToRows(), (Rows{{1, 2}, {1, 3}, {2, 2}}));
  Table d2 = DupElim(t, {0}, &stats);
  EXPECT_EQ(d2.ToRows(), (Rows{{1, 2}, {2, 2}}));
  EXPECT_EQ(stats, (ExecStats{.dup_elims = 2}));
  // The same logical rows behind a selection vector (row {9, 9} dropped).
  Table sel = Selected(
      Table::FromRows({"$a", "$b"}, {{9, 9}, {1, 2}, {1, 3}, {1, 2}, {2, 2}}),
      [](NodeId a) { return a != 9; });
  EXPECT_EQ(DupElim(sel, {0, 1}, &stats).ToRows(), d1.ToRows());
  EXPECT_EQ(DupElim(sel, {0}, &stats).ToRows(), d2.ToRows());
  EXPECT_EQ(DupElim(Table(sel), {0}, &stats).ToRows(), d2.ToRows());
  EXPECT_EQ(stats, (ExecStats{.dup_elims = 5}));
}

TEST(ProjectTest, ReordersColumns) {
  Table t = Table::FromRows({"$a", "$b", "$c"}, {{1, 2, 3}});
  Table p = Project(t, {2, 0});
  EXPECT_EQ(p.vars, (std::vector<std::string>{"$c", "$a"}));
  EXPECT_EQ(p.RowAt(0), (std::vector<NodeId>{3, 1}));
}

// Property: ExpandDescendants agrees with a naive O(n*m) oracle on random
// trees of varying shapes.
class StructuralJoinProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(StructuralJoinProperty, MatchesNaiveOracle) {
  Rng rng(GetParam());
  MctDatabase db;
  ColorId c = *db.RegisterColor("c");
  std::vector<NodeId> pool{db.document()};
  for (int i = 0; i < 600; ++i) {
    NodeId parent = pool[rng.Uniform(pool.size())];
    std::string tag = rng.Bernoulli(0.4) ? "a" : (rng.Bernoulli(0.5) ? "b" : "x");
    pool.push_back(*db.CreateElement(c, parent, tag));
  }
  ExecStats stats;
  Table as = TagScanTable(&db, c, "$a", "a", &stats);
  Table joined = ExpandDescendants(&db, as, 0, c, "b", "$b", &stats);
  // Oracle.
  std::multiset<std::pair<NodeId, NodeId>> expect;
  ColoredTree* t = db.tree(c);
  for (NodeId a : as.Column(0)) {
    auto pre = t->PreOrder(a);
    for (NodeId d : pre) {
      if (d != a && db.Tag(d) == "b") expect.insert({a, d});
    }
  }
  std::multiset<std::pair<NodeId, NodeId>> got;
  for (const auto& row : joined.ToRows()) got.insert({row[0], row[1]});
  EXPECT_EQ(got, expect);

  // Children step also agrees with a direct oracle.
  Table kids = ExpandChildren(&db, as, 0, c, "b", "$b", &stats);
  std::multiset<std::pair<NodeId, NodeId>> expect_kids;
  for (NodeId a : as.Column(0)) {
    for (NodeId k : t->Children(a)) {
      if (db.Tag(k) == "b") expect_kids.insert({a, k});
    }
  }
  std::multiset<std::pair<NodeId, NodeId>> got_kids;
  for (const auto& row : kids.ToRows()) got_kids.insert({row[0], row[1]});
  EXPECT_EQ(got_kids, expect_kids);

  // SemiJoin(b under a-set) == distinct right sides of the descendant join.
  Table bs = TagScanTable(&db, c, "$b", "b", &stats);
  Table semi = StructuralSemiJoin(&db, bs, 0, c, as.Column(0), &stats);
  std::set<NodeId> expect_semi;
  for (const auto& [a, b] : expect) expect_semi.insert(b);
  std::vector<NodeId> semi_nodes = semi.Column(0);
  std::set<NodeId> got_semi(semi_nodes.begin(), semi_nodes.end());
  EXPECT_EQ(semi.num_rows(), got_semi.size());  // bs rows are distinct
  EXPECT_EQ(got_semi, expect_semi);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralJoinProperty,
                         testing::Values(5u, 6u, 7u, 8u, 9u));

// ---------------------------------------------------------------------------
// Parallel determinism: every morsel-driven operator must produce output
// byte-identical to its serial run (same rows, same order) and the same
// merged ExecStats, at any thread count and morsel size.
// ---------------------------------------------------------------------------

// Runs `op` serially and under pools of 2 and 8 threads with a tiny morsel
// size (so even small test tables split into many morsels), asserting
// identical rows and stats each time.
template <typename Op>
void ExpectParallelMatchesSerial(const Op& op) {
  ExecStats serial_stats;
  Table serial = op(ExecContext(&serial_stats));
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    for (size_t morsel : {1u, 3u}) {
      ExecStats par_stats;
      Table par = op(ExecContext(&par_stats, &pool, morsel));
      EXPECT_EQ(par.vars, serial.vars)
          << "threads=" << threads << " morsel=" << morsel;
      EXPECT_EQ(par.ToRows(), serial.ToRows())
          << "threads=" << threads << " morsel=" << morsel;
      EXPECT_EQ(par_stats, serial_stats)
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
}

TEST(ParallelDeterminismTest, MovieFixtureOperators) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.actor_davis, "id", "a1").ok());
  ASSERT_TRUE(f.db->SetAttr(f.actor_chaplin, "id", "a2").ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "actorIdRefs", "a1 a2").ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_lights, "actorIdRefs", "a2").ok());
  MctDatabase* db = f.db.get();

  Table movies = TagScanTable(db, f.red, "$m", "movie", nullptr);
  Table genres = TagScanTable(db, f.red, "$g", "movie-genre", nullptr);
  Table actors = TagScanTable(db, f.blue, "$a", "actor", nullptr);
  Table green = TagScanTable(db, f.green, "$m2", "movie", nullptr);

  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return ExpandChildren(db, movies, 0, f.red, "name", "$n", ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return ExpandDescendants(db, genres, 0, f.red, "movie", "$m", ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return ExpandParent(db, movies, 0, f.red, "movie-genre", "$g", ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return ExpandAncestors(db, movies, 0, f.red, "movie-genre", "$g", ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return CrossTreeJoin(db, movies, 0, f.green, ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return StructuralSemiJoin(db, movies, 0, f.red,
                              {f.genre_comedy, f.genre_drama}, ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return HashValueJoin(db, movies, 0, KeySpec::ChildContent(f.red, "name"),
                         green, 0, KeySpec::ChildContent(f.green, "name"),
                         ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return IdrefsJoin(db, movies, 0, KeySpec::Attr("actorIdRefs"), actors, 0,
                      KeySpec::Attr("id"), ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return IdentityJoin(db, movies, 0, green, 0, ctx);
  });
  KeySpec votes = KeySpec::ChildContent(f.green, "votes");
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return NestedLoopJoin(
        db, green, green,
        [&](size_t l, size_t r) {
          auto lv = ExtractKey(*db, green.At(l, 0), votes);
          auto rv = ExtractKey(*db, green.At(r, 0), votes);
          return lv && rv && *lv > *rv;
        },
        ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return FilterRows(
        movies, [&](size_t r) { return movies.At(r, 0) != f.movie_lights; },
        ctx);
  });
}

// Property: on random trees, the parallel structural-join pipeline emits the
// exact serial row sequence (not just the same bag).
class ParallelDeterminismProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminismProperty, RandomTreesByteIdentical) {
  Rng rng(GetParam());
  MctDatabase db;
  ColorId c = *db.RegisterColor("c");
  std::vector<NodeId> pool{db.document()};
  for (int i = 0; i < 800; ++i) {
    NodeId parent = pool[rng.Uniform(pool.size())];
    std::string tag =
        rng.Bernoulli(0.4) ? "a" : (rng.Bernoulli(0.5) ? "b" : "x");
    pool.push_back(*db.CreateElement(c, parent, tag));
  }
  Table as = TagScanTable(&db, c, "$a", "a", nullptr);
  Table bs = TagScanTable(&db, c, "$b", "b", nullptr);
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return ExpandDescendants(&db, as, 0, c, "b", "$b", ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return ExpandChildren(&db, as, 0, c, "", "$k", ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return ExpandAncestors(&db, bs, 0, c, "a", "$anc", ctx);
  });
  ExpectParallelMatchesSerial([&](const ExecContext& ctx) {
    return StructuralSemiJoin(&db, bs, 0, c, as.Column(0), ctx);
  });
  // Realistic morsel counts too, not just morsel=1/3: a 257-row morsel
  // leaves a ragged tail.
  ExecStats s1;
  Table serial = ExpandDescendants(&db, as, 0, c, "b", "$b", &s1);
  ThreadPool pool4(4);
  ExecStats s2;
  Table par = ExpandDescendants(&db, as, 0, c, "b", "$b",
                                ExecContext(&s2, &pool4, 257));
  EXPECT_EQ(par.ToRows(), serial.ToRows());
  EXPECT_EQ(s1, s2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismProperty,
                         testing::Values(11u, 12u, 13u));

// End-to-end: every read query of the TPC-W catalog returns the same item
// sequence (values, in order) and the same ExecStats whether evaluated
// serially or with 2 or 8 threads, on both the MCT and the shallow schema.
TEST(ParallelDeterminismTest, TpcwCatalogEndToEnd) {
  using workload::BuildTpcw;
  using workload::CatalogQuery;
  using workload::GenerateTpcw;
  using workload::RunQuery;
  using workload::SchemaKind;
  using workload::TpcwScale;

  auto data = GenerateTpcw(TpcwScale::Tiny());
  auto mct_db = BuildTpcw(data, SchemaKind::kMct);
  auto shallow_db = BuildTpcw(data, SchemaKind::kShallow);
  ASSERT_TRUE(mct_db.ok());
  ASSERT_TRUE(shallow_db.ok());

  for (const CatalogQuery& q : workload::TpcwCatalog(data)) {
    if (q.is_update) continue;  // updates mutate; parallel applies to reads
    struct Dialect {
      workload::TpcwDb* db;
      const std::string* text;
      const char* name;
    };
    Dialect dialects[] = {{&*mct_db, &q.mct, "mct"},
                          {&*shallow_db, &q.shallow, "shallow"}};
    for (const Dialect& d : dialects) {
      if (d.text->empty()) continue;
      auto serial = RunQuery(d.db->db.get(), *d.text,
                             {.default_color = d.db->default_color()},
                             /*collect_values=*/true);
      ASSERT_TRUE(serial.ok()) << q.id << " " << d.name;
      for (int threads : {2, 8}) {
        auto par = RunQuery(d.db->db.get(), *d.text,
                            {.default_color = d.db->default_color(),
                             .num_threads = threads,
                             .morsel_size = 4},
                            /*collect_values=*/true);
        ASSERT_TRUE(par.ok()) << q.id << " " << d.name << " x" << threads;
        EXPECT_EQ(par->result_count, serial->result_count)
            << q.id << " " << d.name << " x" << threads;
        EXPECT_EQ(par->values, serial->values)
            << q.id << " " << d.name << " x" << threads;
        EXPECT_EQ(par->stats, serial->stats)
            << q.id << " " << d.name << " x" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace mct::query
