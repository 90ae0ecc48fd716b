#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "movie_fixture.h"
#include "query/ops.h"
#include "query/twig.h"

namespace mct::query {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;

TEST(TwigPatternTest, PathDetectionAndDecomposition) {
  TwigPattern p;
  int root = p.Add(-1, "a", false);
  int b = p.Add(root, "b", true);
  EXPECT_TRUE(p.IsPath());
  p.Add(root, "c", false);
  EXPECT_FALSE(p.IsPath());
  p.Add(b, "d", false);
  EXPECT_FALSE(p.IsPath());
}

TEST(PathStackTest, SimplePathOnMovieDb) {
  MovieDb f = BuildMovieDb();
  // movie-genre // movie / movie-role in red.
  TwigPattern p;
  int g = p.Add(-1, "movie-genre", false);
  int m = p.Add(g, "movie", false);
  p.Add(m, "movie-role", true);
  ExecStats stats;
  auto t = PathStackJoin(f.db.get(), f.red, p, &stats);
  ASSERT_TRUE(t.ok()) << t.status();
  // Matches: (All,Eve,Margo), (Comedy,Eve,Margo), (All,Lights,Tramp),
  // (Comedy,Lights,Tramp), (Slapstick,Lights,Tramp).
  EXPECT_EQ(t->num_rows(), 5u);
  EXPECT_EQ(stats.structural_joins, 1u);  // one holistic join
  for (const auto& row : t->ToRows()) {
    EXPECT_TRUE(f.db->tree(f.red)->IsAncestor(row[0], row[1]));
    EXPECT_EQ(f.db->tree(f.red)->Parent(row[2]), row[1]);
  }
}

TEST(PathStackTest, ChildAxisIsStricterThanDescendant) {
  MovieDb f = BuildMovieDb();
  TwigPattern desc;
  int g1 = desc.Add(-1, "movie-genre", false);
  desc.Add(g1, "movie", false);
  TwigPattern child;
  int g2 = child.Add(-1, "movie-genre", false);
  child.Add(g2, "movie", true);
  auto td = PathStackJoin(f.db.get(), f.red, desc, nullptr);
  auto tc = PathStackJoin(f.db.get(), f.red, child, nullptr);
  ASSERT_TRUE(td.ok());
  ASSERT_TRUE(tc.ok());
  // Descendant: 3 movies x their genre ancestors = 7; child: exactly 3.
  EXPECT_EQ(td->num_rows(), 7u);
  EXPECT_EQ(tc->num_rows(), 3u);
}

TEST(PathStackTest, MissingTagGivesEmptyResult) {
  MovieDb f = BuildMovieDb();
  TwigPattern p;
  int g = p.Add(-1, "movie-genre", false);
  p.Add(g, "nonexistent", false);
  auto t = PathStackJoin(f.db.get(), f.red, p, nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 0u);
}

TEST(PathStackTest, RejectsBranchingPattern) {
  TwigPattern p;
  int root = p.Add(-1, "a", false);
  p.Add(root, "b", false);
  p.Add(root, "c", false);
  MovieDb f = BuildMovieDb();
  EXPECT_TRUE(PathStackJoin(f.db.get(), f.red, p, nullptr)
                  .status()
                  .IsInvalidArgument());
}

// Property: the holistic path join agrees with composed binary structural
// joins on random trees, for random path patterns.
class TwigProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(TwigProperty, AgreesWithBinaryJoinPlans) {
  Rng rng(GetParam());
  MctDatabase db;
  ColorId c = *db.RegisterColor("c");
  std::vector<NodeId> pool{db.document()};
  const char* tags[] = {"a", "b", "x", "y"};
  for (int i = 0; i < 500; ++i) {
    NodeId parent = pool[rng.Uniform(pool.size())];
    pool.push_back(*db.CreateElement(c, parent, tags[rng.Uniform(4)]));
  }
  // Random path pattern of depth 2-3.
  TwigPattern p;
  int depth = static_cast<int>(rng.UniformInt(2, 3));
  int prev = p.Add(-1, tags[rng.Uniform(4)], false);
  for (int i = 1; i < depth; ++i) {
    prev = p.Add(prev, tags[rng.Uniform(4)], rng.Bernoulli(0.5));
  }
  auto holistic = PathStackJoin(&db, c, p, nullptr);
  ASSERT_TRUE(holistic.ok()) << holistic.status();

  // Binary-join plan: TagScan root + Expand per edge.
  Table bin = TagScanTable(&db, c, "#0", p.nodes[0].tag, nullptr);
  for (size_t i = 1; i < p.nodes.size(); ++i) {
    const TwigNode& n = p.nodes[i];
    bin = n.child_axis
              ? ExpandChildren(&db, bin, static_cast<int>(i) - 1, c, n.tag,
                               "#" + std::to_string(i), nullptr)
              : ExpandDescendants(&db, bin, static_cast<int>(i) - 1, c, n.tag,
                                  "#" + std::to_string(i), nullptr);
  }
  auto bin_rows = bin.ToRows();
  auto hol_rows = holistic->ToRows();
  std::multiset<std::vector<NodeId>> expect(bin_rows.begin(), bin_rows.end());
  std::multiset<std::vector<NodeId>> got(hol_rows.begin(), hol_rows.end());
  EXPECT_EQ(got.size(), expect.size());
  EXPECT_TRUE(got == expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwigProperty,
                         testing::Values(31u, 32u, 33u, 34u, 35u, 36u));

}  // namespace
}  // namespace mct::query
