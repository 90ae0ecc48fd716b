// Interval-range sharding tests (DESIGN.md §17).
//
// Layers under test:
//  1. ShardRanges mechanics: boundary exact cover, ShardOf/Range/CutRuns
//     agreement, and the conservative RangeDisjoint pruning rule checked
//     against a brute-force oracle;
//  2. differential identity: every movie-fixture query — unmasked and
//     masked — is item- and ExecStats-identical across shard counts
//     {1, 2, 4, 8}, threads {1, 8}, planner on/off;
//  3. the mct.shard.* metrics family: pruning actually fires on a
//     selective descendant expansion and never changes its result;
//  4. plan-cache isolation: entries planned under different shard counts
//     never cross (the shard-sliced fingerprint).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "mct/database.h"
#include "mct/shard.h"
#include "mcx/evaluator.h"
#include "movie_fixture.h"
#include "query/planner.h"

namespace mct {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;
using testfix::MustCreate;

// ---------------------------------------------------------------------------
// 1. ShardRanges mechanics.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, BoundariesCoverExactlyAndShardOfAgrees) {
  MovieDb m = BuildMovieDb();
  for (ColorId c : {m.red, m.green, m.blue}) {
    ColoredTree* t = m.db->tree(c);
    t->EnsureLabels();
    const ShardRanges ranges(4, *t);
    EXPECT_EQ(ranges.shard_count(), 4);
    const uint64_t lo = t->Start(t->root());
    const uint64_t hi = t->End(t->root()) + 1;  // half-open
    // Exact cover: first range starts at the root's start, last ends one
    // past the root's end, ranges tile without gaps.
    EXPECT_EQ(ranges.Range(0).first, lo);
    EXPECT_EQ(ranges.Range(3).second, hi);
    for (int s = 0; s + 1 < 4; ++s) {
      EXPECT_EQ(ranges.Range(s).second, ranges.Range(s + 1).first);
      EXPECT_LE(ranges.Range(s).first, ranges.Range(s).second);
    }
    // ShardOf maps every range endpoint (and midpoint) into its range.
    for (int s = 0; s < 4; ++s) {
      auto [a, b] = ranges.Range(s);
      if (a < b) {
        EXPECT_EQ(ranges.ShardOf(a), s);
        EXPECT_EQ(ranges.ShardOf(a + (b - a) / 2), s);
        EXPECT_EQ(ranges.ShardOf(b - 1), s);
      }
    }
  }
}

TEST(ShardMapTest, CutRunsMatchesShardOfPartition) {
  MovieDb m = BuildMovieDb();
  // All red "name" elements in document order (TagScan is start-sorted
  // and leaves the red labels clean).
  std::vector<NodeId> names = m.db->TagScan(m.red, "name");
  ASSERT_GT(names.size(), 4u);
  const ColoredTree& t = *m.db->tree(m.red);
  const ShardRanges ranges(4, t);
  std::vector<size_t> cuts = ranges.CutRuns(
      names.size(), [&](size_t i) { return t.Start(names[i]); });
  ASSERT_EQ(cuts.size(), 5u);
  EXPECT_EQ(cuts[0], 0u);
  EXPECT_EQ(cuts[4], names.size());
  for (int s = 0; s < 4; ++s) {
    ASSERT_LE(cuts[s], cuts[s + 1]);
    for (size_t i = cuts[s]; i < cuts[s + 1]; ++i) {
      EXPECT_EQ(ranges.ShardOf(t.Start(names[i])), s)
          << "element " << i << " cut into the wrong shard run";
    }
  }
}

TEST(ShardMapTest, RangeDisjointMatchesBruteForce) {
  Rng rng(0x5a4d);
  for (int trial = 0; trial < 200; ++trial) {
    // Random ancestor intervals, sorted by start.
    const size_t n = 1 + rng.Next() % 12;
    std::vector<std::pair<uint64_t, uint64_t>> ivs;
    for (size_t i = 0; i < n; ++i) {
      uint64_t a = rng.Next() % 1000;
      uint64_t b = a + 1 + rng.Next() % 200;
      ivs.push_back({a, b});
    }
    std::sort(ivs.begin(), ivs.end());
    std::vector<uint64_t> starts, pmax;
    uint64_t run = 0;
    for (auto& [a, b] : ivs) {
      starts.push_back(a);
      run = std::max(run, b);
      pmax.push_back(run);
    }
    for (int probe = 0; probe < 20; ++probe) {
      uint64_t lo = rng.Next() % 1200;
      uint64_t hi = lo + rng.Next() % 300;
      bool brute_intersects = false;
      for (auto& [a, b] : ivs) {
        if (a < hi && b > lo) brute_intersects = true;
      }
      EXPECT_EQ(ShardRanges::RangeDisjoint(starts, pmax, lo, hi),
                !brute_intersects)
          << "lo=" << lo << " hi=" << hi;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Differential identity across shard counts, threads, planner, masks.
// ---------------------------------------------------------------------------

struct RunOutput {
  mcx::QueryResult result;
  query::ExecStats stats;
};

RunOutput MustRun(MctDatabase* db, ColorId default_color,
                  const std::string& text, int threads, bool planner,
                  const ColorMask* mask = nullptr) {
  RunOutput out;
  mcx::EvalOptions o;
  o.default_color = default_color;
  o.num_threads = threads;
  o.planner = planner;
  o.stats = &out.stats;
  if (mask != nullptr) {
    o.mask = *mask;
    // Admit statements naming masked colors; the evaluator filters.
    o.mask_enforcement = mcx::AnalyzeMode::kWarn;
  }
  mcx::Evaluator ev(db, o);
  auto r = ev.Run(text);
  EXPECT_TRUE(r.ok()) << r.status() << " running: " << text;
  if (r.ok()) out.result = std::move(*r);
  return out;
}

void ExpectSameOutput(const RunOutput& oracle, const RunOutput& sharded,
                      const std::string& label) {
  ASSERT_EQ(oracle.result.items.size(), sharded.result.items.size()) << label;
  for (size_t i = 0; i < oracle.result.items.size(); ++i) {
    EXPECT_EQ(oracle.result.items[i].is_node, sharded.result.items[i].is_node)
        << label << " item " << i;
    EXPECT_EQ(oracle.result.items[i].node, sharded.result.items[i].node)
        << label << " item " << i;
    EXPECT_EQ(oracle.result.items[i].atomic, sharded.result.items[i].atomic)
        << label << " item " << i;
  }
  // The determinism contract extends to the cost anatomy: sharding may
  // reorder work but never changes what was counted.
  EXPECT_EQ(oracle.stats, sharded.stats) << label << " ExecStats diverged";
}

// A larger fixture than Figure 2: enough fan-out that 4 and 8 shards all
// own nodes and the parallel arms (shard sort, shard-parallel stack join)
// actually engage.
MovieDb BuildWideMovieDb() {
  MovieDb m = BuildMovieDb();
  for (int i = 0; i < 300; ++i) {
    NodeId mv = MustCreate(*m.db, m.red, m.genre_drama, "movie");
    MustCreate(*m.db, m.red, mv, "name", "bulk-" + std::to_string(i));
    MustCreate(*m.db, m.red, mv, "movie-role");
  }
  return m;
}

TEST(ShardDifferentialTest, QueriesIdenticalAcrossShardCounts) {
  const std::vector<std::string> queries = {
      "for $m in document(\"d\")/{red}descendant::movie return $m",
      "for $n in document(\"d\")/{red}descendant::movie/{red}child::name "
      "return $n",
      "for $m in document(\"d\")/{red}descendant::movie"
      "[{red}child::name = \"City Lights\"] return $m",
      "for $a in document(\"d\")/{blue}descendant::actor/{blue}child::name "
      "return $a",
      // Multi-step descendant spine: the PathStackJoin shard arm.
      "for $n in document(\"d\")/{red}descendant::movie"
      "/{red}descendant::name return $n",
  };
  MovieDb oracle_db = BuildWideMovieDb();
  for (int shards : {2, 4, 8}) {
    MovieDb sharded_db = BuildWideMovieDb();
    sharded_db.db->SetShardCount(shards);
    for (const std::string& q : queries) {
      for (int threads : {1, 8}) {
        for (bool planner : {false, true}) {
          std::string label = "shards=" + std::to_string(shards) +
                              "/t" + std::to_string(threads) +
                              (planner ? "/planned" : "/base") + " " + q;
          RunOutput want =
              MustRun(oracle_db.db.get(), oracle_db.red, q, threads, planner);
          RunOutput got =
              MustRun(sharded_db.db.get(), sharded_db.red, q, threads, planner);
          ExpectSameOutput(want, got, label);
        }
      }
    }
  }
}

// Masked-tenant sweep: shard pruning runs strictly after mask filtering, so
// a masked session's (filtered) results are identical at every shard count
// — sharding can never resurrect an invisible color's nodes.
TEST(ShardDifferentialTest, MaskedResultsIdenticalAcrossShardCounts) {
  MovieDb oracle_db = BuildWideMovieDb();
  const std::vector<std::string> queries = {
      // In-mask: full results, shard-invariant.
      "for $m in document(\"d\")/{red}descendant::movie return $m",
      // Out-of-mask: empty at every shard count.
      "for $a in document(\"d\")/{blue}descendant::actor return $a",
      // Mixed path crossing into a masked color: filtered identically.
      "for $n in document(\"d\")/{blue}descendant::actor/{blue}child::name "
      "return $n",
  };
  const ColorMask red_only = ColorMask::AllowOnly(ColorSet::Of(oracle_db.red));
  for (int shards : {2, 4, 8}) {
    MovieDb sharded_db = BuildWideMovieDb();
    sharded_db.db->SetShardCount(shards);
    for (const std::string& q : queries) {
      for (int threads : {1, 8}) {
        for (bool planner : {false, true}) {
          std::string label = "masked/shards=" + std::to_string(shards) +
                              "/t" + std::to_string(threads) +
                              (planner ? "/planned" : "/base") + " " + q;
          RunOutput want = MustRun(oracle_db.db.get(), oracle_db.red, q,
                                   threads, planner, &red_only);
          RunOutput got = MustRun(sharded_db.db.get(), sharded_db.red, q,
                                  threads, planner, &red_only);
          ExpectSameOutput(want, got, label);
        }
      }
    }
  }
  // Sanity: the out-of-mask query really was filtered, not just equal.
  MovieDb check = BuildWideMovieDb();
  check.db->SetShardCount(4);
  RunOutput masked = MustRun(check.db.get(), check.red, queries[1], 1, false,
                             &red_only);
  EXPECT_EQ(masked.result.items.size(), 0u);
}

// ---------------------------------------------------------------------------
// 3. mct.shard.* metrics: pruning fires on a selective expansion.
// ---------------------------------------------------------------------------

TEST(ShardMetricsTest, SelectiveDescendantPrunesShardsWithoutChangingResults) {
  // 64 branches x 8 items; the context anchors on one branch, so at 4
  // shards at least two shards' item runs are provably disjoint from the
  // lone context interval.
  auto build = [] {
    auto db = std::make_unique<MctDatabase>();
    ColorId red = std::move(db->RegisterColor("red")).value();
    NodeId doc = db->document();
    for (int b = 0; b < 64; ++b) {
      NodeId br = MustCreate(*db, red, doc, "branch");
      MustCreate(*db, red, br, "name", "b" + std::to_string(b));
      for (int i = 0; i < 8; ++i) {
        MustCreate(*db, red, br, "item", std::to_string(b * 8 + i));
      }
    }
    return std::make_pair(std::move(db), red);
  };
  const std::string q =
      "for $b in document(\"d\")/{red}descendant::branch"
      "[{red}child::name = \"b0\"] "
      "for $i in $b/{red}descendant::item return $i";

  auto [oracle_db, oracle_red] = build();
  RunOutput want = MustRun(oracle_db.get(), oracle_red, q, 1, false);
  ASSERT_EQ(want.result.items.size(), 8u);

  auto [sharded_db, red] = build();
  sharded_db->SetShardCount(4);
  const uint64_t pruned0 = ShardPrunedCounter()->value();
  const uint64_t tasks0 = ShardTasksCounter()->value();
  const uint64_t merged0 = ShardMergeRowsCounter()->value();
  RunOutput got = MustRun(sharded_db.get(), red, q, 1, false);
  ExpectSameOutput(want, got, "pruned-descendant");
  EXPECT_GT(ShardPrunedCounter()->value(), pruned0)
      << "no shard was pruned on a single-branch context";
  EXPECT_GT(ShardTasksCounter()->value(), tasks0);
  EXPECT_GT(ShardMergeRowsCounter()->value(), merged0);
}

// ---------------------------------------------------------------------------
// 4. Plan-cache slices: shard counts never share entries.
// ---------------------------------------------------------------------------

TEST(ShardPlanCacheTest, EntriesNeverCrossShardCounts) {
  MovieDb db1 = BuildMovieDb();
  MovieDb db4 = BuildMovieDb();
  db4.db->SetShardCount(4);
  query::PlanCache cache;
  const std::string q =
      "for $m in document(\"d\")/{red}descendant::movie return $m";

  auto run = [&](MovieDb& m) {
    mcx::EvalOptions o;
    o.default_color = m.red;
    o.planner = true;
    o.plan_cache = &cache;
    mcx::Evaluator ev(m.db.get(), o);
    auto r = ev.Run(q);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->items.size(), 3u);
  };

  run(db1);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Same text under 4 shards: the shard-sliced fingerprint must miss the
  // unsharded slice — a hit would replay a plan costed for the wrong
  // fan-out.
  run(db4);
  EXPECT_EQ(cache.stats().hits, 0u) << "plan crossed shard-count slices";
  EXPECT_EQ(cache.stats().misses, 2u);
  // Each slice hits itself on re-run.
  run(db1);
  EXPECT_EQ(cache.stats().hits, 1u);
  run(db4);
  EXPECT_EQ(cache.stats().hits, 2u);
}

}  // namespace
}  // namespace mct
