// Property-based randomized MCT tests: seeded random mutation batches
// (CreateElement / AddNodeColor / RemoveNodeColor / SetContent / SetAttr,
// then a fresh color built from an existing subtree, as createColor does)
// against a multi-color database, asserting after every batch that
//   * every Definition 3.1/3.2 invariant holds (ValidateDatabase),
//   * a snapshot save/load round-trip reproduces an isomorphic database,
//   * InferSchema's projection of the maintained type counts equals the
//     walk over every tree, before and after the round trip.
// Mutations that violate MCT preconditions (duplicate color, cross-tree
// parent) must fail with a clean Status, never corrupt state.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mct/database.h"
#include "mct/snapshot.h"
#include "mct/validate.h"
#include "schema_oracle.h"
#include "serialize/exchange.h"

namespace mct {
namespace {

using serialize::DatabasesIsomorphic;
using testfix::ProjectionMatchesWalk;

const char* kTags[] = {"a", "b", "c", "item", "name"};
const char* kColors[] = {"red", "green", "blue"};

struct Model {
  MctDatabase db;
  std::vector<ColorId> colors;
  std::vector<NodeId> nodes;  // every live element ever created, pruned lazily

  /// Nodes currently in `c`'s tree (always includes the document).
  std::vector<NodeId> InColor(ColorId c) const {
    std::vector<NodeId> out{db.document()};
    for (NodeId n : nodes) {
      if (db.store().Exists(n) && db.Colors(n).Has(c)) out.push_back(n);
    }
    return out;
  }

  void Prune() {
    std::vector<NodeId> live;
    for (NodeId n : nodes) {
      if (db.store().Exists(n)) live.push_back(n);
    }
    nodes = std::move(live);
  }
};

/// One random mutation. Precondition violations are allowed — they must
/// surface as a non-OK Status; anything else (crash, corruption) fails the
/// test via the validation pass after the batch.
void Mutate(Model& m, Rng& rng) {
  ColorId c = rng.Pick(m.colors);
  switch (rng.Uniform(6)) {
    case 0:
    case 1: {  // grow: new element under a random parent of a random tree
      NodeId parent = rng.Pick(m.InColor(c));
      auto n = m.db.CreateElement(c, parent, kTags[rng.Uniform(5)]);
      ASSERT_TRUE(n.ok()) << n.status();
      m.nodes.push_back(*n);
      break;
    }
    case 2: {  // recolor: give an existing node another color
      if (m.nodes.empty()) return;
      NodeId node = rng.Pick(m.nodes);
      if (!m.db.store().Exists(node)) return;
      NodeId parent = rng.Pick(m.InColor(c));
      Status s = m.db.AddNodeColor(node, c, parent);
      // Duplicate color or a parent inside node's own subtree must be a
      // clean error, not corruption.
      if (!s.ok()) {
        EXPECT_FALSE(s.IsCorruption()) << s;
      }
      break;
    }
    case 3: {  // uncolor: detach a random subtree from one tree
      if (m.nodes.empty()) return;
      NodeId node = rng.Pick(m.nodes);
      if (!m.db.store().Exists(node)) return;
      if (!m.db.Colors(node).Has(c)) return;
      ASSERT_TRUE(m.db.RemoveNodeColor(node, c).ok());
      m.Prune();
      break;
    }
    case 4: {  // content
      if (m.nodes.empty()) return;
      NodeId node = rng.Pick(m.nodes);
      if (!m.db.store().Exists(node)) return;
      ASSERT_TRUE(
          m.db.SetContent(node, "v" + std::to_string(rng.Uniform(100))).ok());
      break;
    }
    case 5: {  // attribute
      if (m.nodes.empty()) return;
      NodeId node = rng.Pick(m.nodes);
      if (!m.db.store().Exists(node)) return;
      ASSERT_TRUE(m.db.SetAttr(node, "k" + std::to_string(rng.Uniform(3)),
                               std::to_string(rng.Uniform(100)))
                      .ok());
      break;
    }
  }
}

/// createColor at the database level: registers `name` and gives a random
/// node's subtree in another color the new color too (same identities,
/// rooted at the document).
void CreateColor(Model& m, Rng& rng, const std::string& name) {
  const ColorId from = rng.Pick(m.colors);
  const std::vector<NodeId> in = m.InColor(from);
  auto c = m.db.RegisterColor(name);
  ASSERT_TRUE(c.ok()) << c.status();
  m.colors.push_back(*c);
  if (in.size() < 2) return;  // only the document
  NodeId root = in[1 + rng.Uniform(in.size() - 1)];
  std::vector<std::pair<NodeId, NodeId>> stack{{m.db.document(), root}};
  while (!stack.empty()) {
    auto [parent, n] = stack.back();
    stack.pop_back();
    ASSERT_TRUE(m.db.AddNodeColor(n, *c, parent).ok());
    for (NodeId ch : m.db.Children(n, from)) stack.emplace_back(n, ch);
  }
}

TEST(PropertyMctTest, RandomMutationBatchesStayValidAndRoundTrip) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    Model m;
    for (const char* name : kColors) {
      auto c = m.db.RegisterColor(name);
      ASSERT_TRUE(c.ok());
      m.colors.push_back(*c);
    }
    const std::string path = testing::TempDir() + "/property_" +
                             std::to_string(seed) + ".snap";
    for (int batch = 0; batch < 8; ++batch) {
      for (int i = 0; i < 40; ++i) {
        Mutate(m, rng);
        if (::testing::Test::HasFatalFailure()) return;
        EXPECT_TRUE(ProjectionMatchesWalk(m.db))
            << "seed " << seed << " batch " << batch << " step " << i;
      }
      CreateColor(m, rng, "batch" + std::to_string(batch));
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_TRUE(ProjectionMatchesWalk(m.db))
          << "seed " << seed << " batch " << batch << " createColor";
      ValidationReport report = ValidateDatabase(m.db);
      EXPECT_TRUE(report.ok())
          << "seed " << seed << " batch " << batch << "\n"
          << report.ToString();
      ASSERT_TRUE(SaveSnapshot(m.db, path).ok());
      auto loaded = OpenSnapshot(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      std::string why;
      EXPECT_TRUE(DatabasesIsomorphic(m.db, **loaded, &why))
          << "seed " << seed << " batch " << batch << ": " << why;
      // The reloaded copy satisfies the same invariants.
      ValidationReport reloaded_report = ValidateDatabase(**loaded);
      EXPECT_TRUE(reloaded_report.ok()) << reloaded_report.ToString();
      EXPECT_TRUE(ProjectionMatchesWalk(**loaded))
          << "seed " << seed << " batch " << batch << " reloaded";
    }
    std::filesystem::remove(path);
  }
}

TEST(PropertyMctTest, DeterministicForFixedSeed) {
  // The generator is part of the test contract: a fixed seed must replay
  // the identical database (otherwise failures aren't reproducible).
  auto build = [](Model& m) {
    Rng rng(99);
    for (const char* name : kColors) {
      m.colors.push_back(*m.db.RegisterColor(name));
    }
    for (int i = 0; i < 60; ++i) Mutate(m, rng);
  };
  Model a;
  build(a);
  if (::testing::Test::HasFatalFailure()) return;
  Model b;
  build(b);
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(a.db, b.db, &why)) << why;
}

}  // namespace
}  // namespace mct
