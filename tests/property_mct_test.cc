// Property-based randomized MCT tests: seeded random mutation batches
// (CreateElement / AddNodeColor / RemoveNodeColor / SetContent / SetAttr,
// then a fresh color built from an existing subtree, as createColor does)
// against a multi-color database, asserting after every batch that
//   * every Definition 3.1/3.2 invariant holds (ValidateDatabase),
//   * a snapshot save/load round-trip reproduces an isomorphic database,
//   * InferSchema's projection of the maintained type counts equals the
//     walk over every tree, before and after the round trip,
//   * run on a CowClone, the copy-on-write index images answer every
//     TagScan / ContentLookup / AttrLookup as a full scan of the clone
//     does, while the parent sharing them answers as before the batch.
// Mutations that violate MCT preconditions (duplicate color, cross-tree
// parent) must fail with a clean Status, never corrupt state.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mct/database.h"
#include "mct/snapshot.h"
#include "mct/validate.h"
#include "random_mct.h"
#include "schema_oracle.h"
#include "serialize/exchange.h"

namespace mct {
namespace {

using serialize::DatabasesIsomorphic;
using testfix::ProjectionMatchesWalk;

using testfix::kColors;
using testfix::kTags;
using testfix::Model;
using testfix::Mutate;

/// createColor at the database level: registers `name` and gives a random
/// node's subtree in another color the new color too (same identities,
/// rooted at the document).
void CreateColor(Model& m, Rng& rng, const std::string& name) {
  const ColorId from = rng.Pick(m.colors);
  const std::vector<NodeId> in = m.InColor(from);
  auto c = m.db->RegisterColor(name);
  ASSERT_TRUE(c.ok()) << c.status();
  m.colors.push_back(*c);
  if (in.size() < 2) return;  // only the document
  NodeId root = in[1 + rng.Uniform(in.size() - 1)];
  std::vector<std::pair<NodeId, NodeId>> stack{{m.db->document(), root}};
  while (!stack.empty()) {
    auto [parent, n] = stack.back();
    stack.pop_back();
    ASSERT_TRUE(m.db->AddNodeColor(n, *c, parent).ok());
    for (NodeId ch : m.db->Children(n, from)) stack.emplace_back(n, ch);
  }
}

// ---- Index-image oracle ----

/// The keys an index lookup can be probed with: (color, tag) for TagScan,
/// (tag, content) for ContentLookup, (attr, value) for AttrLookup.
struct Probes {
  std::set<std::pair<ColorId, std::string>> tags;
  std::set<std::pair<std::string, std::string>> contents;
  std::set<std::pair<std::string, std::string>> attrs;

  void Add(const Probes& o) {
    tags.insert(o.tags.begin(), o.tags.end());
    contents.insert(o.contents.begin(), o.contents.end());
    attrs.insert(o.attrs.begin(), o.attrs.end());
  }
};

/// Nodes carrying at least one color (the index-visible ones), by id.
std::set<NodeId> IndexedNodes(const MctDatabase& db) {
  std::set<NodeId> out;
  for (ColorId c = 0; c < db.num_colors(); ++c) {
    for (NodeId n : db.tree(c)->PreOrder(db.document())) out.insert(n);
  }
  return out;
}

/// Every (color, tag) of kTags, plus every (tag, content) and (attr,
/// value) an indexed node of `db` holds.
Probes ProbesOf(const MctDatabase& db) {
  Probes p;
  for (ColorId c = 0; c < db.num_colors(); ++c) {
    for (const char* tag : kTags) p.tags.emplace(c, tag);
  }
  for (NodeId n : IndexedNodes(db)) {
    if (db.store().HasContent(n)) p.contents.emplace(db.Tag(n), db.Content(n));
    for (const NodeAttr& a : db.Attrs(n)) {
      p.attrs.emplace(db.store().names().Name(a.name), a.value);
    }
  }
  return p;
}

/// Answers keyed by a printable probe, so a mismatch names its key.
using Answers = std::map<std::string, std::vector<NodeId>>;

/// What the index images answer for `p`.
Answers ImageAnswers(MctDatabase& db, const Probes& p) {
  Answers out;
  for (const auto& [c, tag] : p.tags) {
    out["tag " + std::to_string(c) + " " + tag] = db.TagScan(c, tag);
  }
  for (const auto& [tag, value] : p.contents) {
    out["content " + tag + "=" + value] = db.ContentLookup(tag, value);
  }
  for (const auto& [name, value] : p.attrs) {
    out["attr " + name + "=" + value] = db.AttrLookup(name, value);
  }
  return out;
}

/// What a full scan of the trees and node payloads says the same lookups
/// must return: TagScan in local document order, the value lookups by id.
Answers ScanAnswers(const MctDatabase& db, const Probes& p) {
  Answers out;
  for (const auto& [c, tag] : p.tags) {
    std::vector<NodeId>& hits = out["tag " + std::to_string(c) + " " + tag];
    if (c >= db.num_colors()) continue;
    for (NodeId n : db.tree(c)->PreOrder(db.document())) {
      if (db.Kind(n) == xml::NodeKind::kElement && db.Tag(n) == tag) {
        hits.push_back(n);
      }
    }
  }
  const std::set<NodeId> indexed = IndexedNodes(db);
  for (const auto& [tag, value] : p.contents) {
    std::vector<NodeId>& hits = out["content " + tag + "=" + value];
    for (NodeId n : indexed) {
      if (db.Tag(n) == tag && db.store().HasContent(n) &&
          db.Content(n) == value) {
        hits.push_back(n);
      }
    }
  }
  for (const auto& [name, value] : p.attrs) {
    std::vector<NodeId>& hits = out["attr " + name + "=" + value];
    for (NodeId n : indexed) {
      const std::string* v = db.FindAttr(n, name);
      if (v != nullptr && *v == value) hits.push_back(n);
    }
  }
  return out;
}

/// Empties one key of each image in the clone: detaches every member of
/// the fullest (color, tag) from its color, and moves every member of the
/// fullest (tag, content) and (attr, value) to a fresh value. Returns the
/// mutations that put the members back (into a later version).
using Undo = std::vector<std::function<void(MctDatabase&)>>;
Undo RemoveEveryMember(Model& m) {
  MctDatabase& db = *m.db;
  const Probes p = ProbesOf(db);
  Undo undo;
  // (color, tag): members still colored after the detach (their other
  // colors keep them alive) are re-added under the document.
  std::pair<ColorId, std::string> tag_key;
  std::vector<NodeId> members;
  for (const auto& key : p.tags) {
    std::vector<NodeId> hits = db.TagScan(key.first, key.second);
    if (hits.size() > members.size()) {
      tag_key = key;
      members = std::move(hits);
    }
  }
  for (NodeId n : members) {
    if (db.store().Exists(n) && db.Colors(n).Has(tag_key.first)) {
      EXPECT_TRUE(db.RemoveNodeColor(n, tag_key.first).ok());
    }
  }
  m.Prune();
  EXPECT_TRUE(db.TagScan(tag_key.first, tag_key.second).empty());
  for (NodeId n : members) {
    undo.push_back([n, c = tag_key.first](MctDatabase& v) {
      if (v.store().Exists(n) && !v.Colors(n).Has(c)) {
        EXPECT_TRUE(v.AddNodeColor(n, c, v.document()).ok());
      }
    });
  }
  // (tag, content) and (attr, value): the fullest key of each.
  auto fullest = [&](const auto& keys, auto lookup) {
    std::pair<std::string, std::string> best;
    std::vector<NodeId> best_hits;
    for (const auto& key : keys) {
      std::vector<NodeId> hits = lookup(key.first, key.second);
      if (hits.size() > best_hits.size()) {
        best = key;
        best_hits = std::move(hits);
      }
    }
    return std::make_pair(best, best_hits);
  };
  auto [content_key, with_content] =
      fullest(p.contents, [&](const std::string& t, const std::string& v) {
        return db.ContentLookup(t, v);
      });
  for (NodeId n : with_content) {
    EXPECT_TRUE(db.SetContent(n, "moved").ok());
    undo.push_back([n, value = content_key.second](MctDatabase& v) {
      EXPECT_TRUE(v.SetContent(n, value).ok());
    });
  }
  auto [attr_key, with_attr] =
      fullest(p.attrs, [&](const std::string& a, const std::string& v) {
        return db.AttrLookup(a, v);
      });
  for (NodeId n : with_attr) {
    EXPECT_TRUE(db.SetAttr(n, attr_key.first, "moved").ok());
    undo.push_back(
        [n, name = attr_key.first, value = attr_key.second](MctDatabase& v) {
          EXPECT_TRUE(v.SetAttr(n, name, value).ok());
        });
  }
  return undo;
}

TEST(PropertyMctTest, RandomMutationBatchesStayValidAndRoundTrip) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    Model m;
    for (const char* name : kColors) {
      auto c = m.db->RegisterColor(name);
      ASSERT_TRUE(c.ok());
      m.colors.push_back(*c);
    }
    const std::string path = testing::TempDir() + "/property_" +
                             std::to_string(seed) + ".snap";
    for (int batch = 0; batch < 8; ++batch) {
      for (int i = 0; i < 40; ++i) {
        Mutate(m, rng);
        if (::testing::Test::HasFatalFailure()) return;
        EXPECT_TRUE(ProjectionMatchesWalk(*m.db))
            << "seed " << seed << " batch " << batch << " step " << i;
      }
      CreateColor(m, rng, "batch" + std::to_string(batch));
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_TRUE(ProjectionMatchesWalk(*m.db))
          << "seed " << seed << " batch " << batch << " createColor";
      ValidationReport report = ValidateDatabase(*m.db);
      EXPECT_TRUE(report.ok())
          << "seed " << seed << " batch " << batch << "\n"
          << report.ToString();
      ASSERT_TRUE(SaveSnapshot(*m.db, path).ok());
      auto loaded = OpenSnapshot(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      std::string why;
      EXPECT_TRUE(DatabasesIsomorphic(*m.db, **loaded, &why))
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

// Every batch runs on a CowClone of the previous version: the clone's
// index lookups must match a full scan of the clone, and the parent it
// shares its images with must still answer as it did before the batch.
// One batch empties a key of each image, the next puts its members back.
TEST(PropertyMctTest, CloneIndexImagesMatchAScanAndLeaveTheParentFrozen) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    Rng rng(seed);
    Model m;
    for (const char* name : kColors) {
      auto c = m.db->RegisterColor(name);
      ASSERT_TRUE(c.ok());
      m.colors.push_back(*c);
    }
    for (int i = 0; i < 80; ++i) Mutate(m, rng);
    if (::testing::Test::HasFatalFailure()) return;
    Undo undo;
    for (int batch = 0; batch < 10; ++batch) {
      std::unique_ptr<MctDatabase> parent = std::move(m.db);
      m.db = parent->CowClone();
      const Probes before = ProbesOf(*parent);
      const Answers parent_before = ImageAnswers(*parent, before);
      if (batch == 4) {
        undo = RemoveEveryMember(m);
      } else if (batch == 5) {
        for (const auto& put_back : undo) put_back(*m.db);
        undo.clear();
      } else {
        for (int i = 0; i < 30; ++i) Mutate(m, rng);
      }
      if (::testing::Test::HasFatalFailure()) return;
      Probes all = ProbesOf(*m.db);
      all.Add(before);
      EXPECT_EQ(ImageAnswers(*m.db, all), ScanAnswers(*m.db, all))
          << "seed " << seed << " batch " << batch << ": clone";
      EXPECT_EQ(ImageAnswers(*parent, all), ScanAnswers(*parent, all))
          << "seed " << seed << " batch " << batch << ": parent";
      EXPECT_EQ(ImageAnswers(*parent, before), parent_before)
          << "seed " << seed << " batch " << batch << ": parent moved";
    }
  }
}

TEST(PropertyMctTest, DeterministicForFixedSeed) {
  // The generator is part of the test contract: a fixed seed must replay
  // the identical database (otherwise failures aren't reproducible).
  auto build = [](Model& m) {
    Rng rng(99);
    for (const char* name : kColors) {
      m.colors.push_back(*m.db->RegisterColor(name));
    }
    for (int i = 0; i < 60; ++i) Mutate(m, rng);
  };
  Model a;
  build(a);
  if (::testing::Test::HasFatalFailure()) return;
  Model b;
  build(b);
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(*a.db, *b.db, &why)) << why;
}

}  // namespace
}  // namespace mct
