// Random multi-color MCT databases for property tests: a seeded mutation
// generator (CreateElement / AddNodeColor / RemoveNodeColor / SetContent /
// SetAttr) over the tags and colors below. Precondition violations are
// allowed and must surface as a clean Status.

#ifndef COLORFUL_XML_TESTS_RANDOM_MCT_H_
#define COLORFUL_XML_TESTS_RANDOM_MCT_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mct/database.h"

namespace mct::testfix {

inline const char* kTags[] = {"a", "b", "c", "item", "name"};
inline const char* kColors[] = {"red", "green", "blue"};

struct Model {
  std::unique_ptr<MctDatabase> db = std::make_unique<MctDatabase>();
  std::vector<ColorId> colors;
  std::vector<NodeId> nodes;  // every live element ever created, pruned lazily

  /// Nodes currently in `c`'s tree (always includes the document).
  std::vector<NodeId> InColor(ColorId c) const {
    std::vector<NodeId> out{db->document()};
    for (NodeId n : nodes) {
      if (db->store().Exists(n) && db->Colors(n).Has(c)) out.push_back(n);
    }
    return out;
  }

  void Prune() {
    std::vector<NodeId> live;
    for (NodeId n : nodes) {
      if (db->store().Exists(n)) live.push_back(n);
    }
    nodes = std::move(live);
  }
};

/// One random mutation. Precondition violations are allowed — they must
/// surface as a non-OK Status; anything else (crash, corruption) fails the
/// test via the validation pass after the batch.
inline void Mutate(Model& m, Rng& rng) {
  ColorId c = rng.Pick(m.colors);
  switch (rng.Uniform(6)) {
    case 0:
    case 1: {  // grow: new element under a random parent of a random tree
      NodeId parent = rng.Pick(m.InColor(c));
      auto n = m.db->CreateElement(c, parent, kTags[rng.Uniform(5)]);
      ASSERT_TRUE(n.ok()) << n.status();
      m.nodes.push_back(*n);
      break;
    }
    case 2: {  // recolor: give an existing node another color
      if (m.nodes.empty()) return;
      NodeId node = rng.Pick(m.nodes);
      if (!m.db->store().Exists(node)) return;
      NodeId parent = rng.Pick(m.InColor(c));
      Status s = m.db->AddNodeColor(node, c, parent);
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
      if (!m.db->store().Exists(node)) return;
      if (!m.db->Colors(node).Has(c)) return;
      ASSERT_TRUE(m.db->RemoveNodeColor(node, c).ok());
      m.Prune();
      break;
    }
    case 4: {  // content
      if (m.nodes.empty()) return;
      NodeId node = rng.Pick(m.nodes);
      if (!m.db->store().Exists(node)) return;
      ASSERT_TRUE(
          m.db->SetContent(node, "v" + std::to_string(rng.Uniform(100))).ok());
      break;
    }
    case 5: {  // attribute
      if (m.nodes.empty()) return;
      NodeId node = rng.Pick(m.nodes);
      if (!m.db->store().Exists(node)) return;
      ASSERT_TRUE(m.db->SetAttr(node, "k" + std::to_string(rng.Uniform(3)),
                               std::to_string(rng.Uniform(100)))
                      .ok());
      break;
    }
  }
}

}  // namespace mct::testfix

#endif  // COLORFUL_XML_TESTS_RANDOM_MCT_H_
