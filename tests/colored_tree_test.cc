// Direct unit tests of ColoredTree: ordered insertion, detach, labels and
// their maintenance under mutation.

#include <gtest/gtest.h>

#include "mct/colored_tree.h"

namespace mct {
namespace {

struct Fixture {
  ColoredTree tree{0};
};

TEST(ColoredTreeTest, SetRootOnlyOnce) {
  Fixture f;
  EXPECT_TRUE(f.tree.SetRoot(0).ok());
  EXPECT_TRUE(f.tree.SetRoot(1).IsAlreadyExists());
  EXPECT_EQ(f.tree.root(), 0u);
  EXPECT_TRUE(f.tree.Contains(0));
  EXPECT_EQ(f.tree.size(), 1u);
}

TEST(ColoredTreeTest, AppendAndSiblingOrder) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  for (NodeId n : {10u, 11u, 12u}) {
    ASSERT_TRUE(f.tree.AppendChild(0, n).ok());
  }
  EXPECT_EQ(f.tree.Children(0), (std::vector<NodeId>{10, 11, 12}));
  EXPECT_EQ(f.tree.FirstChild(0), 10u);
  EXPECT_EQ(f.tree.NextSibling(10), 11u);
  EXPECT_EQ(f.tree.PrevSibling(11), 10u);
  EXPECT_EQ(f.tree.NextSibling(12), kInvalidNodeId);
  EXPECT_EQ(f.tree.Parent(10), 0u);
  EXPECT_EQ(f.tree.Parent(0), kInvalidNodeId);
}

TEST(ColoredTreeTest, InsertBefore) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  ASSERT_TRUE(f.tree.AppendChild(0, 10).ok());
  ASSERT_TRUE(f.tree.AppendChild(0, 12).ok());
  // Middle.
  ASSERT_TRUE(f.tree.InsertChild(0, 11, 12).ok());
  // Front.
  ASSERT_TRUE(f.tree.InsertChild(0, 9, 10).ok());
  EXPECT_EQ(f.tree.Children(0), (std::vector<NodeId>{9, 10, 11, 12}));
  // 'before' not a child of parent.
  ASSERT_TRUE(f.tree.AppendChild(10, 20).ok());
  EXPECT_TRUE(f.tree.InsertChild(0, 30, 20).IsInvalidArgument());
}

TEST(ColoredTreeTest, InsertErrors) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  EXPECT_TRUE(f.tree.AppendChild(99, 1).IsNotFound());  // unknown parent
  ASSERT_TRUE(f.tree.AppendChild(0, 1).ok());
  EXPECT_TRUE(f.tree.AppendChild(0, 1).IsAlreadyExists());  // duplicate
  EXPECT_TRUE(f.tree.AppendChild(1, 0).IsAlreadyExists());  // root reinsert
}

TEST(ColoredTreeTest, DetachMiddleChildRelinksSiblings) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  for (NodeId n : {10u, 11u, 12u}) {
    ASSERT_TRUE(f.tree.AppendChild(0, n).ok());
  }
  std::vector<NodeId> removed;
  ASSERT_TRUE(f.tree.DetachSubtree(11, &removed).ok());
  EXPECT_EQ(removed, (std::vector<NodeId>{11}));
  EXPECT_EQ(f.tree.Children(0), (std::vector<NodeId>{10, 12}));
  EXPECT_EQ(f.tree.NextSibling(10), 12u);
  EXPECT_EQ(f.tree.PrevSibling(12), 10u);
  EXPECT_FALSE(f.tree.Contains(11));
}

TEST(ColoredTreeTest, DetachSubtreeRemovesDescendants) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  ASSERT_TRUE(f.tree.AppendChild(0, 1).ok());
  ASSERT_TRUE(f.tree.AppendChild(1, 2).ok());
  ASSERT_TRUE(f.tree.AppendChild(2, 3).ok());
  ASSERT_TRUE(f.tree.AppendChild(1, 4).ok());
  std::vector<NodeId> removed;
  ASSERT_TRUE(f.tree.DetachSubtree(1, &removed).ok());
  EXPECT_EQ(removed.size(), 4u);
  EXPECT_EQ(f.tree.size(), 1u);
  EXPECT_TRUE(f.tree.Children(0).empty());
  // Detach errors.
  EXPECT_TRUE(f.tree.DetachSubtree(1, &removed).IsNotFound());
  EXPECT_TRUE(f.tree.DetachSubtree(0, &removed).IsInvalidArgument());
}

TEST(ColoredTreeTest, LabelsSurviveDetachWithoutRelabel) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  for (NodeId n : {1u, 2u, 3u}) ASSERT_TRUE(f.tree.AppendChild(0, n).ok());
  ASSERT_TRUE(f.tree.AppendChild(2, 20).ok());
  f.tree.EnsureLabels();
  uint64_t s1 = f.tree.Start(1);
  uint64_t s3 = f.tree.Start(3);
  std::vector<NodeId> removed;
  ASSERT_TRUE(f.tree.DetachSubtree(2, &removed).ok());
  EXPECT_FALSE(f.tree.labels_dirty());
  EXPECT_EQ(f.tree.Start(1), s1);
  EXPECT_EQ(f.tree.Start(3), s3);
  EXPECT_TRUE(f.tree.IsAncestor(0, 3));
}

TEST(ColoredTreeTest, PreOrderOfSubtree) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  ASSERT_TRUE(f.tree.AppendChild(0, 1).ok());
  ASSERT_TRUE(f.tree.AppendChild(1, 2).ok());
  ASSERT_TRUE(f.tree.AppendChild(1, 3).ok());
  ASSERT_TRUE(f.tree.AppendChild(3, 4).ok());
  ASSERT_TRUE(f.tree.AppendChild(0, 5).ok());
  EXPECT_EQ(f.tree.PreOrder(1), (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(f.tree.PreOrder(), (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(f.tree.PreOrder(99).empty());
}

TEST(ColoredTreeTest, ForEachChildMatchesChildren) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  for (NodeId n : {7u, 8u, 9u}) ASSERT_TRUE(f.tree.AppendChild(0, n).ok());
  std::vector<NodeId> seen;
  f.tree.ForEachChild(0, [&](NodeId c) { seen.push_back(c); });
  EXPECT_EQ(seen, f.tree.Children(0));
  f.tree.ForEachChild(12345, [&](NodeId) { FAIL(); });
}

TEST(ColoredTreeTest, GapInsertBetweenSiblingsKeepsOrder) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  ASSERT_TRUE(f.tree.AppendChild(0, 1).ok());
  ASSERT_TRUE(f.tree.AppendChild(0, 3).ok());
  f.tree.EnsureLabels();
  ASSERT_FALSE(f.tree.labels_dirty());
  ASSERT_TRUE(f.tree.InsertChild(0, 2, 3).ok());
  EXPECT_FALSE(f.tree.labels_dirty());  // gap labeling succeeded
  EXPECT_LT(f.tree.Start(1), f.tree.Start(2));
  EXPECT_LT(f.tree.Start(2), f.tree.Start(3));
  EXPECT_TRUE(f.tree.IsAncestor(0, 2));
}

TEST(ColoredTreeTest, DeepChainLevelsAndIntervals) {
  Fixture f;
  ASSERT_TRUE(f.tree.SetRoot(0).ok());
  NodeId prev = 0;
  for (NodeId n = 1; n <= 200; ++n) {
    ASSERT_TRUE(f.tree.AppendChild(prev, n).ok());
    prev = n;
  }
  f.tree.EnsureLabels();
  for (NodeId n = 1; n <= 200; ++n) {
    EXPECT_TRUE(f.tree.IsAncestor(n - 1, n));
    EXPECT_TRUE(f.tree.IsAncestor(0, n));
  }
  EXPECT_FALSE(f.tree.IsAncestor(200, 0));
}

}  // namespace
}  // namespace mct
