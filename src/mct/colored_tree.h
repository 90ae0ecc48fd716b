// ColoredTree: the structural side of one color c — the ordered rooted tree
// T_c of Definition 3.1. A node's content lives once in NodeStore; here each
// member node has a *structural record* (parent, ordered children, interval
// label), exactly the Timber-style decomposition of Section 6.2: "we create
// one structural relationships node for each color hierarchy that the
// element participates in".
//
// Interval labels: every member carries (start, end) drawn from a
// pre-order event numbering scaled by 2^16. Gaps let small structural
// updates label new nodes in O(1); when a gap is exhausted the tree is
// marked dirty, and EnsureLabels() — the one place labels are rebuilt —
// relabels it fully. Label reads never relabel: they require clean labels.
// Labels give O(1) ancestor/descendant tests and the per-color *local
// document order* (Section 3.1), which is what the structural join
// operators sort-merge on.
//
// MVCC (DESIGN.md §14): structural records live in a CowChunkVector keyed
// by NodeId with engagement = tree membership, so a snapshot clone shares
// every 64-node chunk, and every 128-chunk leaf above them, that a later
// commit does not touch. This is the "copy-on-write at the structural-node
// level" of the MVCC design — a commit that inserts under one parent
// privatizes only the chunks holding that parent, its neighbors, and the
// new node, and the leaves that hold those chunks.
//
// CowChunkVector references are stable only until the next Put/Mut/Erase
// on the same instance (which may copy the chunk they point into), so the
// implementation re-acquires after every mutating call instead of holding
// references across them.

#ifndef COLORFUL_XML_MCT_COLORED_TREE_H_
#define COLORFUL_XML_MCT_COLORED_TREE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "mct/color.h"
#include "mct/node_store.h"

namespace mct {

class ColoredTree {
 public:
  explicit ColoredTree(ColorId color) : color_(color) {}

  /// COW clone: shares every structural chunk with `o`.
  ColoredTree(const ColoredTree& o) = default;
  ColoredTree& operator=(const ColoredTree&) = delete;

  ColorId color() const { return color_; }

  /// Installs `node` as the root (the shared document node). Must be the
  /// first node added.
  Status SetRoot(NodeId node);
  NodeId root() const { return root_; }

  /// True when `node` participates in this colored tree.
  bool Contains(NodeId node) const { return nodes_.Contains(node); }

  /// Appends `child` as the last child of `parent`.
  /// AlreadyExists when `child` is already in this tree — the hook for
  /// MCXQuery's duplicate-node dynamic error (Section 4.2).
  Status AppendChild(NodeId parent, NodeId child);

  /// Inserts `child` under `parent` immediately before `before`;
  /// `before` == kInvalidNodeId appends.
  Status InsertChild(NodeId parent, NodeId child, NodeId before);

  /// Detaches the subtree rooted at `node` from this color. Appends every
  /// detached node (pre-order) to `removed`. The nodes themselves survive in
  /// the store and in their other colors.
  Status DetachSubtree(NodeId node, std::vector<NodeId>* removed);

  // -- Navigation (color-aware dm:parent / dm:children of Section 3.2 are
  //    routed here by MctDatabase). All return kInvalidNodeId when absent.
  NodeId Parent(NodeId node) const;
  NodeId FirstChild(NodeId node) const;
  NodeId NextSibling(NodeId node) const;
  NodeId PrevSibling(NodeId node) const;
  std::vector<NodeId> Children(NodeId node) const;

  /// Visits children in order without materializing a vector (hot path for
  /// per-row predicate evaluation). Exactly one chunk probe per child: the
  /// sibling link is read from that probe before `fn` runs.
  template <typename Fn>
  void ForEachChild(NodeId node, Fn&& fn) const {
    const StructNode* sn = nodes_.Find(node);
    if (sn == nullptr) return;
    NodeId c = sn->first_child;
    while (c != kInvalidNodeId) {
      const StructNode* cn = nodes_.Find(c);
      assert(cn != nullptr);
      NodeId next = cn->next_sibling;
      fn(c);
      c = next;
    }
  }

  /// Pre-order (local document order) of the whole tree.
  std::vector<NodeId> PreOrder() const;
  /// Pre-order of the subtree rooted at `node` (inclusive).
  std::vector<NodeId> PreOrder(NodeId node) const;

  // -- Interval labels. Reads require clean labels (asserted): callers run
  //    EnsureLabels() first — an operator once before fanning out — and the
  //    reads never mutate the tree, so parallel workers may share them.
  uint64_t Start(NodeId node) const {
    assert(!labels_dirty_);
    return nodes_.At(node).start;
  }
  uint64_t End(NodeId node) const {
    assert(!labels_dirty_);
    return nodes_.At(node).end;
  }
  /// True when `anc` is a proper ancestor of `desc` in this color.
  bool IsAncestor(NodeId anc, NodeId desc) const {
    assert(!labels_dirty_);
    const StructNode* a = nodes_.Find(anc);
    const StructNode* d = nodes_.Find(desc);
    if (a == nullptr || d == nullptr) return false;
    return a->start < d->start && d->end < a->end;
  }

  /// Relabels now if dirty (updates fold this into their measured cost).
  void EnsureLabels();
  bool labels_dirty() const { return labels_dirty_; }

  size_t size() const { return nodes_.count(); }

  /// COW leaves and chunks resident in this version (for the leak test
  /// baseline).
  size_t ResidentChunks() const {
    return nodes_.num_leaves() + nodes_.num_chunks();
  }

 private:
  struct StructNode {
    NodeId parent = kInvalidNodeId;
    NodeId first_child = kInvalidNodeId;
    NodeId last_child = kInvalidNodeId;
    NodeId next_sibling = kInvalidNodeId;
    NodeId prev_sibling = kInvalidNodeId;
    uint64_t start = 0;
    uint64_t end = 0;
  };

  // Gap between consecutive pre-order events after a full relabel.
  static constexpr uint64_t kLabelGap = 1ULL << 16;

  void LinkChild(NodeId parent, NodeId child, NodeId before);
  /// Tries to label a freshly inserted leaf within its neighbors' gap;
  /// marks the tree dirty when the gap is exhausted.
  void TryGapLabel(NodeId node);
  void Relabel();

  ColorId color_;
  NodeId root_ = kInvalidNodeId;
  CowChunkVector<StructNode> nodes_;
  bool labels_dirty_ = true;
};

}  // namespace mct

#endif  // COLORFUL_XML_MCT_COLORED_TREE_H_
