#include "mct/colored_tree.h"

#include <cassert>

#include "common/strings.h"

namespace mct {

Status ColoredTree::SetRoot(NodeId node) {
  if (root_ != kInvalidNodeId) {
    return Status::AlreadyExists("colored tree already has a root");
  }
  root_ = node;
  nodes_.Put(node);
  labels_dirty_ = true;
  return Status::OK();
}

Status ColoredTree::AppendChild(NodeId parent, NodeId child) {
  return InsertChild(parent, child, kInvalidNodeId);
}

Status ColoredTree::InsertChild(NodeId parent, NodeId child, NodeId before) {
  if (!nodes_.Contains(parent)) {
    return Status::NotFound(
        StrFormat("parent node %u is not in colored tree %u", parent, color_));
  }
  if (nodes_.Contains(child)) {
    // A node can appear at most once in any colored tree; MCXQuery turns
    // this into its dynamic error (Section 4.2).
    return Status::AlreadyExists(
        StrFormat("node %u already occurs in colored tree %u", child, color_));
  }
  if (before != kInvalidNodeId) {
    const StructNode* b = nodes_.Find(before);
    if (b == nullptr || b->parent != parent) {
      return Status::InvalidArgument("'before' is not a child of 'parent'");
    }
  }
  nodes_.Put(child).parent = parent;
  LinkChild(parent, child, before);
  if (!labels_dirty_) TryGapLabel(child);
  return Status::OK();
}

void ColoredTree::LinkChild(NodeId parent, NodeId child, NodeId before) {
  // Mut() may copy the chunk another reference points into, so sibling and
  // parent fields are updated one Mut at a time, never holding two
  // references at once.
  if (before == kInvalidNodeId) {
    NodeId last = nodes_.At(parent).last_child;
    nodes_.Mut(child).prev_sibling = last;
    if (last != kInvalidNodeId) {
      nodes_.Mut(last).next_sibling = child;
    } else {
      nodes_.Mut(parent).first_child = child;
    }
    nodes_.Mut(parent).last_child = child;
  } else {
    NodeId prev = nodes_.At(before).prev_sibling;
    {
      StructNode& c = nodes_.Mut(child);
      c.next_sibling = before;
      c.prev_sibling = prev;
    }
    if (prev != kInvalidNodeId) {
      nodes_.Mut(prev).next_sibling = child;
    } else {
      nodes_.Mut(parent).first_child = child;
    }
    nodes_.Mut(before).prev_sibling = child;
  }
}

void ColoredTree::TryGapLabel(NodeId node) {
  const StructNode& c = nodes_.At(node);
  const StructNode& p = nodes_.At(c.parent);
  uint64_t lo = (c.prev_sibling != kInvalidNodeId)
                    ? nodes_.At(c.prev_sibling).end
                    : p.start;
  uint64_t hi = (c.next_sibling != kInvalidNodeId)
                    ? nodes_.At(c.next_sibling).start
                    : p.end;
  if (hi <= lo || hi - lo < 3) {
    labels_dirty_ = true;
    return;
  }
  uint64_t third = (hi - lo) / 3;
  {
    StructNode& m = nodes_.Mut(node);
    m.start = lo + third;
    m.end = lo + 2 * third;
  }
}

Status ColoredTree::DetachSubtree(NodeId node, std::vector<NodeId>* removed) {
  const StructNode* it = nodes_.Find(node);
  if (it == nullptr) {
    return Status::NotFound(
        StrFormat("node %u is not in colored tree %u", node, color_));
  }
  if (node == root_) {
    return Status::InvalidArgument("cannot detach the document root");
  }
  // Unlink from parent / siblings (values copied out first; Mut may move
  // the chunk the last reference pointed into).
  NodeId parent = it->parent;
  NodeId prev = it->prev_sibling;
  NodeId next = it->next_sibling;
  if (prev != kInvalidNodeId) {
    nodes_.Mut(prev).next_sibling = next;
  } else {
    nodes_.Mut(parent).first_child = next;
  }
  if (next != kInvalidNodeId) {
    nodes_.Mut(next).prev_sibling = prev;
  } else {
    nodes_.Mut(parent).last_child = prev;
  }
  // Remove the whole subtree from the member set.
  std::vector<NodeId> stack{node};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    removed->push_back(n);
    const StructNode& sn = nodes_.At(n);
    for (NodeId ch = sn.first_child; ch != kInvalidNodeId;
         ch = nodes_.At(ch).next_sibling) {
      stack.push_back(ch);
    }
  }
  for (NodeId n : *removed) nodes_.Erase(n);
  // Remaining labels stay mutually consistent after a detach (pre-order
  // event numbers of survivors keep their relative order), so no relabel.
  return Status::OK();
}

NodeId ColoredTree::Parent(NodeId node) const {
  const StructNode* sn = nodes_.Find(node);
  return sn == nullptr ? kInvalidNodeId : sn->parent;
}

NodeId ColoredTree::FirstChild(NodeId node) const {
  const StructNode* sn = nodes_.Find(node);
  return sn == nullptr ? kInvalidNodeId : sn->first_child;
}

NodeId ColoredTree::NextSibling(NodeId node) const {
  const StructNode* sn = nodes_.Find(node);
  return sn == nullptr ? kInvalidNodeId : sn->next_sibling;
}

NodeId ColoredTree::PrevSibling(NodeId node) const {
  const StructNode* sn = nodes_.Find(node);
  return sn == nullptr ? kInvalidNodeId : sn->prev_sibling;
}

std::vector<NodeId> ColoredTree::Children(NodeId node) const {
  std::vector<NodeId> out;
  const StructNode* sn = nodes_.Find(node);
  if (sn == nullptr) return out;
  for (NodeId c = sn->first_child; c != kInvalidNodeId;
       c = nodes_.At(c).next_sibling) {
    out.push_back(c);
  }
  return out;
}

std::vector<NodeId> ColoredTree::PreOrder() const { return PreOrder(root_); }

std::vector<NodeId> ColoredTree::PreOrder(NodeId node) const {
  std::vector<NodeId> out;
  if (!nodes_.Contains(node)) return out;
  out.reserve(nodes_.count());
  // Iterative pre-order using first_child / next_sibling.
  NodeId cur = node;
  while (cur != kInvalidNodeId) {
    out.push_back(cur);
    const StructNode& sn = nodes_.At(cur);
    if (sn.first_child != kInvalidNodeId) {
      cur = sn.first_child;
      continue;
    }
    // Climb until a next sibling exists, stopping at the subtree root.
    NodeId climb = cur;
    cur = kInvalidNodeId;
    while (climb != node) {
      const StructNode& csn = nodes_.At(climb);
      if (csn.next_sibling != kInvalidNodeId) {
        cur = csn.next_sibling;
        break;
      }
      climb = csn.parent;
    }
  }
  return out;
}

void ColoredTree::EnsureLabels() {
  if (labels_dirty_) Relabel();
}

void ColoredTree::Relabel() {
  if (root_ == kInvalidNodeId) {
    labels_dirty_ = false;
    return;
  }
  uint64_t event = 0;
  // Iterative DFS with explicit enter/leave events.
  struct Frame {
    NodeId node;
    bool entered;
  };
  std::vector<Frame> stack{{root_, false}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (!f.entered) {
      f.entered = true;
      StructNode& sn = nodes_.Mut(f.node);
      sn.start = (++event) * kLabelGap;
      // Push children in reverse so the leftmost is processed first.
      std::vector<NodeId> kids;
      for (NodeId c = sn.first_child; c != kInvalidNodeId;
           c = nodes_.At(c).next_sibling) {
        kids.push_back(c);
      }
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back({*it, false});
      }
    } else {
      nodes_.Mut(f.node).end = (++event) * kLabelGap;
      stack.pop_back();
    }
  }
  labels_dirty_ = false;
}

}  // namespace mct
