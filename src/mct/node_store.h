// NodeStore: the shared node set N of an MCT database (Definition 3.2).
//
// Follows the Timber decomposition the paper implements on (Section 6.2):
// an element's *content* and *attributes* are stored exactly once, no matter
// how many colors the element has; per-color *structural* records live in
// ColoredTree. MctDatabase::Stats() sizes Table 1 from this split.
//
// MVCC (DESIGN.md §14): nodes live in a CowChunkVector, so a snapshot
// version clones by copying one leaf pointer per 8,192 nodes and shares
// every leaf and chunk a later commit does not touch.

#ifndef COLORFUL_XML_MCT_NODE_STORE_H_
#define COLORFUL_XML_MCT_NODE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "mct/color.h"
#include "xml/dom.h"
#include "xml/name_pool.h"

namespace mct {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNodeId = 0xFFFFFFFFu;

/// One attribute of an element (stored once per node, like content).
struct NodeAttr {
  NameId name;
  std::string value;
};

class NodeStore {
 public:
  NodeStore() : names_(std::make_shared<NamePool>()) {}

  /// COW clone: shares every node chunk and the name pool with `o`.
  NodeStore(const NodeStore& o) = default;
  NodeStore& operator=(const NodeStore&) = delete;

  /// Creates a node of `kind` named `name` (tag for elements, target for
  /// PIs; ignored for document/text/comment nodes).
  Result<NodeId> CreateNode(xml::NodeKind kind, std::string_view name);

  size_t size() const { return nodes_.count(); }
  bool Exists(NodeId n) const {
    const Node* node = nodes_.Find(n);
    return node != nullptr && !node->dead;
  }

  xml::NodeKind Kind(NodeId n) const { return nodes_.At(n).kind; }
  NameId Name(NodeId n) const { return nodes_.At(n).name; }
  const std::string& NameString(NodeId n) const {
    return names_->Name(nodes_.At(n).name);
  }

  /// dm:colors accessor (paper Section 3.2): the colors of a node.
  ColorSet Colors(NodeId n) const { return nodes_.At(n).colors; }
  void AddColor(NodeId n, ColorId c) { nodes_.Mut(n).colors.Add(c); }
  void RemoveColor(NodeId n, ColorId c) { nodes_.Mut(n).colors.Remove(c); }

  /// The node's own text content ("" when none). An element's *string
  /// value* additionally concatenates descendants and is color dependent;
  /// that lives on MctDatabase.
  const std::string& Content(NodeId n) const { return nodes_.At(n).content; }
  bool HasContent(NodeId n) const { return nodes_.At(n).has_content; }
  void SetContent(NodeId n, std::string_view text) {
    Node& node = nodes_.Mut(n);
    node.has_content = true;
    node.content = std::string(text);
  }

  /// Attribute access. Attribute "nodes" carry all the colors of their
  /// owning element (Definition 3.2), so they are stored as unsharded
  /// per-node payload.
  const std::vector<NodeAttr>& Attrs(NodeId n) const {
    return nodes_.At(n).attrs;
  }
  const std::string* FindAttr(NodeId n, std::string_view name) const;
  const std::string* FindAttr(NodeId n, NameId name) const;
  /// Sets attribute `name` (an id from InternName) of node `n`.
  void SetAttr(NodeId n, NameId name, std::string_view value);

  /// Marks a node dead (detached from every colored tree and dropped).
  void MarkDead(NodeId n) { nodes_.Mut(n).dead = true; }

  /// The id of `name`, interned if new. The pool is shared between
  /// versions, so only a name it lacks privatizes it (copies it when
  /// another version still holds it).
  NameId InternName(std::string_view name);
  const NamePool& names() const { return *names_; }

  /// COW leaves and chunks resident in this version (for the leak test
  /// baseline).
  size_t ResidentChunks() const {
    return nodes_.num_leaves() + nodes_.num_chunks();
  }

 private:
  struct Node {
    xml::NodeKind kind = xml::NodeKind::kElement;
    NameId name = kInvalidNameId;
    ColorSet colors;
    bool has_content = false;
    bool dead = false;
    std::string content;
    std::vector<NodeAttr> attrs;
  };

  std::shared_ptr<NamePool> names_;
  CowChunkVector<Node> nodes_;
};

}  // namespace mct

#endif  // COLORFUL_XML_MCT_NODE_STORE_H_
