// NodeStore: the shared node set N of an MCT database (Definition 3.2).
//
// Follows the Timber decomposition the paper implements on (Section 6.2):
// an element's *content* and *attributes* are stored exactly once, no matter
// how many colors the element has; per-color *structural* records live in
// ColoredTree. The resident image is a write-through cache of the backing
// record files, whose page counts provide the exact storage accounting of
// Table 1.
//
// MVCC (DESIGN.md §14): the resident image lives in a CowChunkVector so a
// snapshot version clones by copying one leaf pointer per 8,192 nodes and
// shares every leaf and chunk a later commit does not touch. The backing
// files are shared across the whole version lineage and written only by
// instances with write_through enabled — the single committer chain.
// Detached clones (reader snapshots, trial statement sandboxes) never touch
// the files, so any number of them may exist concurrently.

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
#include "storage/record_file.h"
#include "storage/slotted_file.h"
#include "storage/storage_env.h"
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
  explicit NodeStore(StorageEnv* env);

  /// COW clone: shares every node chunk, the name pool, and the backing
  /// files with `o`. When `write_through` is false the clone is detached —
  /// no mutation ever reaches the backing files.
  NodeStore(const NodeStore& o, bool write_through);

  NodeStore(const NodeStore&) = delete;
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
  void AddColor(NodeId n, ColorId c);
  void RemoveColor(NodeId n, ColorId c);

  /// The node's own text content ("" when none). An element's *string
  /// value* additionally concatenates descendants and is color dependent;
  /// that lives on MctDatabase.
  const std::string& Content(NodeId n) const { return nodes_.At(n).content; }
  bool HasContent(NodeId n) const { return nodes_.At(n).has_content; }
  Status SetContent(NodeId n, std::string_view text);

  /// Attribute access. Attribute "nodes" carry all the colors of their
  /// owning element (Definition 3.2), so they are stored as unsharded
  /// per-node payload.
  const std::vector<NodeAttr>& Attrs(NodeId n) const {
    return nodes_.At(n).attrs;
  }
  const std::string* FindAttr(NodeId n, std::string_view name) const;
  Status SetAttr(NodeId n, std::string_view name, std::string_view value);

  /// Marks a node dead (detached from every colored tree and dropped).
  void MarkDead(NodeId n) { nodes_.Mut(n).dead = true; }

  /// Interning mutates the pool, so it privatizes a shared one first.
  NamePool* mutable_names() { return CowOwn(names_); }
  const NamePool& names() const { return *names_; }

  /// Counts for Table 1.
  uint64_t num_elements() const { return num_elements_; }
  uint64_t num_attrs() const { return num_attrs_; }
  uint64_t num_content_nodes() const { return num_content_; }

  /// Bytes in the backing node / content / attribute files.
  uint64_t FileBytes() const {
    return backing_->node_file.SizeBytes() +
           backing_->content_file.SizeBytes() +
           backing_->attr_file.SizeBytes() +
           backing_->attr_value_file.SizeBytes();
  }

  /// COW leaves and chunks resident in this version (for the leak test
  /// baseline).
  size_t ResidentChunks() const {
    return nodes_.num_leaves() + nodes_.num_chunks();
  }

 private:
  // Backing-file image of the fixed-size part of a node.
  struct DiskNodeRecord {
    uint8_t kind;
    uint8_t has_content;
    NameId name;
    uint64_t colors;
    SlotId content_slot;
  };

  struct Node {
    xml::NodeKind kind = xml::NodeKind::kElement;
    NameId name = kInvalidNameId;
    ColorSet colors;
    bool has_content = false;
    bool dead = false;
    std::string content;
    SlotId content_slot = kInvalidSlotId;
    std::vector<NodeAttr> attrs;
    std::vector<uint64_t> attr_records;  // indices into attr_file
    std::vector<SlotId> attr_value_slots;
  };

  // The backing files, shared by every version in one lineage. Only the
  // write-through committer chain appends/writes; clones discarded after a
  // failed statement can leave orphan records behind, which affects only
  // the Table-1 byte accounting — recovery replays checkpoint + WAL and
  // never reads these files back (DESIGN.md §14).
  struct Backing {
    explicit Backing(StorageEnv* env);
    RecordFile node_file;
    SlottedFile content_file;
    RecordFile attr_file;
    SlottedFile attr_value_file;
  };

  Status WriteNodeRecord(NodeId n);

  std::shared_ptr<NamePool> names_;
  CowChunkVector<Node> nodes_;
  std::shared_ptr<Backing> backing_;
  bool write_through_ = true;
  uint64_t num_elements_ = 0;
  uint64_t num_attrs_ = 0;
  uint64_t num_content_ = 0;
};

}  // namespace mct

#endif  // COLORFUL_XML_MCT_NODE_STORE_H_
