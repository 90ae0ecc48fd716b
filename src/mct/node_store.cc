#include "mct/node_store.h"

#include <cstring>

namespace mct {

namespace {

// Fixed-size attribute record in the backing file: name id plus the slot of
// the value string.
struct DiskAttrRecord {
  NameId name;
  SlotId value_slot;
};

}  // namespace

NodeStore::Backing::Backing(StorageEnv* env)
    : node_file(env->pool(), sizeof(DiskNodeRecord)),
      content_file(env->pool()),
      attr_file(env->pool(), sizeof(DiskAttrRecord)),
      attr_value_file(env->pool()) {}

NodeStore::NodeStore(StorageEnv* env)
    : names_(std::make_shared<NamePool>()),
      backing_(std::make_shared<Backing>(env)) {}

NodeStore::NodeStore(const NodeStore& o, bool write_through)
    : names_(o.names_),
      nodes_(o.nodes_),
      backing_(o.backing_),
      write_through_(write_through),
      num_elements_(o.num_elements_),
      num_attrs_(o.num_attrs_),
      num_content_(o.num_content_) {}

Result<NodeId> NodeStore::CreateNode(xml::NodeKind kind,
                                     std::string_view name) {
  if (nodes_.count() >= kInvalidNodeId) {
    return Status::OutOfRange("node store full");
  }
  NodeId id = static_cast<NodeId>(nodes_.count());
  Node& node = nodes_.Put(id);
  node.kind = kind;
  node.name = CowOwn(names_)->Intern(name);
  if (kind == xml::NodeKind::kElement) ++num_elements_;
  if (write_through_) {
    // Backing file record. Node ids are dense within the committer chain;
    // records orphaned by a discarded trial clone only skew the returned
    // index, which accounting tolerates (recovery never reads this file).
    DiskNodeRecord rec{};
    rec.kind = static_cast<uint8_t>(kind);
    rec.has_content = 0;
    rec.name = node.name;
    rec.colors = 0;
    rec.content_slot = kInvalidSlotId;
    MCT_ASSIGN_OR_RETURN(uint64_t idx, backing_->node_file.Append(&rec));
    (void)idx;
  }
  return id;
}

Status NodeStore::WriteNodeRecord(NodeId n) {
  if (!write_through_) return Status::OK();
  const Node& node = nodes_.At(n);
  DiskNodeRecord rec{};
  rec.kind = static_cast<uint8_t>(node.kind);
  rec.has_content = node.has_content ? 1 : 0;
  rec.name = node.name;
  rec.colors = node.colors.mask();
  rec.content_slot = node.content_slot;
  if (n >= backing_->node_file.num_records()) return Status::OK();
  return backing_->node_file.Write(n, &rec);
}

void NodeStore::AddColor(NodeId n, ColorId c) {
  nodes_.Mut(n).colors.Add(c);
  // Color membership is a property of the node record (Section 6.2: links
  // from the shared content back to each per-color structural node).
  Status s = WriteNodeRecord(n);
  (void)s;
}

void NodeStore::RemoveColor(NodeId n, ColorId c) {
  nodes_.Mut(n).colors.Remove(c);
  Status s = WriteNodeRecord(n);
  (void)s;
}

Status NodeStore::SetContent(NodeId n, std::string_view text) {
  Node& node = nodes_.Mut(n);
  if (!node.has_content) {
    ++num_content_;
    node.has_content = true;
    if (write_through_) {
      MCT_ASSIGN_OR_RETURN(node.content_slot,
                           backing_->content_file.Append(text));
    }
  } else if (write_through_ && node.content_slot != kInvalidSlotId) {
    MCT_ASSIGN_OR_RETURN(
        node.content_slot,
        backing_->content_file.Update(node.content_slot, text));
  }
  node.content = std::string(text);
  return WriteNodeRecord(n);
}

const std::string* NodeStore::FindAttr(NodeId n, std::string_view name) const {
  NameId id = names_->Lookup(name);
  if (id == kInvalidNameId) return nullptr;
  for (const NodeAttr& a : nodes_.At(n).attrs) {
    if (a.name == id) return &a.value;
  }
  return nullptr;
}

Status NodeStore::SetAttr(NodeId n, std::string_view name,
                          std::string_view value) {
  NameId id = CowOwn(names_)->Intern(name);
  Node& node = nodes_.Mut(n);
  for (size_t i = 0; i < node.attrs.size(); ++i) {
    if (node.attrs[i].name == id) {
      node.attrs[i].value = std::string(value);
      if (write_through_ && node.attr_value_slots[i] != kInvalidSlotId) {
        MCT_ASSIGN_OR_RETURN(
            node.attr_value_slots[i],
            backing_->attr_value_file.Update(node.attr_value_slots[i], value));
        DiskAttrRecord rec{id, node.attr_value_slots[i]};
        return backing_->attr_file.Write(node.attr_records[i], &rec);
      }
      return Status::OK();
    }
  }
  ++num_attrs_;
  node.attrs.push_back(NodeAttr{id, std::string(value)});
  if (write_through_) {
    MCT_ASSIGN_OR_RETURN(SlotId vslot, backing_->attr_value_file.Append(value));
    node.attr_value_slots.push_back(vslot);
    DiskAttrRecord rec{id, vslot};
    MCT_ASSIGN_OR_RETURN(uint64_t ridx, backing_->attr_file.Append(&rec));
    node.attr_records.push_back(ridx);
  } else {
    node.attr_value_slots.push_back(kInvalidSlotId);
    node.attr_records.push_back(0);
  }
  return Status::OK();
}

}  // namespace mct
