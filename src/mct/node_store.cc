#include "mct/node_store.h"

namespace mct {

Result<NodeId> NodeStore::CreateNode(xml::NodeKind kind,
                                     std::string_view name) {
  if (nodes_.count() >= kInvalidNodeId) {
    return Status::OutOfRange("node store full");
  }
  NodeId id = static_cast<NodeId>(nodes_.count());
  Node& node = nodes_.Put(id);
  node.kind = kind;
  node.name = InternName(name);
  return id;
}

NameId NodeStore::InternName(std::string_view name) {
  const NameId id = names_->Lookup(name);
  return id != kInvalidNameId ? id : CowOwn(names_)->Intern(name);
}

const std::string* NodeStore::FindAttr(NodeId n, std::string_view name) const {
  NameId id = names_->Lookup(name);
  if (id == kInvalidNameId) return nullptr;
  return FindAttr(n, id);
}

const std::string* NodeStore::FindAttr(NodeId n, NameId name) const {
  for (const NodeAttr& a : nodes_.At(n).attrs) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

void NodeStore::SetAttr(NodeId n, NameId name, std::string_view value) {
  Node& node = nodes_.Mut(n);
  for (NodeAttr& a : node.attrs) {
    if (a.name == name) {
      a.value = std::string(value);
      return;
    }
  }
  node.attrs.push_back(NodeAttr{name, std::string(value)});
}

}  // namespace mct
