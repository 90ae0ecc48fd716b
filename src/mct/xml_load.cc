#include "mct/xml_load.h"

#include "common/strings.h"
#include "xml/parser.h"

namespace mct {

namespace {

// Loads `elem` as an element child of `parent`; `depth` counts `elem`'s
// level below the element LoadXmlElement was called on (that one is 1).
Result<NodeId> LoadElement(MctDatabase* db, ColorId color, NodeId parent,
                           const xml::Element& elem, int depth) {
  if (depth > xml::kMaxDepth) {
    return Status::InvalidArgument(
        StrFormat("element <%s> nested deeper than %d levels",
                  elem.name().c_str(), xml::kMaxDepth));
  }
  MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(color, parent, elem.name()));
  for (const xml::Attr& a : elem.attrs()) {
    MCT_RETURN_IF_ERROR(db->SetAttr(n, a.name, a.value));
  }
  std::string text;
  for (const auto& child : elem.children()) {
    switch (child->kind()) {
      case xml::NodeKind::kText:
        text += child->text();
        break;
      case xml::NodeKind::kElement:
        MCT_RETURN_IF_ERROR(
            LoadElement(db, color, n, *child, depth + 1).status());
        break;
      default:
        break;  // comments / PIs carry no queryable data here
    }
  }
  if (!text.empty()) MCT_RETURN_IF_ERROR(db->SetContent(n, text));
  return n;
}

}  // namespace

Result<NodeId> LoadXmlElement(MctDatabase* db, ColorId color, NodeId parent,
                              const xml::Element& elem) {
  if (elem.kind() != xml::NodeKind::kElement) {
    return Status::InvalidArgument("LoadXmlElement expects an element node");
  }
  MctDatabase::Loader loader(db);
  return LoadElement(db, color, parent, elem, 1);
}

Result<NodeId> LoadXmlText(MctDatabase* db, ColorId color,
                           std::string_view text) {
  MCT_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(text));
  return LoadXmlElement(db, color, db->document(), *doc.root);
}

}  // namespace mct
