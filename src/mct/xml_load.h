// Ingesting ordinary XML into an MctDatabase: a parsed document becomes a
// single-color hierarchy (a conventional XML database is exactly the
// single-color special case of MCT). Additional hierarchies can then be
// layered over the loaded nodes with next-color constructors.

#ifndef COLORFUL_XML_MCT_XML_LOAD_H_
#define COLORFUL_XML_MCT_XML_LOAD_H_

#include <string_view>

#include "common/result.h"
#include "mct/database.h"
#include "xml/dom.h"

namespace mct {

/// Loads `elem`'s subtree into `db` under `parent` in `color`; returns the
/// node created for `elem`. Text children become the element's content
/// (concatenated); comments and processing instructions are dropped (the
/// engine stores element structure and content, Section 6.2). The load
/// runs in one MctDatabase::Loader, so each posting list is built once.
/// Recurses once per level, and refuses (InvalidArgument) a subtree deeper
/// than xml::kMaxDepth, the depth xml::Parse accepts; the elements loaded
/// before the refusal stay, indexed.
Result<NodeId> LoadXmlElement(MctDatabase* db, ColorId color, NodeId parent,
                              const xml::Element& elem);

/// Parses `text` and loads the document under db->document() in `color`.
/// Returns the root element's node; a ParseError for malformed text or for
/// text nested deeper than xml::kMaxDepth.
Result<NodeId> LoadXmlText(MctDatabase* db, ColorId color,
                           std::string_view text);

}  // namespace mct

#endif  // COLORFUL_XML_MCT_XML_LOAD_H_
