// Non-validating XML parser into the DOM of xml/dom.h: elements,
// attributes, character data (with entity resolution), CDATA, comments,
// processing instructions, and an optional XML declaration / DOCTYPE line
// (skipped). Namespace declarations are kept as ordinary attributes, which
// is sufficient for ingesting generated workloads and ordinary XML
// (LoadXmlText). It is a loop over xml::Tokenizer's tokens with an
// explicit stack; serialize::ImportXml reads the same tokens without a DOM.

#ifndef COLORFUL_XML_XML_PARSER_H_
#define COLORFUL_XML_XML_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xml/dom.h"

namespace mct::xml {

/// Deepest element nesting Parse accepts (the root is level 1). Parsing
/// itself does not recurse, but what walks the DOM it returns does, once
/// per level: the Element destructor, Element::StringValue and
/// SubtreeSize, and LoadXmlElement. A DOM nested without bound would
/// overflow the stack there, so Parse refuses one; real documents nest a
/// few dozen levels at most. ImportXml builds no DOM and has no cap.
inline constexpr int kMaxDepth = 1024;

/// Parses a whole document; ParseError (with offset info) on malformed input
/// and on elements nested deeper than kMaxDepth.
Result<Document> Parse(std::string_view input);

}  // namespace mct::xml

#endif  // COLORFUL_XML_XML_PARSER_H_
