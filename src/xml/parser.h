// Non-validating XML parser: elements, attributes, character data (with
// entity resolution), CDATA, comments, processing instructions, and an
// optional XML declaration / DOCTYPE line (skipped). Namespace declarations
// are kept as ordinary attributes, which is sufficient for the exchange
// format of Section 5 and for ingesting generated workloads.

#ifndef COLORFUL_XML_XML_PARSER_H_
#define COLORFUL_XML_XML_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xml/dom.h"

namespace mct::xml {

/// Deepest element nesting Parse accepts (the root is level 1). Parsing,
/// LoadXmlElement, ImportXml and the DOM's destructor each recurse once per
/// level, so a document nested without bound would overflow the stack;
/// real documents nest a few dozen levels at most.
inline constexpr int kMaxDepth = 1024;

/// Parses a whole document; ParseError (with offset info) on malformed input
/// and on elements nested deeper than kMaxDepth.
Result<Document> Parse(std::string_view input);

}  // namespace mct::xml

#endif  // COLORFUL_XML_XML_PARSER_H_
