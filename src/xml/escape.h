// XML character escaping / entity resolution.

#ifndef COLORFUL_XML_XML_ESCAPE_H_
#define COLORFUL_XML_XML_ESCAPE_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace mct::xml {

/// Appends `s` to `out` escaped as text content: & < >.
void EscapeText(std::string_view s, std::string* out);

/// Appends `s` to `out` escaped as an attribute value (also " and
/// newline-safe).
void EscapeAttr(std::string_view s, std::string* out);

/// Resolves the five predefined entities and decimal/hex character
/// references. ParseError on an unknown or malformed entity.
Result<std::string> Unescape(std::string_view s);

/// Unescape, appending to `out`; on error `out` holds a prefix.
Status AppendUnescaped(std::string_view s, std::string* out);

}  // namespace mct::xml

#endif  // COLORFUL_XML_XML_ESCAPE_H_
