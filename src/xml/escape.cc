#include "xml/escape.h"

#include <algorithm>
#include <charconv>
#include <system_error>

#include "common/strings.h"

namespace mct::xml {

namespace {

// Appends `s` to `out`, replacing each character that `replacement` maps to
// a non-null entity; runs between such characters are appended whole.
template <typename Replacement>
void AppendEscaped(std::string_view s, std::string* out,
                   Replacement replacement) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char* entity = replacement(s[i]);
    if (entity == nullptr) continue;
    out->append(s.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

const char* TextEntity(char c) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    case '>':
      return "&gt;";
    default:
      return nullptr;
  }
}

const char* AttrEntity(char c) {
  switch (c) {
    case '"':
      return "&quot;";
    case '\n':
      return "&#10;";
    default:
      return TextEntity(c);
  }
}

// XML 1.0's Char production: tab, LF, CR, and the code points from 0x20
// up to 0x10FFFF except the surrogates and U+FFFE/U+FFFF.
bool IsXmlChar(uint32_t cp) {
  if (cp < 0x20) return cp == 0x9 || cp == 0xA || cp == 0xD;
  if (cp >= 0xD800 && cp <= 0xDFFF) return false;
  if (cp == 0xFFFE || cp == 0xFFFF) return false;
  return cp <= 0x10FFFF;
}

}  // namespace

void EscapeText(std::string_view s, std::string* out) {
  AppendEscaped(s, out, [](char c) { return TextEntity(c); });
}

void EscapeAttr(std::string_view s, std::string* out) {
  AppendEscaped(s, out, [](char c) { return AttrEntity(c); });
}

Result<std::string> Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  MCT_RETURN_IF_ERROR(AppendUnescaped(s, &out));
  return out;
}

Status AppendUnescaped(std::string_view s, std::string* out) {
  size_t i = 0;
  while (i < s.size()) {
    const size_t amp = std::min(s.find('&', i), s.size());
    out->append(s.data() + i, amp - i);
    if (amp == s.size()) break;
    i = amp;
    size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      out->push_back('&');
    } else if (ent == "lt") {
      out->push_back('<');
    } else if (ent == "gt") {
      out->push_back('>');
    } else if (ent == "quot") {
      out->push_back('"');
    } else if (ent == "apos") {
      out->push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      // Digits only: from_chars takes no whitespace or '+', and a '-' fails
      // the unsigned parse.
      const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
      const std::string_view digits = ent.substr(hex ? 2 : 1);
      uint32_t cp = 0;
      const auto [end, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), cp, hex ? 16 : 10);
      if (ec == std::errc::invalid_argument ||
          end != digits.data() + digits.size()) {
        return Status::ParseError(
            std::string(hex ? "malformed hex character reference: &"
                            : "malformed character reference: &") +
            std::string(ent) + ";");
      }
      if (ec == std::errc::result_out_of_range || !IsXmlChar(cp)) {
        return Status::ParseError("character reference out of range");
      }
      // Encode as UTF-8.
      if (cp < 0x80) {
        out->push_back(static_cast<char>(cp));
      } else if (cp < 0x800) {
        out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else if (cp < 0x10000) {
        out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else {
        out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      }
    } else {
      return Status::ParseError("unknown entity: &" + std::string(ent) + ";");
    }
    i = semi + 1;
  }
  return Status::OK();
}

}  // namespace mct::xml
