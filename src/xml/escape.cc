#include "xml/escape.h"

#include <algorithm>
#include <cstdlib>

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
      long code;
      char* end = nullptr;
      std::string body(ent.substr(1));
      if (!body.empty() && (body[0] == 'x' || body[0] == 'X')) {
        code = std::strtol(body.c_str() + 1, &end, 16);
        if (end != body.c_str() + body.size()) {
          return Status::ParseError("malformed hex character reference: &" +
                                    std::string(ent) + ";");
        }
      } else {
        code = std::strtol(body.c_str(), &end, 10);
        if (end != body.c_str() + body.size() || body.empty()) {
          return Status::ParseError("malformed character reference: &" +
                                    std::string(ent) + ";");
        }
      }
      // Encode as UTF-8.
      if (code < 0 || code > 0x10FFFF) {
        return Status::ParseError("character reference out of range");
      }
      uint32_t cp = static_cast<uint32_t>(code);
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
