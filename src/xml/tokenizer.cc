#include "xml/tokenizer.h"

#include <array>

#include "common/strings.h"
#include "xml/escape.h"

namespace mct::xml {

namespace {

// Character classes of the "C" locale's isspace and isalpha / isalnum.
enum : uint8_t { kSpace = 1, kNameStart = 2, kNameChar = 4 };

constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSpace;
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    if (alpha || c == '_' || c == ':') t[c] |= kNameStart | kNameChar;
    if ((c >= '0' && c <= '9') || c == '-' || c == '.') t[c] |= kNameChar;
  }
  return t;
}();

bool Is(char c, uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

}  // namespace

Status Tokenizer::Fail(std::string_view what) {
  error_ = Status::ParseError(StrFormat("%.*s at offset %zu",
                                        static_cast<int>(what.size()),
                                        what.data(), pos_));
  return error_;
}

void Tokenizer::SkipWs() {
  while (!AtEnd() && Is(in_[pos_], kSpace)) ++pos_;
}

void Tokenizer::SkipPast(std::string_view terminator) {
  const size_t at = in_.find(terminator, pos_);
  pos_ = at == std::string_view::npos ? in_.size() : at + terminator.size();
}

// Everything before the document element: whitespace, the XML declaration
// and other processing instructions, comments and a DOCTYPE line. An
// unterminated one runs to the end of the input.
void Tokenizer::SkipProlog() {
  SkipWs();
  while (!AtEnd()) {
    if (Lookahead("<?")) {
      SkipPast("?>");
    } else if (Lookahead("<!--")) {
      SkipPast("-->");
    } else if (Lookahead("<!DOCTYPE")) {
      SkipPast(">");
    } else {
      break;
    }
    SkipWs();
  }
}

// Whitespace, processing instructions and comments after the document
// element.
void Tokenizer::SkipMisc() {
  SkipWs();
  while (!AtEnd() && (Lookahead("<?") || Lookahead("<!--"))) {
    SkipPast(Lookahead("<?") ? "?>" : "-->");
    SkipWs();
  }
}

Result<std::string_view> Tokenizer::ReadName() {
  if (AtEnd() || !Is(in_[pos_], kNameStart)) return Fail("expected a name");
  const size_t start = pos_++;
  while (!AtEnd() && Is(in_[pos_], kNameChar)) ++pos_;
  return in_.substr(start, pos_ - start);
}

// At a '<' that opens a start tag.
Result<Token> Tokenizer::ReadStartTag() {
  Token tok;
  tok.kind = TokenKind::kStartElement;
  tok.offset = pos_++;
  MCT_ASSIGN_OR_RETURN(tok.name, ReadName());
  attrs_.clear();
  unescaped_attrs_.clear();
  while (true) {
    SkipWs();
    if (AtEnd()) return Fail("unterminated start tag");
    if (in_[pos_] == '>' || Lookahead("/>")) break;
    MCT_ASSIGN_OR_RETURN(std::string_view name, ReadName());
    SkipWs();
    if (AtEnd() || in_[pos_] != '=') return Fail("expected '=' in attribute");
    ++pos_;
    SkipWs();
    if (AtEnd() || (in_[pos_] != '"' && in_[pos_] != '\'')) {
      return Fail("expected quoted attribute value");
    }
    const size_t vstart = ++pos_;
    const size_t vend = in_.find(in_[vstart - 1], vstart);
    if (vend == std::string_view::npos) {
      pos_ = in_.size();
      return Fail("unterminated attribute value");
    }
    const std::string_view value = in_.substr(vstart, vend - vstart);
    if (value.find('&') != std::string_view::npos) {
      // Resolved into this attribute's scratch string; the views are set
      // once the tag is read, as the scratch vector may still grow.
      if (attr_scratch_.size() <= attrs_.size()) {
        attr_scratch_.resize(attrs_.size() + 1);
      }
      std::string& buf = attr_scratch_[attrs_.size()];
      buf.clear();
      if (Status st = AppendUnescaped(value, &buf); !st.ok()) {
        error_ = std::move(st);
        return error_;
      }
      unescaped_attrs_.push_back(attrs_.size());
    }
    pos_ = vend + 1;
    for (const TokenAttr& a : attrs_) {
      if (a.name == name) {
        return Fail("duplicate attribute '" + std::string(name) + "'");
      }
    }
    attrs_.push_back(TokenAttr{name, value});
  }
  for (size_t i : unescaped_attrs_) attrs_[i].value = attr_scratch_[i];
  tok.attrs = attrs_;
  if (in_[pos_] == '/') {
    pending_end_ = pos_;
    pos_ += 2;
  } else {
    ++pos_;
  }
  open_.push_back(tok.name);
  return tok;
}

// At the "</" of an end tag.
Result<Token> Tokenizer::ReadEndTag() {
  Token tok;
  tok.kind = TokenKind::kEndElement;
  tok.offset = pos_;
  pos_ += 2;
  MCT_ASSIGN_OR_RETURN(tok.name, ReadName());
  if (tok.name != open_.back()) {
    return Fail("mismatched close tag </" + std::string(tok.name) + "> for <" +
                std::string(open_.back()) + ">");
  }
  SkipWs();
  if (AtEnd() || in_[pos_] != '>') return Fail("expected '>' in close tag");
  ++pos_;
  open_.pop_back();
  return tok;
}

Result<Token> Tokenizer::Next() {
  if (!error_.ok()) return error_;
  Token tok;
  if (pending_end_ != std::string_view::npos) {
    tok.kind = TokenKind::kEndElement;
    tok.offset = pending_end_;
    tok.name = open_.back();
    open_.pop_back();
    pending_end_ = std::string_view::npos;
    return tok;
  }
  if (open_.empty()) {
    if (!root_seen_) {
      SkipProlog();
      if (AtEnd() || in_[pos_] != '<') return Fail("expected '<'");
      root_seen_ = true;
      return ReadStartTag();
    }
    SkipMisc();
    if (!AtEnd()) return Fail("trailing content after document element");
    tok.offset = pos_;
    return tok;  // kEndOfDocument
  }
  while (true) {
    if (AtEnd()) {
      return Fail("unterminated element <" + std::string(open_.back()) + ">");
    }
    tok.offset = pos_;
    if (in_[pos_] != '<') {
      // Character data up to the next markup.
      const size_t end = in_.find('<', pos_);
      if (end == std::string_view::npos) {
        return Fail("unterminated element <" + std::string(open_.back()) +
                    ">");
      }
      tok.text = in_.substr(pos_, end - pos_);
      if (tok.text.find('&') != std::string_view::npos) {
        text_scratch_.clear();
        if (Status st = AppendUnescaped(tok.text, &text_scratch_); !st.ok()) {
          error_ = std::move(st);
          return error_;
        }
        tok.text = text_scratch_;
      }
      pos_ = end;
      // Whitespace-only runs between elements are formatting, not data.
      if (StripWhitespace(tok.text).empty()) continue;
      tok.kind = TokenKind::kText;
      return tok;
    }
    if (Lookahead("</")) return ReadEndTag();
    if (Lookahead("<!--")) {
      const size_t end = in_.find("-->", pos_ + 4);
      if (end == std::string_view::npos) return Fail("unterminated comment");
      tok.kind = TokenKind::kComment;
      tok.text = in_.substr(pos_ + 4, end - pos_ - 4);
      pos_ = end + 3;
      return tok;
    }
    if (Lookahead("<![CDATA[")) {
      const size_t end = in_.find("]]>", pos_ + 9);
      if (end == std::string_view::npos) return Fail("unterminated CDATA");
      tok.kind = TokenKind::kText;
      tok.text = in_.substr(pos_ + 9, end - pos_ - 9);
      pos_ = end + 3;
      return tok;
    }
    if (Lookahead("<?")) {
      const size_t end = in_.find("?>", pos_ + 2);
      if (end == std::string_view::npos) return Fail("unterminated PI");
      const std::string_view body = in_.substr(pos_ + 2, end - pos_ - 2);
      const size_t sp = body.find(' ');
      tok.kind = TokenKind::kProcessingInstruction;
      tok.name = body.substr(0, sp);
      tok.text = sp == std::string_view::npos ? std::string_view()
                                              : body.substr(sp + 1);
      pos_ = end + 2;
      return tok;
    }
    return ReadStartTag();
  }
}

}  // namespace mct::xml
