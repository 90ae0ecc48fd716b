#include "xml/parser.h"

#include <cctype>
#include <vector>

#include "common/strings.h"
#include "xml/escape.h"

namespace mct::xml {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  Result<Document> ParseDocument() {
    SkipProlog();
    MCT_ASSIGN_OR_RETURN(auto root, ParseElement());
    SkipMisc();
    if (pos_ != in_.size()) {
      return Err("trailing content after document element");
    }
    Document doc;
    doc.root = std::move(root);
    return doc;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::ParseError(
        StrFormat("%s at offset %zu", what.c_str(), pos_));
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool Lookahead(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  void SkipProlog() {
    SkipWs();
    while (!AtEnd()) {
      if (Lookahead("<?")) {
        size_t end = in_.find("?>", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
      } else if (Lookahead("<!--")) {
        size_t end = in_.find("-->", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 3;
      } else if (Lookahead("<!DOCTYPE")) {
        size_t end = in_.find('>', pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 1;
      } else {
        break;
      }
      SkipWs();
    }
  }

  void SkipMisc() {
    SkipWs();
    while (!AtEnd() && (Lookahead("<?") || Lookahead("<!--"))) {
      if (Lookahead("<?")) {
        size_t end = in_.find("?>", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
      } else {
        size_t end = in_.find("-->", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 3;
      }
      SkipWs();
    }
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Err("expected a name");
    size_t start = pos_;
    ++pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(in_.substr(start, pos_ - start));
  }

  Result<std::unique_ptr<Element>> ParseElement() {
    if (AtEnd() || Peek() != '<') return Err("expected '<'");
    if (depth_ == kMaxDepth) {
      return Err(StrFormat("element nested deeper than %d levels", kMaxDepth));
    }
    ++depth_;
    ++pos_;
    MCT_ASSIGN_OR_RETURN(std::string name, ParseName());
    auto elem = std::make_unique<Element>(std::move(name));
    // Attributes.
    while (true) {
      SkipWs();
      if (AtEnd()) return Err("unterminated start tag");
      if (Peek() == '>' || Lookahead("/>")) break;
      MCT_ASSIGN_OR_RETURN(std::string aname, ParseName());
      SkipWs();
      if (AtEnd() || Peek() != '=') return Err("expected '=' in attribute");
      ++pos_;
      SkipWs();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Err("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t vstart = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Err("unterminated attribute value");
      MCT_ASSIGN_OR_RETURN(std::string avalue,
                           Unescape(in_.substr(vstart, pos_ - vstart)));
      ++pos_;  // closing quote
      if (elem->FindAttr(aname) != nullptr) {
        return Err("duplicate attribute '" + aname + "'");
      }
      elem->SetAttr(aname, avalue);
    }
    if (Lookahead("/>")) {
      pos_ += 2;
      --depth_;
      return elem;
    }
    ++pos_;  // '>'

    // Content.
    while (true) {
      if (AtEnd()) return Err("unterminated element <" + elem->name() + ">");
      if (Lookahead("</")) {
        pos_ += 2;
        MCT_ASSIGN_OR_RETURN(std::string close, ParseName());
        if (close != elem->name()) {
          return Err("mismatched close tag </" + close + "> for <" +
                     elem->name() + ">");
        }
        SkipWs();
        if (AtEnd() || Peek() != '>') return Err("expected '>' in close tag");
        ++pos_;
        --depth_;
        return elem;
      }
      if (Lookahead("<!--")) {
        size_t end = in_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) return Err("unterminated comment");
        auto node = std::make_unique<Element>("", NodeKind::kComment);
        node->set_text(std::string(in_.substr(pos_ + 4, end - pos_ - 4)));
        elem->AddChild(std::move(node));
        pos_ = end + 3;
        continue;
      }
      if (Lookahead("<![CDATA[")) {
        size_t end = in_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) return Err("unterminated CDATA");
        elem->AddText(std::string(in_.substr(pos_ + 9, end - pos_ - 9)));
        pos_ = end + 3;
        continue;
      }
      if (Lookahead("<?")) {
        size_t end = in_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) return Err("unterminated PI");
        std::string_view body = in_.substr(pos_ + 2, end - pos_ - 2);
        size_t sp = body.find(' ');
        auto node = std::make_unique<Element>(
            std::string(sp == std::string_view::npos ? body
                                                     : body.substr(0, sp)),
            NodeKind::kProcessingInstruction);
        node->set_text(std::string(
            sp == std::string_view::npos ? "" : body.substr(sp + 1)));
        elem->AddChild(std::move(node));
        pos_ = end + 2;
        continue;
      }
      if (Peek() == '<') {
        MCT_ASSIGN_OR_RETURN(auto child, ParseElement());
        elem->AddChild(std::move(child));
        continue;
      }
      // Character data up to the next markup.
      size_t end = in_.find('<', pos_);
      if (end == std::string_view::npos) {
        return Err("unterminated element <" + elem->name() + ">");
      }
      MCT_ASSIGN_OR_RETURN(std::string text,
                           Unescape(in_.substr(pos_, end - pos_)));
      // Whitespace-only runs between elements are formatting, not data.
      if (!StripWhitespace(text).empty()) {
        elem->AddText(std::move(text));
      }
      pos_ = end;
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
  int depth_ = 0;  // elements open around the cursor
};

}  // namespace

Result<Document> Parse(std::string_view input) {
  Parser p(input);
  return p.ParseDocument();
}

}  // namespace mct::xml
