// Pull tokenizer over one XML document held in memory: each Next() reads
// one token (start tag, end tag, text, comment, processing instruction)
// with its byte offset. It keeps the open element names on an explicit
// stack, so it takes any depth without recursing. It checks names, '=',
// quotes, entities, duplicate attributes, mismatched or unterminated
// markup, and content after the document element. The prolog (XML
// declaration, DOCTYPE, comments, processing instructions) and the
// comments and processing instructions after the document element are
// skipped, not returned.
//
// It is the one XML lexer: xml::Parse builds its DOM from these tokens,
// and serialize::ImportXml reads them straight into a database.

#ifndef COLORFUL_XML_XML_TOKENIZER_H_
#define COLORFUL_XML_XML_TOKENIZER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mct::xml {

enum class TokenKind : uint8_t {
  kStartElement,
  kEndElement,
  kText,
  kComment,
  kProcessingInstruction,
  /// The document element has closed and only whitespace, comments and
  /// processing instructions follow it.
  kEndOfDocument,
};

struct TokenAttr {
  std::string_view name;
  std::string_view value;  // entities resolved
};

/// One token. Its views stay valid until the next call to Next().
struct Token {
  TokenKind kind = TokenKind::kEndOfDocument;
  /// Byte offset of the token's first character: the '<' of a tag,
  /// comment, processing instruction or CDATA section, the "/>" that ends
  /// a self-closing element, the first character of a text run.
  size_t offset = 0;
  /// Element name (start and end) or processing-instruction target.
  std::string_view name;
  /// Text with entities resolved (text runs that are whitespace only are
  /// dropped; CDATA sections are returned verbatim, even when empty),
  /// comment body, or processing-instruction data.
  std::string_view text;
  /// A start element's attributes, in document order.
  std::span<const TokenAttr> attrs;
};

class Tokenizer {
 public:
  /// `in` must outlive the tokenizer: names and most values view it.
  explicit Tokenizer(std::string_view in) : in_(in) {}

  /// The next token. A self-closing element yields a start and an end. On
  /// malformed input, a ParseError naming the offset (an entity error
  /// names the entity instead); every later call returns it again.
  Result<Token> Next();

 private:
  Status Fail(std::string_view what);
  bool AtEnd() const { return pos_ >= in_.size(); }
  bool Lookahead(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  void SkipWs();
  // Moves past the next `terminator`, or to the end when there is none.
  void SkipPast(std::string_view terminator);
  void SkipProlog();
  void SkipMisc();
  Result<std::string_view> ReadName();
  Result<Token> ReadStartTag();
  Result<Token> ReadEndTag();

  std::string_view in_;
  size_t pos_ = 0;
  bool root_seen_ = false;
  // Offset of the "/>" whose end token the next call returns, or npos.
  size_t pending_end_ = std::string_view::npos;
  Status error_;
  std::vector<std::string_view> open_;  // names of the open elements
  std::vector<TokenAttr> attrs_;
  // Unescaped attribute values by attribute index, and unescaped text.
  std::vector<std::string> attr_scratch_;
  std::vector<size_t> unescaped_attrs_;
  std::string text_scratch_;
};

}  // namespace mct::xml

#endif  // COLORFUL_XML_XML_TOKENIZER_H_
