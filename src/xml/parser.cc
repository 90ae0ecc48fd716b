#include "xml/parser.h"

#include <vector>

#include "common/strings.h"
#include "xml/tokenizer.h"

namespace mct::xml {

Result<Document> Parse(std::string_view input) {
  Tokenizer tokenizer(input);
  Document doc;
  std::vector<Element*> open;  // the element each open tag built
  while (true) {
    MCT_ASSIGN_OR_RETURN(Token tok, tokenizer.Next());
    switch (tok.kind) {
      case TokenKind::kStartElement: {
        if (open.size() == static_cast<size_t>(kMaxDepth)) {
          return Status::ParseError(
              StrFormat("element nested deeper than %d levels at offset %zu",
                        kMaxDepth, tok.offset));
        }
        auto elem = std::make_unique<Element>(std::string(tok.name));
        for (const TokenAttr& a : tok.attrs) elem->SetAttr(a.name, a.value);
        Element* e = elem.get();
        if (open.empty()) {
          doc.root = std::move(elem);
        } else {
          open.back()->AddChild(std::move(elem));
        }
        open.push_back(e);
        break;
      }
      case TokenKind::kEndElement:
        open.pop_back();
        break;
      case TokenKind::kText:
        open.back()->AddText(std::string(tok.text));
        break;
      case TokenKind::kComment: {
        auto node = std::make_unique<Element>("", NodeKind::kComment);
        node->set_text(std::string(tok.text));
        open.back()->AddChild(std::move(node));
        break;
      }
      case TokenKind::kProcessingInstruction: {
        auto node = std::make_unique<Element>(
            std::string(tok.name), NodeKind::kProcessingInstruction);
        node->set_text(std::string(tok.text));
        open.back()->AddChild(std::move(node));
        break;
      }
      case TokenKind::kEndOfDocument:
        return doc;
    }
  }
}

}  // namespace mct::xml
