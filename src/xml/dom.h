// A lightweight owning DOM, built by xml::Parse for LoadXmlText (ordinary
// XML into a single-color hierarchy) and by tests. The exchange format of
// Section 5 does not use it: ExportXml writes text directly and ImportXml
// reads xml::Tokenizer's tokens. The database's resident representation is
// mct::NodeStore, not this DOM.

#ifndef COLORFUL_XML_XML_DOM_H_
#define COLORFUL_XML_XML_DOM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mct::xml {

/// The seven node kinds of the XQuery 1.0 / XPath 2.0 data model the paper
/// builds on (Section 3.1).
enum class NodeKind : uint8_t {
  kDocument = 0,
  kElement = 1,
  kAttribute = 2,
  kText = 3,
  kNamespace = 4,
  kProcessingInstruction = 5,
  kComment = 6,
};

std::string_view NodeKindToString(NodeKind kind);

struct Attr {
  std::string name;
  std::string value;
};

/// Element node owning its attributes and children. Text, comment and PI
/// children are represented as Element with the corresponding kind and the
/// payload in `text`.
class Element {
 public:
  explicit Element(std::string name, NodeKind kind = NodeKind::kElement)
      : kind_(kind), name_(std::move(name)) {}

  NodeKind kind() const { return kind_; }
  const std::string& name() const { return name_; }

  /// Payload for text/comment/PI nodes.
  const std::string& text() const { return text_; }
  void set_text(std::string t) { text_ = std::move(t); }

  const std::vector<Attr>& attrs() const { return attrs_; }
  /// Attribute value or nullptr when absent.
  const std::string* FindAttr(std::string_view name) const;
  void SetAttr(std::string_view name, std::string_view value);

  const std::vector<std::unique_ptr<Element>>& children() const {
    return children_;
  }
  Element* AddChild(std::unique_ptr<Element> child) {
    children_.push_back(std::move(child));
    return children_.back().get();
  }
  /// Convenience: appends a new element child with `name` and returns it.
  Element* AddElement(std::string name);
  /// Convenience: appends a text node child.
  void AddText(std::string text);
  /// Convenience: appends <name>text</name>.
  Element* AddTextElement(std::string name, std::string text);

  /// Concatenated text of this node and element descendants
  /// (XPath string-value).
  std::string StringValue() const;

  /// First element child with `name`, or nullptr.
  const Element* FindChild(std::string_view name) const;

  /// Number of nodes (elements + text + ...) in this subtree, including
  /// this node.
  size_t SubtreeSize() const;

 private:
  NodeKind kind_;
  std::string name_;
  std::string text_;
  std::vector<Attr> attrs_;
  // Destruction, StringValue and SubtreeSize recurse through children_ once
  // per level; xml::Parse caps the depth of the trees it builds (kMaxDepth
  // in xml/parser.h) for them.
  std::vector<std::unique_ptr<Element>> children_;
};

/// An XML document: a single element root (prologue/PIs outside the root are
/// parsed and dropped; the paper's exchange format does not rely on them).
struct Document {
  std::unique_ptr<Element> root;
};

}  // namespace mct::xml

#endif  // COLORFUL_XML_XML_DOM_H_
