// MCT <-> XML exchange (Section 5): serializes an MCT database as a single
// plain-XML document that a receiver can reconstruct the database from.
//
// Encoding. The document is one <mct-database colors="c0 c1 ..."> element,
// the palette in color-id order. Every element is written exactly once,
// nested inside its parent in its *primary* color (per a
// SerializationScheme, normally produced by optSerialize; an instance
// lacking the chosen color falls back to the next ranked color, else to its
// first color, Section 5.3). The children nested under one parent come
// color by color, each color in its colored tree's local order. An
// element's own content is its first child, as text. Bookkeeping
// attributes, written before the user's, carry what nesting alone cannot:
//   mct.id="<id>"          the node's id (a decimal integer), when another
//                          element refers to it
//   mct.pc="<color>"       the primary color, when it differs from the
//                          enclosing element's (so always at top level);
//                          it plays the role of the paper's c+/c- shading
//                          with the same information and simpler decoding
//                          (see DESIGN.md)
//   mct.orphan="1"         the element sits in a cross-color nesting cycle,
//                          which Section 5.3 assumes away, so it is written
//                          at top level and its primary parent is a ref too
//   mct.ref.<color>="<id>" its parent in a non-primary color: the parent's
//                          mct.id, or "doc" for the document
//   mct.pos.<color>="<k>"  its rank among that parent's element children:
//                          with every ref, and in the primary color when the
//                          parent mixes nested children with referenced or
//                          orphaned ones there
// User attributes follow as-is. Attribute names starting with "mct." are
// reserved: ExportXml refuses an element that carries one.
//
// ExportXml reads the node store once in id order and walks each
// structural node's children once, with side tables sized by nodes plus
// structural nodes, and writes straight into the output text with explicit
// stacks (no DOM, no recursion), so its time is linear in the database and
// any depth is written.
//
// ImportXml reads the text through xml::Tokenizer, building no DOM: it
// keeps the open elements (node, primary color, text so far) on an
// explicit stack, so it takes any depth, and it creates the elements in
// document order. It keys export ids by their integer value and holds one
// element's mct.ref and mct.pos values in per-color slots. It collects
// every colored-tree edge (nested and referenced) in one flat vector that
// it stable-sorts once by (color, parent, rank), and attaches each color
// top-down from the document, all inside one MctDatabase::Loader, so each
// index posting list is built once however the edges arrive. Malformed
// text is a ParseError, as xml::Parse reports it, whatever else is wrong
// with the document.

#ifndef COLORFUL_XML_SERIALIZE_EXCHANGE_H_
#define COLORFUL_XML_SERIALIZE_EXCHANGE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "mct/database.h"
#include "serialize/opt_serialize.h"

namespace mct::serialize {

/// Overhead accounting of one serialization, in the units of the cost
/// model: 2 per non-primary parent pointer, 1 per color re-annotation.
struct ExportStats {
  uint64_t parent_pointers = 0;
  uint64_t color_annotations = 0;
  uint64_t elements = 0;
  uint64_t bytes = 0;

  double CostUnits() const {
    return 2.0 * static_cast<double>(parent_pointers) +
           static_cast<double>(color_annotations);
  }
};

/// Serializes the database as XML using `scheme`'s primary colors.
/// InvalidArgument, naming the node and the attribute, when an element
/// carries a user attribute whose name starts with "mct.".
Result<std::string> ExportXml(const MctDatabase* db,
                              const SerializationScheme& scheme,
                              ExportStats* stats = nullptr);

/// Reconstructs an MCT database from ExportXml output, at any depth.
/// ParseError for malformed XML; Corruption for well-formed text that is
/// not a valid exchange document.
Result<std::unique_ptr<MctDatabase>> ImportXml(const std::string& xml);

/// Deep structural equality of two MCT databases (same colors, isomorphic
/// colored trees, same tags/content/attributes), for round-trip tests.
bool DatabasesIsomorphic(const MctDatabase& a, const MctDatabase& b,
                         std::string* why = nullptr);

}  // namespace mct::serialize

#endif  // COLORFUL_XML_SERIALIZE_EXCHANGE_H_
