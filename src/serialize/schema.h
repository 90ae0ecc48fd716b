// MCT schemas (Section 5): per color, a grammar of element productions,
// plus the statistical summary quant(e, c) — the average number of children
// of type e per parent, in the hierarchy of color c — that the optimal
// serialization algorithm consumes.
//
// A schema can be authored programmatically (the paper's Figure 8 movie
// schema) or inferred from a live MctDatabase (used by the workload
// benchmarks).

#ifndef COLORFUL_XML_SERIALIZE_SCHEMA_H_
#define COLORFUL_XML_SERIALIZE_SCHEMA_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "mct/database.h"

namespace mct::serialize {

/// Quantifier of a child slot in a production ('1', '?', '+', '*').
struct ProductionChild {
  std::string elem;
  char quant = '*';
};

struct Production {
  std::vector<ProductionChild> children;
};

/// One element type: its real colors and, per real color, its production.
struct ElementType {
  std::string name;
  std::set<std::string> colors;                 // real colors (Section 5.1)
  std::map<std::string, Production> productions;  // by color
};

class MctSchema {
 public:
  /// Declares (or finds) an element type.
  ElementType* AddElement(const std::string& name);

  /// Declares that `parent` produces `child` (quant) in `color`. Both types
  /// gain the color as a real color.
  void AddChild(const std::string& color, const std::string& parent,
                const std::string& child, char quant = '*');

  /// Sets quant(child, color): average children of type `child` per parent
  /// in the `color` hierarchy.
  void SetQuant(const std::string& child, const std::string& color,
                double avg) {
    quant_[{child, color}] = avg;
  }
  /// quant(child, color); defaults to 1 when never set.
  double Quant(const std::string& child, const std::string& color) const {
    auto it = quant_.find({child, color});
    return it == quant_.end() ? 1.0 : it->second;
  }

  const ElementType* Find(const std::string& name) const;
  const std::map<std::string, ElementType>& elements() const {
    return elements_;
  }
  const std::set<std::string>& colors() const { return colors_; }

  /// Element types with more than one real color, in a deterministic
  /// top-down-friendly order (by name).
  std::vector<const ElementType*> MultiColoredTypes() const;

 private:
  std::map<std::string, ElementType> elements_;
  std::set<std::string> colors_;
  std::map<std::pair<std::string, std::string>, double> quant_;
};

/// Infers a schema (types, per-color productions, quant statistics) from a
/// live database: one element type per tag. A projection of the database's
/// maintained type counts, O(types); production children are sorted by
/// name.
MctSchema InferSchema(const MctDatabase& db);

/// The paper's Figure 8 movie schema (with the Section 5.1 extensions:
/// green category under movie; blue payment and red description/scene
/// under movie-role).
MctSchema MovieSchemaOfFigure8();

}  // namespace mct::serialize

#endif  // COLORFUL_XML_SERIALIZE_SCHEMA_H_
