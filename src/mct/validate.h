// Integrity validation: checks every invariant Definition 3.1/3.2 imposes
// on a live MctDatabase, plus the physical-layer invariants (color bitmask
// vs. tree membership, index/store agreement, interval-label consistency).
// Used by tests after mutation sequences and available to applications as a
// consistency check (fsck for MCT databases).

#ifndef COLORFUL_XML_MCT_VALIDATE_H_
#define COLORFUL_XML_MCT_VALIDATE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "mct/database.h"

namespace mct {

struct ValidationReport {
  /// Human-readable invariant violations; empty means consistent.
  std::vector<std::string> violations;
  uint64_t nodes_checked = 0;
  uint64_t edges_checked = 0;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

/// Validates the database. Invariants checked:
///  1. every colored tree is a rooted tree at the shared document node:
///     acyclic parent chains, consistent parent/first-child/sibling links;
///  2. node color bitmask == the set of trees containing the node
///     (Definition 3.2), and the document carries every color;
///  3. interval labels nest strictly (child inside parent, siblings
///     disjoint and ordered);
///  4. the tag index returns exactly the elements of each (color, tag);
///  5. content and attribute index probes find every stored value;
///  6. dead nodes are members of no tree;
///  7. each index image holds exactly the entries the store implies (no
///     stale entry for a value a node no longer has).
ValidationReport ValidateDatabase(MctDatabase& db);

}  // namespace mct

#endif  // COLORFUL_XML_MCT_VALIDATE_H_
