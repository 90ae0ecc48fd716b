// Test oracle for serialize::InferSchema: the original pre-order walk over
// every colored tree, kept only here. The library projects the schema from
// the type counts MctDatabase maintains on each mutation; the differential
// tests assert the projection equals this walk — element types, real
// colors, schema colors, production child sets and quant(e, c) for every
// (type, color). Only the order of production children may differ (the
// projection sorts them by name), so children are compared as sets.

#ifndef COLORFUL_XML_TESTS_SCHEMA_ORACLE_H_
#define COLORFUL_XML_TESTS_SCHEMA_ORACLE_H_

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "mct/database.h"
#include "serialize/schema.h"

namespace mct::testfix {

/// The walk InferSchema used to run: visits every node of every colored
/// tree; quant(child, color) keeps the average under the parent type whose
/// name sorts last.
inline serialize::MctSchema WalkInferSchema(const MctDatabase& db) {
  serialize::MctSchema schema;
  std::map<std::tuple<std::string, std::string, std::string>, uint64_t> accs;
  std::map<std::pair<std::string, std::string>, uint64_t> parent_instances;
  for (ColorId c = 0; c < db.num_colors(); ++c) {
    const std::string& color = db.ColorName(c);
    const ColoredTree* t = db.tree(c);
    for (NodeId n : t->PreOrder()) {
      if (db.Kind(n) != xml::NodeKind::kElement) continue;
      const std::string& ptag = db.Tag(n);
      parent_instances[{ptag, color}]++;
      schema.AddElement(ptag)->colors.insert(color);
      for (NodeId ch : t->Children(n)) {
        if (db.Kind(ch) != xml::NodeKind::kElement) continue;
        schema.AddChild(color, ptag, db.Tag(ch));
        accs[{ptag, db.Tag(ch), color}]++;
      }
    }
  }
  for (const auto& [key, count] : accs) {
    const auto& [ptag, ctag, color] = key;
    uint64_t parents = parent_instances[{ptag, color}];
    if (parents > 0) {
      schema.SetQuant(ctag, color,
                      static_cast<double>(count) /
                          static_cast<double>(parents));
    }
  }
  return schema;
}

/// Equal up to the order of production children; quant compared exactly
/// for every type under every color either schema or `db` names.
inline testing::AssertionResult SameSchema(const serialize::MctSchema& got,
                                           const serialize::MctSchema& want,
                                           const MctDatabase& db) {
  if (got.colors() != want.colors()) {
    return testing::AssertionFailure() << "schema colors differ";
  }
  if (got.elements().size() != want.elements().size()) {
    return testing::AssertionFailure()
           << "element types: " << got.elements().size() << " vs "
           << want.elements().size();
  }
  std::set<std::string> colors = want.colors();
  for (ColorId c = 0; c < db.num_colors(); ++c) colors.insert(db.ColorName(c));
  for (const auto& [name, w] : want.elements()) {
    const serialize::ElementType* g = got.Find(name);
    if (g == nullptr) {
      return testing::AssertionFailure() << "missing type " << name;
    }
    colors.insert(w.colors.begin(), w.colors.end());
    if (g->colors != w.colors) {
      return testing::AssertionFailure() << "real colors of " << name;
    }
    if (g->productions.size() != w.productions.size()) {
      return testing::AssertionFailure() << "production colors of " << name;
    }
    for (const auto& [color, wp] : w.productions) {
      auto it = g->productions.find(color);
      if (it == g->productions.end()) {
        return testing::AssertionFailure()
               << "no " << color << " production for " << name;
      }
      std::set<std::pair<std::string, char>> gs, ws;
      for (const auto& pc : it->second.children) gs.insert({pc.elem, pc.quant});
      for (const auto& pc : wp.children) ws.insert({pc.elem, pc.quant});
      if (gs != ws || it->second.children.size() != wp.children.size()) {
        return testing::AssertionFailure()
               << "children of " << name << " in " << color;
      }
    }
  }
  for (const auto& [name, _] : want.elements()) {
    for (const std::string& color : colors) {
      if (got.Quant(name, color) != want.Quant(name, color)) {
        return testing::AssertionFailure()
               << "quant(" << name << ", " << color
               << "): " << got.Quant(name, color) << " vs "
               << want.Quant(name, color);
      }
    }
  }
  return testing::AssertionSuccess();
}

/// InferSchema(db) against the walk over the same database.
inline testing::AssertionResult ProjectionMatchesWalk(const MctDatabase& db) {
  return SameSchema(serialize::InferSchema(db), WalkInferSchema(db), db);
}

}  // namespace mct::testfix

#endif  // COLORFUL_XML_TESTS_SCHEMA_ORACLE_H_
