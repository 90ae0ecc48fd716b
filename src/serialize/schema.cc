#include "serialize/schema.h"

#include <cassert>
#include <tuple>

namespace mct::serialize {

ElementType* MctSchema::AddElement(const std::string& name) {
  auto [it, _] = elements_.try_emplace(name);
  it->second.name = name;
  return &it->second;
}

void MctSchema::AddChild(const std::string& color, const std::string& parent,
                         const std::string& child, char quant) {
  colors_.insert(color);
  ElementType* p = AddElement(parent);
  ElementType* c = AddElement(child);
  p->colors.insert(color);
  c->colors.insert(color);
  Production& prod = p->productions[color];
  for (const ProductionChild& pc : prod.children) {
    if (pc.elem == child) return;  // already declared
  }
  prod.children.push_back(ProductionChild{child, quant});
}

const ElementType* MctSchema::Find(const std::string& name) const {
  auto it = elements_.find(name);
  return it == elements_.end() ? nullptr : &it->second;
}

std::vector<const ElementType*> MctSchema::MultiColoredTypes() const {
  std::vector<const ElementType*> out;
  for (const auto& [_, e] : elements_) {
    if (e.colors.size() > 1) out.push_back(&e);
  }
  return out;
}

MctSchema InferSchema(const MctDatabase& db) {
  MctSchema schema;
  const NamePool& names = db.store().names();
  // (type, color) -> element members.
  std::map<std::pair<NameId, ColorId>, uint64_t> members;
  db.ForEachElementCount([&](ColorId c, NameId tag, uint64_t n) {
    schema.AddElement(names.Name(tag))->colors.insert(db.ColorName(c));
    members[{tag, c}] = n;
  });
  // (parent type, child type, color) -> quant(child, color) under that
  // parent type: child edges per parent instance. Visited in name order,
  // so each production lists its children sorted by name, and a child type
  // under several parent types in one color keeps the average under the
  // parent type whose name sorts last.
  std::map<std::tuple<std::string, std::string, std::string>, double> quants;
  db.ForEachChildEdgeCount(
      [&](ColorId c, NameId parent, NameId child, uint64_t n) {
        const uint64_t parents = members[{parent, c}];
        assert(parents > 0);
        quants[{names.Name(parent), names.Name(child), db.ColorName(c)}] =
            static_cast<double>(n) / static_cast<double>(parents);
      });
  for (const auto& [key, quant] : quants) {
    const auto& [ptag, ctag, color] = key;
    schema.AddChild(color, ptag, ctag);
    schema.SetQuant(ctag, color, quant);
  }
  return schema;
}

MctSchema MovieSchemaOfFigure8() {
  MctSchema s;
  // Red: movie-genre hierarchy down to movies and roles.
  s.AddChild("red", "movie-genre", "movie-genre", '*');
  s.AddChild("red", "movie-genre", "name", '1');
  s.AddChild("red", "movie-genre", "movie", '*');
  s.AddChild("red", "movie", "name", '1');
  s.AddChild("red", "movie", "movie-role", '*');
  s.AddChild("red", "movie-role", "name", '1');
  s.AddChild("red", "movie-role", "description", '?');
  s.AddChild("red", "movie-role", "scene", '*');
  // Green: movie-award hierarchy.
  s.AddChild("green", "movie-award", "movie-award", '*');
  s.AddChild("green", "movie-award", "name", '1');
  s.AddChild("green", "movie-award", "movie", '*');
  s.AddChild("green", "movie", "name", '1');
  s.AddChild("green", "movie", "votes", '?');
  s.AddChild("green", "movie", "category", '?');
  // Blue: actors.
  s.AddChild("blue", "actor", "name", '1');
  s.AddChild("blue", "actor", "movie-role", '*');
  s.AddChild("blue", "movie-role", "name", '1');
  s.AddChild("blue", "movie-role", "payment", '?');

  // Statistics in the spirit of Section 5.2's example: each movie-role has
  // one name and description but 3 scenes on average; a movie has 10 roles.
  s.SetQuant("name", "red", 1);
  s.SetQuant("name", "green", 1);
  s.SetQuant("name", "blue", 1);
  s.SetQuant("description", "red", 1);
  s.SetQuant("scene", "red", 3);
  s.SetQuant("movie-role", "red", 10);
  s.SetQuant("movie-role", "blue", 5);
  s.SetQuant("movie", "red", 20);
  s.SetQuant("movie", "green", 5);
  s.SetQuant("movie-genre", "red", 3);
  s.SetQuant("movie-award", "green", 4);
  s.SetQuant("votes", "green", 1);
  s.SetQuant("category", "green", 1);
  s.SetQuant("payment", "blue", 1);
  return s;
}

}  // namespace mct::serialize
