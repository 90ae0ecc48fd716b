#include "serialize/exchange.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace mct::serialize {

namespace {

constexpr char kWrapperTag[] = "mct-database";

// Chooses the primary color of node `n`: the best-ranked color of its type
// that the instance actually has (the Section 5.3 fallback), else its first
// color.
ColorId PrimaryColorOf(const MctDatabase& db, const SerializationScheme& scheme,
                       NodeId n) {
  ColorSet colors = db.Colors(n);
  auto it = scheme.primary.find(db.Tag(n));
  if (it != scheme.primary.end()) {
    for (const std::string& cname : it->second) {
      ColorId c = db.LookupColor(cname);
      if (c != kInvalidColorId && colors.Has(c)) return c;
    }
  }
  auto v = colors.ToVector();
  return v.empty() ? kInvalidColorId : v.front();
}

}  // namespace

Result<std::string> ExportXml(MctDatabase* db,
                              const SerializationScheme& scheme,
                              ExportStats* stats) {
  ExportStats local;
  ExportStats* st = stats != nullptr ? stats : &local;
  *st = ExportStats();

  const NodeId doc = db->document();
  const size_t ncolors = db->num_colors();

  // Pass 1: primary colors and referenced parents.
  std::unordered_map<NodeId, ColorId> primary;
  std::unordered_set<NodeId> needs_id;
  std::vector<NodeId> all_nodes;
  for (ColorId c = 0; c < ncolors; ++c) {
    for (NodeId n : db->tree(c)->PreOrder()) {
      if (n == doc || db->Kind(n) != xml::NodeKind::kElement) continue;
      if (primary.contains(n)) continue;
      primary[n] = PrimaryColorOf(*db, scheme, n);
      all_nodes.push_back(n);
    }
  }
  for (NodeId n : all_nodes) {
    db->Colors(n).ForEach([&](ColorId c) {
      if (c == primary[n]) return;
      NodeId p = db->tree(c)->Parent(n);
      if (p != kInvalidNodeId && p != doc) needs_id.insert(p);
    });
  }


  // Pass 2: build the DOM.
  std::unordered_map<NodeId, xml::Element*> emitted;
  auto wrapper = std::make_unique<xml::Element>(kWrapperTag);
  {
    std::vector<std::string> cnames;
    for (ColorId c = 0; c < ncolors; ++c) cnames.push_back(db->ColorName(c));
    wrapper->SetAttr("colors", Join(cnames, " "));
  }

  // Emit nodes so that each node's XML parent (its parent in its primary
  // color) is emitted first. Primary-color nesting across colors is not
  // guaranteed acyclic (the paper assumes multi-colored elements are not
  // involved in schema cycles, Section 5.3); nodes caught in a cross-color
  // nesting cycle are emitted at top level as *orphans*, carrying parent
  // pointers for every color including the primary one.
  std::vector<NodeId> order;
  std::unordered_set<NodeId> orphans;
  {
    // Nesting forest: each node hangs under its primary-color parent, and
    // the children of a parent are ordered color by color in each colored
    // tree's local order (so nested siblings decode back in tree order).
    auto nested_children = [&](NodeId parent) {
      std::vector<NodeId> out;
      db->Colors(parent).ForEach([&](ColorId c) {
        for (NodeId k : db->tree(c)->Children(parent)) {
          if (db->Kind(k) == xml::NodeKind::kElement && primary[k] == c) {
            out.push_back(k);
          }
        }
      });
      return out;
    };
    order.reserve(all_nodes.size());
    std::unordered_set<NodeId> visited;
    auto dfs = [&](NodeId from) {
      std::vector<NodeId> stack{from};
      while (!stack.empty()) {
        NodeId n = stack.back();
        stack.pop_back();
        if (n != doc) order.push_back(n);
        auto kids = nested_children(n);
        for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
          if (visited.insert(*it).second) stack.push_back(*it);
        }
      }
    };
    visited.insert(doc);
    dfs(doc);
    // Nodes not reached sit in (or under) a cross-color nesting cycle —
    // the case the paper's Section 5.3 assumption excludes. Break each
    // cycle by orphaning its first node (emitted at top level with parent
    // pointers for every color) and nest the rest below it.
    for (NodeId n : all_nodes) {
      if (visited.insert(n).second) {
        orphans.insert(n);
        NodeId p = db->tree(primary[n])->Parent(n);
        if (p != doc) needs_id.insert(p);
        dfs(n);
      }
    }
  }
  for (NodeId n : order) {
    ColorId pc = primary[n];
    bool orphan = orphans.contains(n);
    NodeId parent = orphan ? doc : db->tree(pc)->Parent(n);
    xml::Element* parent_elem;
    ColorId parent_pc = kInvalidColorId;
    if (parent == doc) {
      parent_elem = wrapper.get();
    } else {
      parent_elem = emitted.at(parent);
      parent_pc = primary[parent];
    }
    auto elem = std::make_unique<xml::Element>(db->Tag(n));
    // Bookkeeping first, user attributes after.
    if (needs_id.contains(n)) {
      elem->SetAttr("mct.id", std::to_string(n));
    }
    if (pc != parent_pc) {
      elem->SetAttr("mct.pc", db->ColorName(pc));
      if (parent != doc) ++st->color_annotations;
    }
    if (orphan) elem->SetAttr("mct.orphan", "1");
    // Parent pointers: every non-primary color; for orphans the primary
    // color too (their nesting under the wrapper carries no edge).
    db->Colors(n).ForEach([&](ColorId c) {
      if (c == pc && !orphan) return;
      NodeId p = db->tree(c)->Parent(n);
      if (p == kInvalidNodeId) return;
      const std::string& cname = db->ColorName(c);
      elem->SetAttr("mct.ref." + cname,
                    p == doc ? "doc" : std::to_string(p));
      // Position among all element children of p in color c.
      int pos = 0;
      for (NodeId sib : db->tree(c)->Children(p)) {
        if (sib == n) break;
        if (db->Kind(sib) == xml::NodeKind::kElement) ++pos;
      }
      elem->SetAttr("mct.pos." + cname, std::to_string(pos));
      ++st->parent_pointers;
    });
    // Explicit position in the primary color when the parent (the document
    // included) mixes nested and referenced children there (order would
    // otherwise be ambiguous).
    if (!orphan) {
      bool mixed = false;
      for (NodeId sib : db->tree(pc)->Children(parent)) {
        if (db->Kind(sib) == xml::NodeKind::kElement &&
            (primary[sib] != pc || orphans.contains(sib))) {
          mixed = true;
          break;
        }
      }
      if (mixed) {
        int pos = 0;
        for (NodeId sib : db->tree(pc)->Children(parent)) {
          if (sib == n) break;
          if (db->Kind(sib) == xml::NodeKind::kElement) ++pos;
        }
        elem->SetAttr("mct.pos." + db->ColorName(pc), std::to_string(pos));
      }
    }
    for (const NodeAttr& a : db->Attrs(n)) {
      elem->SetAttr(db->store().names().Name(a.name), a.value);
    }
    if (db->store().HasContent(n)) {
      elem->AddText(db->Content(n));
    }
    emitted[n] = parent_elem->AddChild(std::move(elem));
    ++st->elements;
  }

  std::string xml = xml::Write(*wrapper);
  st->bytes = xml.size();
  return xml;
}

namespace {

struct PendingEdge {
  NodeId child;
  int pos;       // explicit position or XML sequence fallback
  int xml_seq;   // tie-breaker preserving document order
};

struct ImportState {
  std::unique_ptr<MctDatabase> db;
  std::unordered_map<std::string, NodeId> by_export_id;
  // (parent, color) -> edges.
  std::map<std::pair<NodeId, ColorId>, std::vector<PendingEdge>> edges;
};

}  // namespace

Result<std::unique_ptr<MctDatabase>> ImportXml(const std::string& xml) {
  MCT_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(xml));
  if (doc.root->name() != kWrapperTag) {
    return Status::Corruption("not an MCT exchange document (missing <" +
                              std::string(kWrapperTag) + ">)");
  }
  ImportState state;
  state.db = std::make_unique<MctDatabase>();
  const std::string* colors = doc.root->FindAttr("colors");
  if (colors == nullptr) {
    return Status::Corruption("wrapper lacks the colors attribute");
  }
  for (const std::string& cname : SplitWhitespace(*colors)) {
    MCT_RETURN_IF_ERROR(state.db->RegisterColor(cname).status());
  }

  // Pass 1: create nodes, record nested edges; non-primary refs need the
  // id map completed first, so collect them textually.
  struct RawRef {
    NodeId child;
    ColorId color;
    std::string parent_id;
    int pos;
  };
  std::vector<RawRef> raw_refs;
  // Recursive import of elements and nested edges; non-primary refs are
  // collected textually and resolved once the id map is complete. The
  // recursion is as deep as the document, which xml::Parse caps at
  // xml::kMaxDepth.
  std::function<Result<NodeId>(const xml::Element&, NodeId, ColorId)> imp =
      [&](const xml::Element& e, NodeId xml_parent,
          ColorId parent_pc) -> Result<NodeId> {
    MctDatabase* db = state.db.get();
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateFreeElement(e.name()));
    std::string pc_name;
    std::map<std::string, std::string> refs;
    std::map<std::string, int> poss;
    bool orphan = false;
    for (const xml::Attr& a : e.attrs()) {
      if (a.name == "mct.id") {
        state.by_export_id[a.value] = n;
      } else if (a.name == "mct.pc") {
        pc_name = a.value;
      } else if (a.name == "mct.orphan") {
        orphan = true;
      } else if (StartsWith(a.name, "mct.ref.")) {
        refs[a.name.substr(8)] = a.value;
      } else if (StartsWith(a.name, "mct.pos.")) {
        poss[a.name.substr(8)] =
            static_cast<int>(ParseInt(a.value).value_or(0));
      } else {
        MCT_RETURN_IF_ERROR(db->SetAttr(n, a.name, a.value));
      }
    }
    ColorId pc = parent_pc;
    if (!pc_name.empty()) {
      pc = db->LookupColor(pc_name);
      if (pc == kInvalidColorId) {
        return Status::Corruption("unknown primary color '" + pc_name + "'");
      }
    }
    if (pc == kInvalidColorId) {
      return Status::Corruption("element <" + e.name() +
                                "> has no derivable primary color");
    }
    if (!orphan) {
      int explicit_pos = -1;
      auto pit = poss.find(state.db->ColorName(pc));
      if (pit != poss.end()) explicit_pos = pit->second;
      auto& vec = state.edges[{xml_parent, pc}];
      vec.push_back(
          PendingEdge{n, explicit_pos, static_cast<int>(vec.size())});
    }
    for (const auto& [cname, pid] : refs) {
      ColorId c = state.db->LookupColor(cname);
      if (c == kInvalidColorId) {
        return Status::Corruption("unknown ref color '" + cname + "'");
      }
      int pos = 0;
      auto pit = poss.find(cname);
      if (pit != poss.end()) pos = pit->second;
      raw_refs.push_back(RawRef{n, c, pid, pos});
    }
    std::string text;
    for (const auto& child : e.children()) {
      if (child->kind() == xml::NodeKind::kText) {
        text += child->text();
      } else if (child->kind() == xml::NodeKind::kElement) {
        MCT_RETURN_IF_ERROR(imp(*child, n, pc).status());
      }
    }
    if (!text.empty()) MCT_RETURN_IF_ERROR(db->SetContent(n, text));
    return n;
  };

  for (const auto& child : doc.root->children()) {
    if (child->kind() != xml::NodeKind::kElement) continue;
    MCT_RETURN_IF_ERROR(
        imp(*child, state.db->document(), kInvalidColorId).status());
  }

  // Resolve raw refs into edges.
  for (const RawRef& r : raw_refs) {
    NodeId parent;
    if (r.parent_id == "doc") {
      parent = state.db->document();
    } else {
      auto it = state.by_export_id.find(r.parent_id);
      if (it == state.by_export_id.end()) {
        return Status::Corruption("dangling mct.ref to id " + r.parent_id);
      }
      parent = it->second;
    }
    auto& vec = state.edges[{parent, r.color}];
    vec.push_back(PendingEdge{r.child, r.pos, 1 << 20});
  }

  // Order children within each (parent, color): explicit positions win,
  // XML sequence breaks ties / fills in.
  for (auto& [key, vec] : state.edges) {
    std::stable_sort(vec.begin(), vec.end(),
                     [](const PendingEdge& a, const PendingEdge& b) {
                       int ka = a.pos >= 0 ? a.pos : a.xml_seq;
                       int kb = b.pos >= 0 ? b.pos : b.xml_seq;
                       return ka < kb;
                     });
  }

  // Attach per color, top-down from the document.
  for (ColorId c = 0; c < state.db->num_colors(); ++c) {
    std::vector<NodeId> frontier{state.db->document()};
    while (!frontier.empty()) {
      NodeId parent = frontier.back();
      frontier.pop_back();
      auto it = state.edges.find({parent, c});
      if (it == state.edges.end()) continue;
      for (const PendingEdge& e : it->second) {
        MCT_RETURN_IF_ERROR(state.db->AddNodeColor(e.child, c, parent));
        frontier.push_back(e.child);
      }
    }
  }
  return std::move(state.db);
}

bool DatabasesIsomorphic(const MctDatabase& a, const MctDatabase& b,
                         std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (a.num_colors() != b.num_colors()) return fail("color count differs");
  for (ColorId c = 0; c < a.num_colors(); ++c) {
    if (a.ColorName(c) != b.ColorName(c)) return fail("color names differ");
  }
  std::unordered_map<NodeId, NodeId> map_ab;
  map_ab[a.document()] = b.document();
  // Parallel DFS per color builds and checks the identity correspondence.
  for (ColorId c = 0; c < a.num_colors(); ++c) {
    std::vector<std::pair<NodeId, NodeId>> stack{{a.document(), b.document()}};
    while (!stack.empty()) {
      auto [na, nb] = stack.back();
      stack.pop_back();
      auto ka = a.tree(c)->Children(na);
      auto kb = b.tree(c)->Children(nb);
      if (ka.size() != kb.size()) {
        return fail(StrFormat("child counts differ under color %s",
                              a.ColorName(c).c_str()));
      }
      for (size_t i = 0; i < ka.size(); ++i) {
        auto it = map_ab.find(ka[i]);
        if (it == map_ab.end()) {
          map_ab[ka[i]] = kb[i];
        } else if (it->second != kb[i]) {
          return fail("node identity mapping inconsistent across colors");
        }
        stack.push_back({ka[i], kb[i]});
      }
    }
  }
  for (const auto& [na, nb] : map_ab) {
    if (a.Tag(na) != b.Tag(nb)) return fail("tag mismatch");
    if (a.Content(na) != b.Content(nb)) return fail("content mismatch");
    if (a.Colors(na).count() != b.Colors(nb).count()) {
      return fail("color set mismatch on node");
    }
    auto attrs_a = a.Attrs(na);
    auto attrs_b = b.Attrs(nb);
    if (attrs_a.size() != attrs_b.size()) return fail("attr count mismatch");
    for (const NodeAttr& at : attrs_a) {
      const std::string* v = b.FindAttr(nb, a.store().names().Name(at.name));
      if (v == nullptr || *v != at.value) return fail("attr value mismatch");
    }
  }
  return true;
}

}  // namespace mct::serialize
