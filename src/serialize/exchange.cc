#include "serialize/exchange.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/strings.h"
#include "xml/escape.h"
#include "xml/tokenizer.h"

namespace mct::serialize {

namespace {

constexpr char kWrapperTag[] = "mct-database";
constexpr std::string_view kReservedPrefix = "mct.";

void AppendUint(uint64_t v, std::string* out) {
  char buf[20];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends ` name="value"` with the value escaped.
void AppendAttr(std::string_view name, std::string_view value,
                std::string* out) {
  out->push_back(' ');
  out->append(name);
  out->append("=\"");
  xml::EscapeAttr(value, out);
  out->push_back('"');
}

/// Appends ` mct.pos.<color>="<rank>"`.
void AppendPos(std::string_view color, uint64_t rank, std::string* out) {
  out->append(" mct.pos.").append(color).append("=\"");
  AppendUint(rank, out);
  out->push_back('"');
}

}  // namespace

Result<std::string> ExportXml(const MctDatabase* db,
                              const SerializationScheme& scheme,
                              ExportStats* stats) {
  ExportStats local;
  ExportStats* st = stats != nullptr ? stats : &local;
  *st = ExportStats();

  const NodeStore& store = db->store();
  const NodeId doc = db->document();
  const size_t ncolors = db->num_colors();
  const size_t num_nodes = store.size();

  // Each tag's ranking of colors, resolved to color ids once.
  std::vector<std::vector<ColorId>> ranking(store.names().size());
  for (const auto& [tag, cnames] : scheme.primary) {
    const NameId id = store.names().Lookup(tag);
    if (id == kInvalidNameId) continue;
    for (const std::string& cname : cnames) {
      const ColorId c = db->LookupColor(cname);
      if (c != kInvalidColorId) ranking[id].push_back(c);
    }
  }

  // Side tables. Per-node facts are dense by NodeId, filled by one scan of
  // the node store in id order. Per-(node, color) facts take one slot per
  // structural node: node n's slots start at info[n].slot_base, one per
  // color of n in increasing color order.
  enum : uint8_t { kNeedsId = 1, kVisited = 2, kOrphan = 4 };
  struct NodeInfo {
    uint64_t colors = 0;
    uint64_t slot_base = 0;
    // The best-ranked color of the element's type that the element has
    // (the Section 5.3 fallback), else its first color; kInvalidColorId
    // for the document and for uncolored nodes.
    ColorId primary = kInvalidColorId;
    uint8_t flags = 0;
  };
  std::vector<NodeInfo> info(num_nodes);
  size_t num_slots = 0;
  size_t num_colored = 0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    const ColorSet cs = store.Colors(n);
    NodeInfo& ni = info[n];
    ni.colors = cs.mask();
    ni.slot_base = num_slots;
    num_slots += static_cast<size_t>(cs.count());
    if (cs.empty() || store.Kind(n) != xml::NodeKind::kElement) continue;
    ++num_colored;
    ni.primary = static_cast<ColorId>(__builtin_ctzll(cs.mask()));
    for (ColorId c : ranking[store.Name(n)]) {
      if (cs.Has(c)) {
        ni.primary = c;
        break;
      }
    }
  }
  auto slot = [&](NodeId n, ColorId c) {
    const uint64_t below = info[n].colors & ((uint64_t{1} << c) - 1);
    return info[n].slot_base + static_cast<size_t>(__builtin_popcountll(below));
  };
  // Rank of a node among its parent's element children in that color.
  std::vector<uint32_t> rank(num_slots);
  // Set on (parent, color) when the parent mixes nested children with
  // referenced or orphaned ones there: order is then explicit.
  std::vector<uint8_t> mixed(num_slots);

  // The nesting forest: each element hangs under its parent in its primary
  // color, and a parent's nested children come color by color in each
  // colored tree's local order (so they decode back in tree order). `order`
  // is the forest's pre-order with depths (1 = under the wrapper).
  //
  // Expanding a node walks its children in each of its colors once. That
  // walk also ranks every child among its parent's element children and
  // flags a parent with a child of another primary color (that parent
  // needs an id, and its order in that color is explicit). Every member of
  // a colored tree but its root, the document, is an element.
  struct Entry {
    NodeId node;
    uint32_t depth;
  };
  std::vector<Entry> order;
  order.reserve(num_colored);
  std::vector<Entry> work;
  auto nest = [&](NodeId from, uint32_t depth) {
    work.assign(1, Entry{from, depth});
    while (!work.empty()) {
      const Entry e = work.back();
      work.pop_back();
      if (e.node != doc) order.push_back(e);
      const size_t first = work.size();
      ColorSet(info[e.node].colors).ForEach([&](ColorId c) {
        uint32_t r = 0;
        db->tree(c)->ForEachChild(e.node, [&](NodeId k) {
          NodeInfo& ki = info[k];
          rank[slot(k, c)] = r++;
          if (ki.primary != c) {
            mixed[slot(e.node, c)] = 1;
            if (e.node != doc) info[e.node].flags |= kNeedsId;
          } else if ((ki.flags & kVisited) == 0) {
            ki.flags |= kVisited;
            work.push_back(Entry{k, e.depth + 1});
          }
        });
      });
      std::reverse(work.begin() + static_cast<ptrdiff_t>(first), work.end());
    }
  };
  nest(doc, 0);
  // Primary-color nesting is not guaranteed acyclic (the paper assumes
  // multi-colored elements are not involved in schema cycles, Section 5.3).
  // Elements not reached from the document sit in or under a cross-color
  // nesting cycle. In order of first appearance over the colors' pre-orders,
  // each one still unreached becomes an *orphan*, written at top level with
  // parent pointers for every color including the primary one, and the
  // rest of its cycle nests below it.
  for (ColorId c = 0; c < ncolors && order.size() < num_colored; ++c) {
    for (NodeId n : db->tree(c)->PreOrder()) {
      NodeInfo& ni = info[n];
      if (n == doc || (ni.flags & kVisited) != 0) continue;
      ni.flags |= kVisited | kOrphan;
      const NodeId p = db->tree(ni.primary)->Parent(n);
      if (p != doc) info[p].flags |= kNeedsId;
      mixed[slot(p, ni.primary)] = 1;
      nest(n, 1);
    }
  }

  // Write the forest in pre-order. The open elements are the current
  // node's ancestors in the forest: an element's end tag is written when
  // the walk leaves its subtree, and a nested element's XML parent, its
  // parent in its primary color, is the innermost of them.
  std::string out;
  out.append("<").append(kWrapperTag);
  {
    std::vector<std::string> cnames;
    for (ColorId c = 0; c < ncolors; ++c) cnames.push_back(db->ColorName(c));
    AppendAttr("colors", Join(cnames, " "), &out);
  }
  out.append(order.empty() ? "/>" : ">");
  struct Open {
    NodeId node;
    const std::string* tag;
  };
  std::vector<Open> open;
  auto close = [&]() {
    out.append("</").append(*open.back().tag).push_back('>');
    open.pop_back();
  };
  for (size_t i = 0; i < order.size(); ++i) {
    const NodeId n = order[i].node;
    const uint32_t depth = order[i].depth;
    while (open.size() >= depth) close();
    const NodeInfo& ni = info[n];
    const ColorId pc = ni.primary;
    const bool orphan = (ni.flags & kOrphan) != 0;
    const NodeId parent = open.empty() ? doc : open.back().node;
    const ColorId parent_pc = info[parent].primary;
    const std::string& tag = db->Tag(n);
    out.push_back('<');
    out.append(tag);
    // Bookkeeping first, user attributes after.
    if ((ni.flags & kNeedsId) != 0) {
      out.append(" mct.id=\"");
      AppendUint(n, &out);
      out.push_back('"');
    }
    if (pc != parent_pc) {
      AppendAttr("mct.pc", db->ColorName(pc), &out);
      if (parent != doc) ++st->color_annotations;
    }
    if (orphan) out.append(" mct.orphan=\"1\"");
    // Parent pointers: every non-primary color; for orphans the primary
    // color too (their nesting under the wrapper carries no edge).
    ColorSet(ni.colors).ForEach([&](ColorId c) {
      if (c == pc && !orphan) return;
      const NodeId p = db->tree(c)->Parent(n);
      const std::string& cname = db->ColorName(c);
      out.append(" mct.ref.").append(cname).append("=\"");
      if (p == doc) {
        out.append("doc");
      } else {
        AppendUint(p, &out);
      }
      out.push_back('"');
      AppendPos(cname, rank[slot(n, c)], &out);
      ++st->parent_pointers;
    });
    // Explicit position in the primary color when the parent (the document
    // included) mixes nested and referenced children there (order would
    // otherwise be ambiguous).
    if (!orphan && mixed[slot(parent, pc)] != 0) {
      AppendPos(db->ColorName(pc), rank[slot(n, pc)], &out);
    }
    for (const NodeAttr& a : db->Attrs(n)) {
      const std::string& name = store.names().Name(a.name);
      if (name.starts_with(kReservedPrefix)) {
        return Status::InvalidArgument(
            "node " + std::to_string(n) + " <" + tag + "> has attribute '" +
            name + "': the exchange format reserves names starting with " +
            "'mct.'");
      }
      AppendAttr(name, a.value, &out);
    }
    const bool has_text = store.HasContent(n);
    const bool has_children =
        i + 1 < order.size() && order[i + 1].depth > depth;
    if (!has_text && !has_children) {
      out.append("/>");
      continue;
    }
    out.push_back('>');
    if (has_text) xml::EscapeText(db->Content(n), &out);
    open.push_back(Open{n, &tag});
  }
  while (!open.empty()) close();
  if (!order.empty()) out.append("</").append(kWrapperTag).push_back('>');
  st->elements = order.size();
  st->bytes = out.size();
  return out;
}

namespace {

// A colored-tree edge the import attaches once every element exists:
// `child` under `parent` in `color`, ranked among that parent's children
// by `rank`. A nested edge ranks by its explicit mct.pos, else by its
// sequence among the parent's nested children in that color; a reference
// ranks by its mct.pos (0 when absent, after every nested child when
// negative). Equal ranks keep the order the edges were collected in:
// nested edges in document order, then references.
struct ImportEdge {
  ColorId color;
  NodeId parent;
  NodeId child;
  int rank;
};

// A parent pointer (mct.ref.<color>), resolved once every mct.id is known:
// to the document, or to the element whose mct.id is `parent_id`.
struct ImportRef {
  NodeId child;
  ColorId color;
  bool to_document;
  uint64_t parent_id;
  int pos;
};

// An element open around the tokenizer's cursor, with its primary color
// and its text so far.
struct OpenElement {
  NodeId node = kInvalidNodeId;
  ColorId pc = kInvalidColorId;
  std::string text;
};

// A whole decimal integer, as ExportXml writes ids.
std::optional<uint64_t> ParseExportId(std::string_view s) {
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return v;
}

Status Malformed(std::string_view attr, std::string_view value) {
  return Status::Corruption("malformed " + std::string(attr) + " value '" +
                            std::string(value) + "'");
}

// Reads the exchange document from `tok` into the empty `db`.
Status Import(xml::Tokenizer* tok, MctDatabase* db) {
  MCT_ASSIGN_OR_RETURN(const xml::Token wrapper, tok->Next());
  if (wrapper.name != kWrapperTag) {
    return Status::Corruption("not an MCT exchange document (missing <" +
                              std::string(kWrapperTag) + ">)");
  }
  MctDatabase::Loader loader(db);
  const xml::TokenAttr* colors = nullptr;
  for (const xml::TokenAttr& a : wrapper.attrs) {
    if (a.name == "colors") colors = &a;
  }
  if (colors == nullptr) {
    return Status::Corruption("wrapper lacks the colors attribute");
  }
  for (const std::string& cname : SplitWhitespace(colors->value)) {
    MCT_RETURN_IF_ERROR(db->RegisterColor(cname).status());
  }
  const size_t ncolors = db->num_colors();

  // Create the elements in document order and collect their edges: nested
  // ones as they are read, parent pointers once every mct.id is known.
  std::unordered_map<uint64_t, NodeId> by_export_id;
  std::vector<ImportEdge> edges;
  std::vector<ImportRef> refs;
  // seq[d * ncolors + c]: the nested children in color c that the open
  // element at depth d (the document is depth 0) has had so far.
  std::vector<int> seq(ncolors, 0);
  // open[0] is the wrapper, standing for the document; open[1, depth) are
  // the open elements. Entries past `depth` keep their text buffers.
  std::vector<OpenElement> open(1);
  open[0].node = db->document();
  size_t depth = 1;
  // One element's mct.ref.<c> and mct.pos.<c>, by color, and which are set.
  std::array<uint64_t, kMaxColors> ref_id{};
  std::array<int, kMaxColors> pos{};
  while (depth > 0) {
    MCT_ASSIGN_OR_RETURN(const xml::Token t, tok->Next());
    if (t.kind == xml::TokenKind::kText) {
      if (depth > 1) open[depth - 1].text.append(t.text);
      continue;
    }
    if (t.kind == xml::TokenKind::kEndElement) {
      const OpenElement& e = open[--depth];
      if (depth > 0 && !e.text.empty()) {
        MCT_RETURN_IF_ERROR(db->SetContent(e.node, e.text));
      }
      continue;
    }
    if (t.kind != xml::TokenKind::kStartElement) continue;

    MCT_ASSIGN_OR_RETURN(const NodeId n, db->CreateFreeElement(t.name));
    uint64_t ref_mask = 0, doc_mask = 0, pos_mask = 0;
    std::string_view pc_name;
    bool orphan = false;
    // The least name among refs in colors the palette lacks, if any.
    std::optional<std::string_view> unknown_ref;
    for (const xml::TokenAttr& a : t.attrs) {
      if (a.name == "mct.id") {
        const std::optional<uint64_t> id = ParseExportId(a.value);
        if (!id) return Malformed(a.name, a.value);
        by_export_id[*id] = n;
      } else if (a.name == "mct.pc") {
        pc_name = a.value;
      } else if (a.name == "mct.orphan") {
        orphan = true;
      } else if (a.name.starts_with("mct.ref.")) {
        const std::string_view cname = a.name.substr(8);
        const ColorId c = db->LookupColor(cname);
        if (c == kInvalidColorId) {
          if (!unknown_ref || cname < *unknown_ref) unknown_ref = cname;
          continue;
        }
        const uint64_t bit = uint64_t{1} << c;
        ref_mask |= bit;
        if (a.value == "doc") {
          doc_mask |= bit;
          continue;
        }
        const std::optional<uint64_t> id = ParseExportId(a.value);
        if (!id) return Malformed(a.name, a.value);
        ref_id[c] = *id;
      } else if (a.name.starts_with("mct.pos.")) {
        const ColorId c = db->LookupColor(a.name.substr(8));
        if (c == kInvalidColorId) continue;
        pos[c] = static_cast<int>(ParseInt(a.value).value_or(0));
        pos_mask |= uint64_t{1} << c;
      } else {
        MCT_RETURN_IF_ERROR(db->SetAttr(n, a.name, a.value));
      }
    }
    auto pos_of = [&](ColorId c, int absent) {
      return (pos_mask >> c & 1) != 0 ? pos[c] : absent;
    };
    ColorId pc = open[depth - 1].pc;
    if (!pc_name.empty()) {
      pc = db->LookupColor(pc_name);
      if (pc == kInvalidColorId) {
        return Status::Corruption("unknown primary color '" +
                                  std::string(pc_name) + "'");
      }
    }
    if (pc == kInvalidColorId) {
      return Status::Corruption("element <" + std::string(t.name) +
                                "> has no derivable primary color");
    }
    if (!orphan) {
      int& sibling_seq = seq[(depth - 1) * ncolors + pc];
      const int p = pos_of(pc, -1);
      edges.push_back(
          ImportEdge{pc, open[depth - 1].node, n, p >= 0 ? p : sibling_seq});
      ++sibling_seq;
    }
    if (unknown_ref) {
      return Status::Corruption("unknown ref color '" +
                                std::string(*unknown_ref) + "'");
    }
    ColorSet(ref_mask).ForEach([&](ColorId c) {
      refs.push_back(ImportRef{n, c, (doc_mask >> c & 1) != 0, ref_id[c],
                               pos_of(c, 0)});
    });
    seq.resize(std::max(seq.size(), (depth + 1) * ncolors));
    std::fill_n(seq.begin() + static_cast<ptrdiff_t>(depth * ncolors),
                ncolors, 0);
    if (open.size() == depth) open.emplace_back();
    open[depth].node = n;
    open[depth].pc = pc;
    open[depth].text.clear();
    ++depth;
  }
  // Only whitespace, comments and processing instructions may follow.
  MCT_RETURN_IF_ERROR(tok->Next().status());

  for (const ImportRef& r : refs) {
    NodeId parent = db->document();
    if (!r.to_document) {
      auto it = by_export_id.find(r.parent_id);
      if (it == by_export_id.end()) {
        return Status::Corruption("dangling mct.ref to id " +
                                  std::to_string(r.parent_id));
      }
      parent = it->second;
    }
    edges.push_back(
        ImportEdge{r.color, parent, r.child, r.pos >= 0 ? r.pos : 1 << 20});
  }

  // Order each (color, parent)'s children by rank, keeping collection order
  // among equal ranks.
  std::stable_sort(edges.begin(), edges.end(),
                   [](const ImportEdge& a, const ImportEdge& b) {
                     if (a.color != b.color) return a.color < b.color;
                     if (a.parent != b.parent) return a.parent < b.parent;
                     return a.rank < b.rank;
                   });

  // Attach per color, top-down from the document. first[p]..first[p + 1]
  // are the edges of the color under parent p.
  std::vector<size_t> first(db->store().size() + 1);
  size_t begin = 0;
  for (ColorId c = 0; c < ncolors; ++c) {
    size_t end = begin;
    std::fill(first.begin(), first.end(), 0);
    for (; end < edges.size() && edges[end].color == c; ++end) {
      ++first[edges[end].parent + 1];
    }
    first[0] = begin;
    for (size_t p = 1; p < first.size(); ++p) first[p] += first[p - 1];
    std::vector<NodeId> frontier{db->document()};
    while (!frontier.empty()) {
      NodeId parent = frontier.back();
      frontier.pop_back();
      for (size_t i = first[parent]; i < first[parent + 1]; ++i) {
        MCT_RETURN_IF_ERROR(db->AddNodeColor(edges[i].child, c, parent));
        frontier.push_back(edges[i].child);
      }
    }
    begin = end;
  }
  loader.Finish();
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<MctDatabase>> ImportXml(const std::string& xml) {
  xml::Tokenizer tok(xml);
  auto db = std::make_unique<MctDatabase>();
  const Status imported = Import(&tok, db.get());
  if (imported.ok()) return db;
  // Malformed text is refused as such, whatever else is wrong with it: read
  // on to the end of the document (the tokenizer repeats its own error).
  while (true) {
    MCT_ASSIGN_OR_RETURN(const xml::Token t, tok.Next());
    if (t.kind == xml::TokenKind::kEndOfDocument) return imported;
  }
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
