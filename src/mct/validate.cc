#include "mct/validate.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <unordered_set>

#include "common/strings.h"

namespace mct {

std::string ValidationReport::ToString() const {
  if (ok()) {
    return StrFormat("consistent (%llu nodes, %llu edges checked)",
                     static_cast<unsigned long long>(nodes_checked),
                     static_cast<unsigned long long>(edges_checked));
  }
  std::string out = StrFormat("%zu violation(s):\n", violations.size());
  for (const std::string& v : violations) {
    out += "  - " + v + "\n";
  }
  return out;
}

ValidationReport ValidateDatabase(MctDatabase& db) {
  ValidationReport report;
  auto fail = [&](std::string msg) {
    if (report.violations.size() < 50) {  // cap noise
      report.violations.push_back(std::move(msg));
    }
  };

  const NodeId doc = db.document();
  const size_t ncolors = db.num_colors();

  // Per-color structural invariants; collect per-node memberships.
  std::map<NodeId, ColorSet> membership;
  for (ColorId c = 0; c < ncolors; ++c) {
    db.tree(c)->EnsureLabels();
    const ColoredTree* t = db.tree(c);
    const std::string& cname = db.ColorName(c);
    if (t->root() != doc) {
      fail("tree '" + cname + "' is not rooted at the document node");
      continue;
    }
    std::vector<NodeId> order = t->PreOrder();
    if (order.size() != t->size()) {
      fail(StrFormat("tree '%s': %zu of %zu nodes unreachable from the root",
                     cname.c_str(), t->size() - order.size(), t->size()));
    }
    std::unordered_set<NodeId> seen;
    for (NodeId n : order) {
      if (!seen.insert(n).second) {
        fail(StrFormat("tree '%s': node %u reached twice (cycle)",
                       cname.c_str(), n));
        break;
      }
      membership[n].Add(c);
      ++report.nodes_checked;
      NodeId prev = kInvalidNodeId;
      uint64_t prev_end = t->Start(n);
      for (NodeId k : t->Children(n)) {
        ++report.edges_checked;
        if (t->Parent(k) != n) {
          fail(StrFormat("tree '%s': child %u of %u has parent %u",
                         cname.c_str(), k, n, t->Parent(k)));
        }
        if (t->PrevSibling(k) != prev) {
          fail(StrFormat("tree '%s': sibling links of %u inconsistent",
                         cname.c_str(), k));
        }
        // Labels: strict nesting inside the parent, ordered and disjoint
        // across siblings.
        if (!(t->Start(k) > t->Start(n) && t->End(k) < t->End(n))) {
          fail(StrFormat("tree '%s': label of %u not nested in parent %u",
                         cname.c_str(), k, n));
        }
        if (t->Start(k) <= prev_end) {
          fail(StrFormat("tree '%s': label of %u overlaps its left sibling",
                         cname.c_str(), k));
        }
        if (t->Start(k) >= t->End(k)) {
          fail(StrFormat("tree '%s': degenerate interval on %u",
                         cname.c_str(), k));
        }
        prev = k;
        prev_end = t->End(k);
      }
    }
  }

  // Color bitmask agreement (Definition 3.2) and liveness.
  for (const auto& [n, colors] : membership) {
    if (!(db.Colors(n) == colors)) {
      fail(StrFormat(
          "node %u bitmask %llx disagrees with tree membership %llx", n,
          static_cast<unsigned long long>(db.Colors(n).mask()),
          static_cast<unsigned long long>(colors.mask())));
    }
    if (!db.store().Exists(n)) {
      fail(StrFormat("node %u is in a tree but marked dead", n));
    }
  }
  if (db.Colors(doc).count() != static_cast<int>(ncolors)) {
    fail("document node does not carry every color");
  }

  // Index agreement: the tag index returns exactly the member elements per
  // (color, tag); content/attr probes find their values.
  for (ColorId c = 0; c < ncolors; ++c) {
    ColoredTree* t = db.tree(c);
    std::map<std::string, std::set<NodeId>> by_tag;
    for (NodeId n : t->PreOrder()) {
      if (n == doc || db.Kind(n) != xml::NodeKind::kElement) continue;
      by_tag[db.Tag(n)].insert(n);
    }
    for (const auto& [tag, expect] : by_tag) {
      auto got_v = db.TagScan(c, tag);
      std::set<NodeId> got(got_v.begin(), got_v.end());
      if (got != expect) {
        fail(StrFormat("tag index for (%s, %s): %zu entries vs %zu members",
                       db.ColorName(c).c_str(), tag.c_str(), got.size(),
                       expect.size()));
      }
    }
  }
  // Expected entries per image: one per (element, color), per indexed
  // content and per indexed attribute. The content and attribute probes
  // run once per distinct (name, value), since one probe compares every
  // node under the value's hash: once per node, n nodes sharing a value
  // would cost n^2 string compares.
  struct Probe {
    NameId name;  // the tag for content, the attribute's name
    std::string_view value;
    NodeId node;
    bool operator<(const Probe& o) const {
      return std::tie(name, value, node) < std::tie(o.name, o.value, o.node);
    }
  };
  std::vector<Probe> contents, attrs;
  std::array<uint64_t, 3> expected{};
  for (const auto& [n, colors] : membership) {
    if (db.Kind(n) != xml::NodeKind::kElement) continue;
    expected[0] += static_cast<uint64_t>(colors.count());
    if (db.store().HasContent(n)) {
      contents.push_back(Probe{db.TagId(n), db.Content(n), n});
    }
    for (const NodeAttr& a : db.Attrs(n)) {
      attrs.push_back(Probe{a.name, a.value, n});
    }
  }
  expected[1] = contents.size();
  expected[2] = attrs.size();
  // Probes each group of equal (name, value) once; every member must be
  // among the hits.
  auto check = [&](std::vector<Probe>& probes, const char* what,
                   auto&& lookup) {
    std::sort(probes.begin(), probes.end());
    for (size_t i = 0; i < probes.size();) {
      const Probe& first = probes[i];
      std::vector<NodeId> hits =
          lookup(db.store().names().Name(first.name), first.value);
      std::sort(hits.begin(), hits.end());
      for (; i < probes.size() && probes[i].name == first.name &&
             probes[i].value == first.value;
           ++i) {
        if (!std::binary_search(hits.begin(), hits.end(), probes[i].node)) {
          fail(StrFormat("%s index misses node %u", what, probes[i].node));
        }
      }
    }
  };
  check(contents, "content", [&](std::string_view tag, std::string_view v) {
    return db.ContentLookup(tag, v);
  });
  check(attrs, "attribute", [&](std::string_view name, std::string_view v) {
    return db.AttrLookup(name, v);
  });
  // Every expected entry is present, so a surplus is a stale entry.
  const std::array<uint64_t, 3> held = db.ImageEntries();
  const char* const kImages[] = {"tag", "content", "attribute"};
  for (size_t i = 0; i < held.size(); ++i) {
    if (held[i] != expected[i]) {
      fail(StrFormat("%s index holds %llu entries, the store implies %llu",
                     kImages[i], static_cast<unsigned long long>(held[i]),
                     static_cast<unsigned long long>(expected[i])));
    }
  }
  return report;
}

}  // namespace mct
