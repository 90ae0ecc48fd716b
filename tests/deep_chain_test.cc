// Walks over database depth keep their own stacks, not the call stack. A
// database may nest far deeper than XML input can (each MCX update can add
// a level), so a chain nested 200,000 levels deep in one color — well past
// one call frame per level — must survive result serialization, createCopy
// in a RETURN constructor and in an update, and an exchange export and
// import.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mct/database.h"
#include "mcx/evaluator.h"
#include "serialize/exchange.h"

namespace mct {
namespace {

constexpr size_t kDepth = 200000;

struct Chain {
  std::unique_ptr<MctDatabase> db;
  ColorId color = kInvalidColorId;
  NodeId top = kInvalidNodeId;
};

// kDepth nested <a> elements in color "c"; the innermost holds "leaf".
Chain BuildChain() {
  Chain ch;
  ch.db = std::make_unique<MctDatabase>();
  ch.color = *ch.db->RegisterColor("c");
  NodeId parent = ch.db->document();
  for (size_t i = 0; i < kDepth; ++i) {
    auto n = ch.db->CreateElement(ch.color, parent, "a");
    if (!n.ok()) std::abort();
    if (i == 0) ch.top = *n;
    parent = *n;
  }
  if (!ch.db->SetContent(parent, "leaf").ok()) std::abort();
  return ch;
}

// The chain's text: kDepth nested <a> elements around "leaf", the
// outermost opened by `top`.
std::string ChainText(const std::string& top = "<a>") {
  std::string s = top;
  s.reserve(kDepth * 7 + 4);
  for (size_t i = 1; i < kDepth; ++i) s += "<a>";
  s += "leaf";
  for (size_t i = 0; i < kDepth; ++i) s += "</a>";
  return s;
}

std::string ToXml(mcx::Evaluator* ev, NodeId n, ColorId color) {
  mcx::QueryResult r;
  r.items.push_back(mcx::Item::OfNode(n));
  return ev->ToXml(r, color);
}

TEST(DeepChainTest, ToXmlOfTheTopElement) {
  Chain ch = BuildChain();
  mcx::Evaluator ev(ch.db.get(), mcx::EvalOptions{});
  auto r = ev.Run("for $a in document(\"d\")/{c}child::a return $a");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].node, ch.top);
  EXPECT_EQ(ev.ToXml(*r, ch.color), ChainText() + "\n");
}

TEST(DeepChainTest, CreateCopyInAReturnConstructor) {
  Chain ch = BuildChain();
  mcx::Evaluator ev(ch.db.get(), mcx::EvalOptions{});
  auto r = ev.Run(
      "for $a in document(\"d\")/{c}child::a "
      "return createColor(k, <copy>{ createCopy($a) }</copy>)");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->items.size(), 1u);
  const ColorId k = ch.db->LookupColor("k");
  ASSERT_NE(k, kInvalidColorId);
  EXPECT_EQ(ev.ToXml(*r, k), "<copy>" + ChainText() + "</copy>\n");
  // Fresh identities, allocated in pre-order right after <copy>'s; the
  // original chain gains no color.
  const NodeId copy = r->items[0].node;
  NodeId n = copy;
  for (size_t level = 0; level < kDepth; ++level) {
    auto kids = ch.db->Children(n, k);
    ASSERT_EQ(kids.size(), 1u) << level;
    ASSERT_EQ(kids[0], copy + 1 + level);
    n = kids[0];
  }
  EXPECT_EQ(ch.db->Content(n), "leaf");
  EXPECT_FALSE(ch.db->Colors(ch.top).Has(k));
}

TEST(DeepChainTest, CreateCopyInAnInsertUpdate) {
  Chain ch = BuildChain();
  mcx::Evaluator ev(ch.db.get(), mcx::EvalOptions{});
  auto r = ev.Run(
      "for $a in document(\"d\")/{c}child::a "
      "update $a { insert <w>{ createCopy(.) }</w> into {c} }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->updated_count, 1u);
  auto kids = ch.db->Children(ch.top, ch.color);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(ch.db->Tag(kids[1]), "w");
  EXPECT_EQ(ToXml(&ev, kids[1], ch.color), "<w>" + ChainText() + "</w>\n");
  EXPECT_EQ(ch.db->tree(ch.color)->size(), 2 * kDepth + 2);
}

TEST(DeepChainTest, ExportXmlImportRoundTrip) {
  Chain ch = BuildChain();
  serialize::ExportStats stats;
  auto xml =
      serialize::ExportXml(ch.db.get(), serialize::SerializationScheme{},
                           &stats);
  ASSERT_TRUE(xml.ok()) << xml.status();
  // A child of the document names its color: it has no enclosing element.
  EXPECT_EQ(*xml, "<mct-database colors=\"c\">" +
                      ChainText("<a mct.pc=\"c\">") + "</mct-database>");
  EXPECT_EQ(stats.elements, kDepth);
  EXPECT_EQ(stats.parent_pointers, 0u);
  // The import reads the text through the pull tokenizer, which keeps its
  // open elements on a stack, so any depth imports.
  auto imported = serialize::ImportXml(*xml);
  ASSERT_TRUE(imported.ok()) << imported.status();
  std::string why;
  EXPECT_TRUE(serialize::DatabasesIsomorphic(*ch.db, **imported, &why))
      << why;
  EXPECT_EQ((*imported)->tree(ch.color)->size(), kDepth + 1);
}

}  // namespace
}  // namespace mct
