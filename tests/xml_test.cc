#include <gtest/gtest.h>

#include "xml/dom.h"
#include "xml/escape.h"
#include "xml/name_pool.h"
#include "xml/parser.h"

namespace mct::xml {
namespace {

TEST(NamePoolTest, InternIsIdempotent) {
  NamePool pool;
  NameId a = pool.Intern("movie");
  NameId b = pool.Intern("actor");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("movie"), a);
  EXPECT_EQ(pool.Name(a), "movie");
  EXPECT_EQ(pool.Lookup("actor"), b);
  EXPECT_EQ(pool.Lookup("nope"), kInvalidNameId);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(EscapeTest, TextRoundTrip) {
  std::string raw = "a < b && c > d";
  std::string escaped = "kept:";
  EscapeText(raw, &escaped);
  EXPECT_EQ(escaped, "kept:a &lt; b &amp;&amp; c &gt; d");
  auto back = Unescape(std::string_view(escaped).substr(5));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, raw);
}

TEST(EscapeTest, AttrRoundTrip) {
  std::string raw = "say \"hi\" & <bye>\n";
  std::string escaped;
  EscapeAttr(raw, &escaped);
  EXPECT_EQ(escaped, "say &quot;hi&quot; &amp; &lt;bye&gt;&#10;");
  auto back = Unescape(escaped);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, raw);
}

// Text built with the escape helpers parses back to the raw values, in
// attributes and in content.
TEST(EscapeTest, EscapedMarkupParsesBack) {
  const std::string attr = "x \"y\" & <z>\nw";
  const std::string text = "1 < 2 & 3 > 2";
  std::string doc = "<t a=\"";
  EscapeAttr(attr, &doc);
  doc += "\">";
  EscapeText(text, &doc);
  doc += "</t>";
  auto parsed = Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed->root->FindAttr("a"), attr);
  EXPECT_EQ(parsed->root->StringValue(), text);
}

TEST(EscapeTest, NumericReferences) {
  EXPECT_EQ(*Unescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(*Unescape("&#233;"), "\xC3\xA9");  // e-acute, 2-byte UTF-8
  EXPECT_EQ(*Unescape("&#x20AC;"), "\xE2\x82\xAC");  // euro, 3-byte
  EXPECT_EQ(*Unescape("&apos;"), "'");
}

TEST(EscapeTest, MalformedEntitiesError) {
  EXPECT_TRUE(Unescape("&bogus;").status().IsParseError());
  EXPECT_TRUE(Unescape("&#xz;").status().IsParseError());
  EXPECT_TRUE(Unescape("&#;").status().IsParseError());
  EXPECT_TRUE(Unescape("a & b").status().IsParseError());
  EXPECT_TRUE(Unescape("&#1114112;").status().IsParseError());  // > 0x10FFFF
}

TEST(DomTest, StringValueConcatenatesDescendants) {
  Element root("movie");
  root.AddTextElement("name", "All About ");
  root.children()[0]->AddChild([] {
    auto e = std::make_unique<Element>("em");
    e->AddText("Eve");
    return e;
  }());
  EXPECT_EQ(root.StringValue(), "All About Eve");
}

TEST(DomTest, FindAttrAndChild) {
  Element e("movie");
  e.SetAttr("id", "m1");
  e.SetAttr("id", "m2");  // overwrite
  ASSERT_NE(e.FindAttr("id"), nullptr);
  EXPECT_EQ(*e.FindAttr("id"), "m2");
  EXPECT_EQ(e.FindAttr("missing"), nullptr);
  e.AddElement("name");
  e.AddElement("votes");
  EXPECT_NE(e.FindChild("votes"), nullptr);
  EXPECT_EQ(e.FindChild("zzz"), nullptr);
  EXPECT_EQ(e.SubtreeSize(), 3u);
}

TEST(ParserTest, SimpleDocument) {
  auto doc = Parse("<movie id='m1'><name>Eve</name><votes>12</votes></movie>");
  ASSERT_TRUE(doc.ok());
  const Element& root = *doc->root;
  EXPECT_EQ(root.name(), "movie");
  EXPECT_EQ(*root.FindAttr("id"), "m1");
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_EQ(root.FindChild("name")->StringValue(), "Eve");
  EXPECT_EQ(root.FindChild("votes")->StringValue(), "12");
}

TEST(ParserTest, DeclarationDoctypeCommentsPIs) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE mdb>\n"
      "<!-- prologue comment -->\n"
      "<mdb><!-- inner --><?proc data?><x/></mdb>\n"
      "<!-- epilogue -->");
  ASSERT_TRUE(doc.ok());
  const Element& root = *doc->root;
  ASSERT_EQ(root.children().size(), 3u);
  EXPECT_EQ(root.children()[0]->kind(), NodeKind::kComment);
  EXPECT_EQ(root.children()[0]->text(), " inner ");
  EXPECT_EQ(root.children()[1]->kind(), NodeKind::kProcessingInstruction);
  EXPECT_EQ(root.children()[1]->name(), "proc");
  EXPECT_EQ(root.children()[1]->text(), "data");
  EXPECT_EQ(root.children()[2]->name(), "x");
}

TEST(ParserTest, CdataAndEntities) {
  auto doc = Parse("<t>&lt;tag&gt; &amp; <![CDATA[raw <stuff> & more]]></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->StringValue(), "<tag> & raw <stuff> & more");
}

TEST(ParserTest, SelfClosingAndNesting) {
  auto doc = Parse("<a><b/><c><d x=\"1\"/></c></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->SubtreeSize(), 4u);
  EXPECT_EQ(*doc->root->FindChild("c")->FindChild("d")->FindAttr("x"), "1");
}

TEST(ParserTest, WhitespaceBetweenElementsDropped) {
  auto doc = Parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->children().size(), 2u);
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(Parse("").status().IsParseError());
  EXPECT_TRUE(Parse("<a>").status().IsParseError());
  EXPECT_TRUE(Parse("<a></b>").status().IsParseError());
  EXPECT_TRUE(Parse("<a x=1></a>").status().IsParseError());
  EXPECT_TRUE(Parse("<a x='1' x='2'></a>").status().IsParseError());
  EXPECT_TRUE(Parse("<a></a><b></b>").status().IsParseError());
  EXPECT_TRUE(Parse("<1tag/>").status().IsParseError());
  EXPECT_TRUE(Parse("<a>&nosuch;</a>").status().IsParseError());
}

// `depth` nested <a> elements; the k-th opens at offset 3 * (k - 1).
std::string Nested(size_t depth) {
  std::string s;
  s.reserve(depth * 7);
  for (size_t i = 0; i < depth; ++i) s += "<a>";
  for (size_t i = 0; i < depth; ++i) s += "</a>";
  return s;
}

// Parsing and the DOM's destructor recurse once per level, so nesting is
// capped: the deepest accepted document parses and tears down, and one
// level more — or a million — is a ParseError naming the offset of the
// first element past the cap, not a stack overflow.
TEST(ParserTest, NestingIsCappedAtMaxDepth) {
  {
    auto doc = Parse(Nested(kMaxDepth));
    ASSERT_TRUE(doc.ok()) << doc.status();
    EXPECT_EQ(doc->root->SubtreeSize(), static_cast<size_t>(kMaxDepth));
  }
  for (size_t depth : {static_cast<size_t>(kMaxDepth) + 1, size_t{1000000}}) {
    auto doc = Parse(Nested(depth));
    ASSERT_FALSE(doc.ok()) << depth;
    EXPECT_TRUE(doc.status().IsParseError()) << doc.status();
    EXPECT_EQ(doc.status().message(),
              "element nested deeper than 1024 levels at offset 3072");
  }
  // The cap counts open elements, not elements seen: siblings do not add.
  std::string wide = "<r>";
  for (int i = 0; i < 2 * kMaxDepth; ++i) wide += "<a><b/></a>";
  wide += "</r>";
  auto doc = Parse(wide);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root->children().size(), static_cast<size_t>(2 * kMaxDepth));
}

// A compact form of a parsed tree for assertions: name[attr=value,...]
// followed by (child,...) when there are children; text children quoted,
// comments as <!--text-->, processing instructions as <?name text?>.
std::string Tree(const Element& e) {
  switch (e.kind()) {
    case NodeKind::kText:
      return "\"" + e.text() + "\"";
    case NodeKind::kComment:
      return "<!--" + e.text() + "-->";
    case NodeKind::kProcessingInstruction:
      return "<?" + e.name() + " " + e.text() + "?>";
    default:
      break;
  }
  std::string out = e.name();
  for (size_t i = 0; i < e.attrs().size(); ++i) {
    out += i == 0 ? "[" : ",";
    out += e.attrs()[i].name + "=" + e.attrs()[i].value;
  }
  if (!e.attrs().empty()) out += "]";
  for (size_t i = 0; i < e.children().size(); ++i) {
    out += i == 0 ? "(" : ",";
    out += Tree(*e.children()[i]);
  }
  if (!e.children().empty()) out += ")";
  return out;
}

TEST(ParserTest, AttributesAndChildrenKeepDocumentOrder) {
  auto doc = Parse(
      "<mdb><movie id=\"m1\" genre=\"comedy\"><name>All About Eve</name>"
      "<votes>12</votes></movie><movie id=\"m2\"/></mdb>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(Tree(*doc->root),
            "mdb(movie[id=m1,genre=comedy](name(\"All About Eve\"),"
            "votes(\"12\")),movie[id=m2])");
}

TEST(ParserTest, IndentedDocumentParsesLikeCompact) {
  auto indented = Parse(
      "<?xml version=\"1.0\"?>\n<a>\n  <b>\n    <c>text</c>\n  </b>\n"
      "  <d/>\n</a>\n");
  ASSERT_TRUE(indented.ok()) << indented.status();
  auto compact = Parse("<a><b><c>text</c></b><d/></a>");
  ASSERT_TRUE(compact.ok()) << compact.status();
  EXPECT_EQ(Tree(*indented->root), "a(b(c(\"text\")),d)");
  EXPECT_EQ(Tree(*indented->root), Tree(*compact->root));
}

// Each document of a corpus of tricky ones parses to the expected tree.
struct ParseCase {
  const char* xml;
  const char* tree;
};

void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << testing::PrintToString(c.xml);
}

class XmlParseDom : public testing::TestWithParam<ParseCase> {};

TEST_P(XmlParseDom, MatchesExpectedTree) {
  auto doc = Parse(GetParam().xml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(Tree(*doc->root), GetParam().tree);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, XmlParseDom,
    testing::Values(
        ParseCase{"<a/>", "a"},
        ParseCase{"<a b=\"c\"/>", "a[b=c]"},
        ParseCase{"<a>text</a>", "a(\"text\")"},
        ParseCase{"<a>x<b/>y</a>", "a(\"x\",b,\"y\")"},
        ParseCase{"<a><![CDATA[<raw>]]></a>", "a(\"<raw>\")"},
        ParseCase{"<ns:a xmlns:ns=\"http://x\"><ns:b/></ns:a>",
                  "ns:a[xmlns:ns=http://x](ns:b)"},
        ParseCase{"<a att=\"&quot;q&quot;\">&amp;</a>",
                  "a[att=\"q\"](\"&\")"},
        ParseCase{"<deep><l1><l2><l3><l4>v</l4></l3></l2></l1></deep>",
                  "deep(l1(l2(l3(l4(\"v\")))))"},
        ParseCase{"<mixed>one<e1/>two<e2/>three</mixed>",
                  "mixed(\"one\",e1,\"two\",e2,\"three\")"}));

}  // namespace
}  // namespace mct::xml
