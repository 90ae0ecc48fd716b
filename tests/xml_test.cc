#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "xml/dom.h"
#include "xml/escape.h"
#include "xml/name_pool.h"
#include "xml/parser.h"
#include "xml/tokenizer.h"
#include "xml_corpus.h"

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

// A character reference is '&#' decimal digits ';' or '&#x' hex digits ';'
// naming a code point of XML's Char production: no whitespace, no sign, no
// empty body, no NUL, C0 control (but tab, LF, CR), surrogate, U+FFFE/FFFF
// or code point past U+10FFFF. Each bad form is refused by Unescape and by
// Parse, in text and in an attribute value.
TEST(EscapeTest, CharacterReferencesAreDigitsNamingAnXmlChar) {
  EXPECT_EQ(*Unescape("&#65;"), "A");
  EXPECT_EQ(*Unescape("&#x41;"), "A");
  EXPECT_EQ(*Unescape("&#10;"), "\n");
  EXPECT_EQ(*Unescape("&#x1F600;"), "\xF0\x9F\x98\x80");  // 4-byte UTF-8
  EXPECT_EQ(*Unescape("&#9;&#13;&#x10FFFF;"), "\t\r\xF4\x8F\xBF\xBF");
  const std::pair<std::string, std::string> kBad[] = {
      {"&# 65;", "malformed character reference: &# 65;"},
      {"&#+65;", "malformed character reference: &#+65;"},
      {"&#-65;", "malformed character reference: &#-65;"},
      {"&#65 ;", "malformed character reference: &#65 ;"},
      {"&#x 41;", "malformed hex character reference: &#x 41;"},
      {"&#x+41;", "malformed hex character reference: &#x+41;"},
      {"&#x-41;", "malformed hex character reference: &#x-41;"},
      {"&#x;", "malformed hex character reference: &#x;"},
      {"&#0;", "character reference out of range"},
      {"&#x0;", "character reference out of range"},
      {"&#8;", "character reference out of range"},
      {"&#x1F;", "character reference out of range"},
      {"&#xD800;", "character reference out of range"},
      {"&#xDFFF;", "character reference out of range"},
      {"&#xFFFE;", "character reference out of range"},
      {"&#xFFFF;", "character reference out of range"},
      {"&#x110000;", "character reference out of range"},
      {"&#99999999999999999999;", "character reference out of range"},
  };
  for (const auto& [ref, message] : kBad) {
    SCOPED_TRACE(ref);
    auto unescaped = Unescape(ref);
    ASSERT_FALSE(unescaped.ok());
    EXPECT_TRUE(unescaped.status().IsParseError());
    EXPECT_EQ(unescaped.status().message(), message);
    for (const std::string& doc :
         {"<a>" + ref + "</a>", "<a x='" + ref + "'/>"}) {
      auto parsed = Parse(doc);
      ASSERT_FALSE(parsed.ok()) << doc;
      EXPECT_TRUE(parsed.status().IsParseError()) << doc;
      EXPECT_EQ(parsed.status().message(), message) << doc;
    }
  }
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

// The tokens of `doc`, one per line as "offset kind": <name a=v ...> for
// a start, </name> for an end, "text", <!--text-->, <?name text?>, and
// "end" for the end of the document; or the error, as "error: message".
std::string Tokens(std::string_view doc) {
  Tokenizer tokenizer(doc);
  std::string out;
  while (true) {
    auto tok = tokenizer.Next();
    if (!tok.ok()) return out + "error: " + tok.status().message();
    out += std::to_string(tok->offset) + " ";
    switch (tok->kind) {
      case TokenKind::kStartElement:
        out += "<" + std::string(tok->name);
        for (const TokenAttr& a : tok->attrs) {
          out += " " + std::string(a.name) + "=" + std::string(a.value);
        }
        out += ">";
        break;
      case TokenKind::kEndElement:
        out += "</" + std::string(tok->name) + ">";
        break;
      case TokenKind::kText:
        out += "\"" + std::string(tok->text) + "\"";
        break;
      case TokenKind::kComment:
        out += "<!--" + std::string(tok->text) + "-->";
        break;
      case TokenKind::kProcessingInstruction:
        out += "<?" + std::string(tok->name) + " " + std::string(tok->text) +
               "?>";
        break;
      case TokenKind::kEndOfDocument:
        return out + "end";
    }
    out += "\n";
  }
}

TEST(TokenizerTest, SelfClosingTagYieldsStartAndEnd) {
  EXPECT_EQ(Tokens("<a><b x='1'/></a>"),
            "0 <a>\n"
            "3 <b x=1>\n"
            "11 </b>\n"
            "13 </a>\n"
            "17 end");
  EXPECT_EQ(Tokens("<r/>"), "0 <r>\n2 </r>\n4 end");
}

// Values with entities are resolved into scratch space; the others stay
// views of the input. Both kinds keep their order and values side by side.
TEST(TokenizerTest, EntitiesInAttributeValuesAndText) {
  EXPECT_EQ(Tokens("<t a=\"x &amp; y\" b='plain' c=\"&lt;&#65;&#x42;&quot;\">"
                   "1 &lt; 2 &amp;&amp; 3</t>"),
            "0 <t a=x & y b=plain c=<AB\">\n"
            "53 \"1 < 2 && 3\"\n"
            "74 </t>\n"
            "78 end");
  // A run that is whitespace once resolved is formatting too.
  EXPECT_EQ(Tokens("<t>&#32;<u/>&#10;</t>"),
            "0 <t>\n8 <u>\n10 </u>\n17 </t>\n21 end");
}

// Whitespace-only text runs are dropped; CDATA sections are text, kept
// verbatim even when blank or empty.
TEST(TokenizerTest, CdataIsKeptAndBlankRunsAreDropped) {
  EXPECT_EQ(Tokens("<a>\n  <![CDATA[ ]]> x <![CDATA[<&>]]><![CDATA[]]>\n</a>"),
            "0 <a>\n"
            "6 \" \"\n"
            "19 \" x \"\n"
            "22 \"<&>\"\n"
            "37 \"\"\n"
            "50 </a>\n"
            "54 end");
}

// Comments and processing instructions inside the document element are
// tokens; the prolog's and the epilogue's are skipped.
TEST(TokenizerTest, CommentsAndProcessingInstructions) {
  EXPECT_EQ(Tokens("<?xml version='1.0'?>\n<!DOCTYPE r>\n<!--pro-->"
                   "<r><!--c--><?pi some data?><?bare?></r>\n<!--post--><?x?>"),
            "45 <r>\n"
            "48 <!--c-->\n"
            "56 <?pi some data?>\n"
            "72 <?bare ?>\n"
            "80 </r>\n"
            "101 end");
}

// Each error names its offset (an entity error names the entity), and
// xml::Parse refuses the document with the same message. The error repeats
// on every later call.
TEST(TokenizerTest, ErrorsNameTheirOffset) {
  const std::pair<const char*, const char*> kCases[] = {
      {"", "expected '<' at offset 0"},
      {"  text", "expected '<' at offset 2"},
      {"<?xml unterminated", "expected '<' at offset 18"},
      {"<1tag/>", "expected a name at offset 1"},
      {"<a", "unterminated start tag at offset 2"},
      {"<a x></a>", "expected '=' in attribute at offset 4"},
      {"<a x=1></a>", "expected quoted attribute value at offset 5"},
      {"<a x='1></a>", "unterminated attribute value at offset 12"},
      {"<a x='1' x='2'></a>", "duplicate attribute 'x' at offset 14"},
      {"<a>", "unterminated element <a> at offset 3"},
      {"<a>text", "unterminated element <a> at offset 3"},
      {"<a><b></a>", "mismatched close tag </a> for <b> at offset 9"},
      {"<a></a x>", "expected '>' in close tag at offset 7"},
      {"<a></>", "expected a name at offset 5"},
      {"<a><!-- x</a>", "unterminated comment at offset 3"},
      {"<a><![CDATA[x</a>", "unterminated CDATA at offset 3"},
      {"<a><?pi x</a>", "unterminated PI at offset 3"},
      {"<a><!DOCTYPE a></a>", "expected a name at offset 4"},
      {"<a></a><b/>", "trailing content after document element at offset 7"},
      {"<a>&nosuch;</a>", "unknown entity: &nosuch;"},
      {"<a x='&#xz;'/>", "malformed hex character reference: &#xz;"},
  };
  for (const auto& [doc, message] : kCases) {
    SCOPED_TRACE(doc);
    const std::string tokens = Tokens(doc);
    EXPECT_EQ(tokens.substr(tokens.rfind('\n') + 1),
              std::string("error: ") + message);
    auto parsed = Parse(doc);
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().IsParseError());
    EXPECT_EQ(parsed.status().message(), message);
    Tokenizer tokenizer(doc);
    Status first;
    while (first.ok()) {
      auto tok = tokenizer.Next();
      first = tok.status();
      ASSERT_TRUE(!tok.ok() || tok->kind != TokenKind::kEndOfDocument);
    }
    EXPECT_EQ(tokenizer.Next().status().message(), first.message());
  }
}

// The tokenizer keeps its open elements on a stack: a million levels read
// through (xml::Parse refuses them at kMaxDepth, for its DOM).
TEST(TokenizerTest, AnyDepthReadsThrough) {
  constexpr size_t kLevels = 1000000;
  std::string doc;
  for (size_t i = 0; i < kLevels; ++i) doc += "<a>";
  doc += "x";
  for (size_t i = 0; i < kLevels; ++i) doc += "</a>";
  Tokenizer tokenizer(doc);
  size_t depth = 0, max_depth = 0, tokens = 0;
  while (true) {
    auto tok = tokenizer.Next();
    ASSERT_TRUE(tok.ok()) << tok.status();
    if (tok->kind == TokenKind::kEndOfDocument) break;
    ++tokens;
    if (tok->kind == TokenKind::kStartElement) {
      max_depth = std::max(max_depth, ++depth);
    } else if (tok->kind == TokenKind::kEndElement) {
      --depth;
    }
  }
  EXPECT_EQ(tokens, 2 * kLevels + 1);
  EXPECT_EQ(max_depth, kLevels);
  EXPECT_EQ(depth, 0u);
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
class XmlParseDom : public testing::TestWithParam<ParseCase> {};

TEST_P(XmlParseDom, MatchesExpectedTree) {
  auto doc = Parse(GetParam().xml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(Tree(*doc->root), GetParam().tree);
}

INSTANTIATE_TEST_SUITE_P(Corpus, XmlParseDom, testing::ValuesIn(kXmlCorpus));

}  // namespace
}  // namespace mct::xml
