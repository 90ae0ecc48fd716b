// A corpus of small, tricky XML documents with the tree each parses to:
// xml_test checks the parser against the trees, and xml_mutation_test
// mutates the documents.

#ifndef COLORFUL_XML_TESTS_XML_CORPUS_H_
#define COLORFUL_XML_TESTS_XML_CORPUS_H_

#include <gtest/gtest.h>

#include <ostream>

namespace mct::xml {

struct ParseCase {
  const char* xml;
  // The parsed tree: name[attr=value,...] followed by (child,...) when
  // there are children; text children quoted.
  const char* tree;
};

inline void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << testing::PrintToString(c.xml);
}

inline constexpr ParseCase kXmlCorpus[] = {
    {"<a/>", "a"},
    {"<a b=\"c\"/>", "a[b=c]"},
    {"<a>text</a>", "a(\"text\")"},
    {"<a>x<b/>y</a>", "a(\"x\",b,\"y\")"},
    {"<a><![CDATA[<raw>]]></a>", "a(\"<raw>\")"},
    {"<ns:a xmlns:ns=\"http://x\"><ns:b/></ns:a>",
     "ns:a[xmlns:ns=http://x](ns:b)"},
    {"<a att=\"&quot;q&quot;\">&amp;</a>", "a[att=\"q\"](\"&\")"},
    {"<deep><l1><l2><l3><l4>v</l4></l3></l2></l1></deep>",
     "deep(l1(l2(l3(l4(\"v\")))))"},
    {"<mixed>one<e1/>two<e2/>three</mixed>",
     "mixed(\"one\",e1,\"two\",e2,\"three\")"},
};

}  // namespace mct::xml

#endif  // COLORFUL_XML_TESTS_XML_CORPUS_H_
