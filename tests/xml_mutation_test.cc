// Seeded mutation test for the XML readers: xml::Parse, LoadXmlText and
// serialize::ImportXml. Mutants of a few seed documents (the movie
// fixture's export, a TPC-W export and the xml_test corpus) must each come
// back as a Status, never a crash; every database LoadXmlText or ImportXml
// accepts must validate; and ImportXml, which reads the text through the
// same tokenizer without building a DOM, must not accept text xml::Parse
// refuses unless the refusal is for depth. The seeds are fixed, so a
// failure reproduces; run it under ASan to catch out-of-bounds reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mct/validate.h"
#include "mct/xml_load.h"
#include "movie_fixture.h"
#include "serialize/exchange.h"
#include "serialize/opt_serialize.h"
#include "serialize/schema.h"
#include "workload/tpcw_db.h"
#include "xml/parser.h"
#include "xml_corpus.h"

namespace mct {
namespace {

// Text a mutation may insert: markup openers and a close tag, entities (one
// a character reference to NUL), a stray quote, and an exchange parent
// pointer in a color no palette has.
constexpr const char* kInserts[] = {
    "<", "</a>", "&amp;", "&#0;", "\"", "<![CDATA[", "<!--", "mct.ref.x=\"7\"",
};

// `doc` after one to three edits: flip a byte, delete or duplicate a span
// of up to 16 bytes, insert one of kInserts, or truncate.
std::string Mutate(const std::string& doc, Rng* rng) {
  std::string m = doc;
  const uint64_t edits = 1 + rng->Uniform(3);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t at = rng->Uniform(m.size() + 1);
    const size_t span = std::min<size_t>(1 + rng->Uniform(16), m.size() - at);
    switch (rng->Uniform(5)) {
      case 0:
        if (at < m.size()) m[at] ^= static_cast<char>(1 + rng->Uniform(255));
        break;
      case 1:
        m.erase(at, span);
        break;
      case 2:
        m.insert(at, m.substr(at, span));
        break;
      case 3:
        m.insert(at, kInserts[rng->Uniform(std::size(kInserts))]);
        break;
      default:
        m.resize(at);
        break;
    }
  }
  return m;
}

// Runs `text` through the three readers.
void CheckReaders(const std::string& text) {
  auto parsed = xml::Parse(text);
  {
    MctDatabase db;
    const ColorId c = *db.RegisterColor("doc");
    auto loaded = LoadXmlText(&db, c, text);
    if (loaded.ok()) {
      const ValidationReport report = ValidateDatabase(db);
      EXPECT_TRUE(report.ok()) << "LoadXmlText: " << report.ToString();
    }
  }
  auto imported = serialize::ImportXml(text);
  if (!imported.ok()) return;
  const ValidationReport report = ValidateDatabase(**imported);
  EXPECT_TRUE(report.ok()) << "ImportXml: " << report.ToString();
  if (!parsed.ok()) {
    EXPECT_NE(parsed.status().message().find("nested deeper than"),
              std::string::npos)
        << "ImportXml accepted text xml::Parse refuses: " << parsed.status();
  }
}

// `count` mutants of each of `docs`, from a generator seeded with `seed`.
void RunMutants(const std::vector<std::string>& docs, uint64_t seed,
                int count) {
  Rng rng(seed);
  for (size_t d = 0; d < docs.size(); ++d) {
    for (int i = 0; i < count; ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", document " +
                   std::to_string(d) + ", mutant " + std::to_string(i));
      CheckReaders(Mutate(docs[d], &rng));
      if (testing::Test::HasFailure()) return;
    }
  }
}

std::string ExportOf(MctDatabase* db) {
  auto scheme = serialize::OptSerialize(serialize::InferSchema(*db));
  EXPECT_TRUE(scheme.ok()) << scheme.status();
  auto xml = serialize::ExportXml(db, *scheme);
  EXPECT_TRUE(xml.ok()) << xml.status();
  return xml.ok() ? *xml : std::string();
}

TEST(XmlMutationTest, MovieExport) {
  const std::string doc = ExportOf(testfix::BuildMovieDb().db.get());
  ASSERT_TRUE(serialize::ImportXml(doc).ok());
  RunMutants({doc}, 7001, 1500);
}

TEST(XmlMutationTest, TpcwExport) {
  auto tpcw = workload::BuildTpcw(
      workload::GenerateTpcw(workload::TpcwScale::Default().ScaledBy(0.01)),
      workload::SchemaKind::kMct);
  ASSERT_TRUE(tpcw.ok()) << tpcw.status();
  const std::string doc = ExportOf(tpcw->db.get());
  ASSERT_TRUE(serialize::ImportXml(doc).ok());
  RunMutants({doc}, 7002, 40);
}

TEST(XmlMutationTest, ParserCorpus) {
  std::vector<std::string> docs;
  for (const xml::ParseCase& c : xml::kXmlCorpus) docs.emplace_back(c.xml);
  docs.emplace_back(
      "<?xml version=\"1.0\"?>\n<!DOCTYPE mdb>\n<!-- prologue -->\n"
      "<mdb><!-- inner --><?proc data?><x a='1' b=\"&lt;2&gt;\"/></mdb>\n"
      "<!-- epilogue -->");
  RunMutants(docs, 7003, 150);
}

}  // namespace
}  // namespace mct
