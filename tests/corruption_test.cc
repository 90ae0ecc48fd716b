// Corrupt-input robustness: truncated and bit-flipped snapshots and
// malformed exchange XML must come back as clean Status errors — never a
// crash, hang, or multi-gigabyte allocation. Since MCTSNAP2 carries a
// whole-file CRC32C trailer, *every* single-bit flip and truncation must be
// rejected outright.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "mct/snapshot.h"
#include "mct/validate.h"
#include "mct/xml_load.h"
#include "movie_fixture.h"
#include "serialize/exchange.h"
#include "xml/parser.h"

namespace mct {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A good snapshot of the Figure 2 movie database, written once per test.
std::vector<char> GoodSnapshotBytes() {
  MovieDb f = BuildMovieDb();
  std::string path = TempPath("good.snap");
  EXPECT_TRUE(SaveSnapshot(*f.db, path).ok());
  std::vector<char> bytes = ReadAll(path);
  EXPECT_GT(bytes.size(), 16u);
  std::filesystem::remove(path);
  return bytes;
}

// A multi-page snapshot (hundreds of extra movies), so 1KiB-granular
// truncation sweeps cross many internal section boundaries.
std::vector<char> BigSnapshotBytes() {
  MovieDb f = BuildMovieDb();
  MctDatabase& db = *f.db;
  for (int i = 0; i < 400; ++i) {
    NodeId m = testfix::MustCreate(db, f.red, f.genre_drama, "movie");
    testfix::MustCreate(db, f.red, m, "name",
                        "Filler Movie #" + std::to_string(i));
    testfix::MustCreate(db, f.red, m, "year",
                        std::to_string(1900 + i % 100));
  }
  std::string path = TempPath("big.snap");
  EXPECT_TRUE(SaveSnapshot(db, path).ok());
  std::vector<char> bytes = ReadAll(path);
  EXPECT_GT(bytes.size(), 8u * 1024u);  // the sweep needs several KiB
  std::filesystem::remove(path);
  return bytes;
}

TEST(CorruptionTest, TruncatedSnapshotsFailCleanly) {
  std::vector<char> good = GoodSnapshotBytes();
  std::string path = TempPath("trunc.snap");
  // Every prefix length in a coarse sweep, plus the boundary cases.
  std::vector<size_t> lengths = {0, 1, 7, 8, 9, 11, 12, good.size() - 1};
  for (size_t step = 16; step < good.size(); step += 16) {
    lengths.push_back(step);
  }
  for (size_t len : lengths) {
    WriteAll(path, std::vector<char>(good.begin(),
                                     good.begin() + static_cast<long>(len)));
    auto loaded = OpenSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
  }
  std::filesystem::remove(path);
}

TEST(CorruptionTest, TruncationAtEveryKilobyteBoundaryIsRejected) {
  std::vector<char> good = BigSnapshotBytes();
  std::string path = TempPath("ktrunc.snap");
  size_t cases = 0;
  for (size_t len = 0; len < good.size(); len += 1024) {
    // The 1KiB grid plus the off-by-one lengths around each boundary.
    for (size_t delta : {size_t{0}, size_t{1}}) {
      size_t n = len + delta;
      if (n >= good.size()) continue;
      WriteAll(path,
               std::vector<char>(good.begin(),
                                 good.begin() + static_cast<long>(n)));
      auto loaded = OpenSnapshot(path);
      EXPECT_FALSE(loaded.ok()) << "prefix of " << n << " bytes loaded";
      EXPECT_FALSE(loaded.status().message().empty());
      ++cases;
    }
  }
  // And one byte short of complete — the tightest torn write.
  WriteAll(path, std::vector<char>(good.begin(), good.end() - 1));
  EXPECT_FALSE(OpenSnapshot(path).ok());
  EXPECT_GT(cases, 16u);
  std::filesystem::remove(path);
}

TEST(CorruptionTest, BitFlippedSnapshotsAreAllRejected) {
  std::vector<char> good = GoodSnapshotBytes();
  std::string path = TempPath("flip.snap");
  // The CRC32C trailer covers the whole file, so every single-bit flip —
  // header, body, or the trailer itself — must be rejected with a clean
  // Status, not loaded as a subtly different database.
  for (size_t off = 0; off < good.size(); ++off) {
    std::vector<char> bad = good;
    bad[off] = static_cast<char>(bad[off] ^ (1 << (off % 8)));
    WriteAll(path, bad);
    auto loaded = OpenSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << off << " loaded";
  }
  std::filesystem::remove(path);
}

TEST(CorruptionTest, EveryHeaderFieldBitFlipIsRejected) {
  std::vector<char> good = GoodSnapshotBytes();
  std::string path = TempPath("hdrflip.snap");
  // Exhaustive over the header: magic (8) + format version (4) + LSN stamp
  // (8), every bit of every field.
  size_t header_bytes = 8 + 4 + 8;
  ASSERT_LT(header_bytes, good.size());
  for (size_t off = 0; off < header_bytes; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> bad = good;
      bad[off] = static_cast<char>(bad[off] ^ (1 << bit));
      WriteAll(path, bad);
      auto loaded = OpenSnapshot(path);
      ASSERT_FALSE(loaded.ok())
          << "header flip at byte " << off << " bit " << bit << " loaded";
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
  std::filesystem::remove(path);
}

TEST(CorruptionTest, LegacyV1SnapshotIsRejectedAsUnchecksummed) {
  std::vector<char> good = GoodSnapshotBytes();
  std::vector<char> v1 = good;
  v1[7] = '1';  // MCTSNAP2 -> MCTSNAP1
  std::string path = TempPath("v1.snap");
  WriteAll(path, v1);
  auto loaded = OpenSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  std::filesystem::remove(path);
}

// A hand-crafted MCTSNAP2 image around `body`, with a *correct* CRC32C
// trailer — so the reader's allocation caps are exercised past the checksum.
std::vector<char> CraftedV2Snapshot(const std::vector<char>& body) {
  std::string image = "MCTSNAP2";
  uint32_t version = 2;
  uint64_t lsn = 0;
  image.append(reinterpret_cast<const char*>(&version), 4);
  image.append(reinterpret_cast<const char*>(&lsn), 8);
  image.append(body.data(), body.size());
  uint32_t crc = Crc32c(image.data(), image.size());
  image.append(reinterpret_cast<const char*>(&crc), 4);
  return std::vector<char>(image.begin(), image.end());
}

TEST(CorruptionTest, HugeNodeCountIsRejectedBeforeAllocation) {
  // ncolors=0 + nnodes=0xFFFFFFFF behind a valid checksum: must be
  // Corruption, not an attempted 4-billion-node pre-allocation.
  std::vector<char> body;
  for (int i = 0; i < 4; ++i) body.push_back(0);  // ncolors = 0
  for (int i = 0; i < 4; ++i) body.push_back('\xFF');  // nnodes
  std::string path = TempPath("huge.snap");
  WriteAll(path, CraftedV2Snapshot(body));
  auto loaded = OpenSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  std::filesystem::remove(path);
}

TEST(CorruptionTest, HugeStringLengthIsRejectedBeforeAllocation) {
  // ncolors=1 + color-name length 0xFFFFFFFF behind a valid checksum.
  std::vector<char> body;
  body.push_back(1);
  for (int i = 0; i < 3; ++i) body.push_back(0);  // ncolors = 1
  for (int i = 0; i < 4; ++i) body.push_back('\xFF');  // name length
  std::string path = TempPath("hugestr.snap");
  WriteAll(path, CraftedV2Snapshot(body));
  auto loaded = OpenSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  std::filesystem::remove(path);
}

TEST(CorruptionTest, WrongMagicIsRejected) {
  std::string path = TempPath("magic.snap");
  WriteAll(path, {'N', 'O', 'T', 'S', 'N', 'A', 'P', '1', 0, 0, 0, 0});
  auto loaded = OpenSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  std::filesystem::remove(path);
}

TEST(CorruptionTest, MalformedExchangeXmlIsAStatusNotACrash) {
  const char* inputs[] = {
      "",
      "not xml at all",
      "<unclosed>",
      "<a><b></a></b>",            // mismatched nesting
      "<a attr=></a>",             // broken attribute
      "<a>&bogus;</a>",            // undefined entity
      "<?xml version=\"1.0\"?>",   // prolog only
      "<a xmlns:mct=\"urn:mct\"><mct:node/></a>",  // dangling exchange markup
  };
  for (const char* xml : inputs) {
    auto db = serialize::ImportXml(xml);
    // Whatever the verdict, it must arrive as a Result, and a success must
    // be a consistent database.
    if (db.ok()) {
      ValidationReport report = ValidateDatabase(**db);
      EXPECT_TRUE(report.ok()) << "input: " << xml << "\n" << report.ToString();
    }
  }
}

TEST(CorruptionTest, ExchangeRoundTripSurvivesTruncation) {
  // Truncating serialized exchange XML mid-document must never crash the
  // importer.
  MovieDb f = BuildMovieDb();
  serialize::MctSchema schema = serialize::InferSchema(*f.db);
  auto scheme = serialize::OptSerialize(schema);
  ASSERT_TRUE(scheme.ok()) << scheme.status();
  auto xml = serialize::ExportXml(f.db.get(), *scheme);
  ASSERT_TRUE(xml.ok()) << xml.status();
  for (size_t len = 0; len < xml->size(); len += 37) {
    auto db = serialize::ImportXml(xml->substr(0, len));
    if (db.ok()) {
      ValidationReport report = ValidateDatabase(**db);
      EXPECT_TRUE(report.ok()) << "truncated at " << len;
    }
  }
}

// `depth` nested <a> elements around `body`.
std::string NestedA(size_t depth, const std::string& body = "") {
  std::string s;
  for (size_t i = 0; i < depth; ++i) s += "<a>";
  s += body;
  for (size_t i = 0; i < depth; ++i) s += "</a>";
  return s;
}

// An exchange document whose elements nest `depth` levels, the
// <mct-database> wrapper included: a chain of <a> in color "red".
std::string NestedExchange(size_t depth) {
  return "<mct-database colors=\"red\"><a mct.pc=\"red\">" +
         NestedA(depth - 2) + "</a></mct-database>";
}

// LoadXmlElement recurses once per element level over the parsed DOM, and
// the parser's depth cap is what bounds it: at the cap it loads a
// consistent chain and the database tears down; past it, it refuses with a
// ParseError and the process keeps running. ImportXml reads the text
// through the pull tokenizer without recursing, so it imports a chain at
// the cap, past it and a million levels deep, and the database tears down.
TEST(CorruptionTest, XmlNestedPastTheDepthCapIsRefused) {
  const size_t cap = xml::kMaxDepth;
  {
    MctDatabase db;
    ColorId c = *db.RegisterColor("doc");
    auto root = LoadXmlText(&db, c, NestedA(cap, "leaf"));
    ASSERT_TRUE(root.ok()) << root.status();
    EXPECT_EQ(db.TagScan(c, "a").size(), cap);
    EXPECT_TRUE(ValidateDatabase(db).ok());
  }
  {
    auto db = serialize::ImportXml(NestedExchange(cap));
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ((*db)->TagScan((*db)->LookupColor("red"), "a").size(), cap - 1);
    EXPECT_TRUE(ValidateDatabase(**db).ok());
  }
  MctDatabase db;
  ColorId c = *db.RegisterColor("doc");
  for (size_t depth : {cap + 1, size_t{1000000}}) {
    auto root = LoadXmlText(&db, c, NestedA(depth));
    ASSERT_FALSE(root.ok()) << depth;
    EXPECT_TRUE(root.status().IsParseError()) << root.status();
    auto imported = serialize::ImportXml(NestedExchange(depth));
    ASSERT_TRUE(imported.ok()) << depth << ": " << imported.status();
    const ColorId red = (*imported)->LookupColor("red");
    EXPECT_EQ((*imported)->TagScan(red, "a").size(), depth - 1) << depth;
    EXPECT_EQ((*imported)->tree(red)->size(), depth) << depth;
    imported->reset();  // tears the chain down
  }
}

}  // namespace
}  // namespace mct
