#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/crc32c.h"
#include "common/rng.h"
#include "mct/snapshot.h"
#include "mct/xml_load.h"
#include "movie_fixture.h"
#include "schema_oracle.h"
#include "serialize/exchange.h"
#include "serialize/opt_serialize.h"
#include "serialize/schema.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace mct::serialize {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;
using testfix::ProjectionMatchesWalk;
using testfix::SameSchema;
using testfix::WalkInferSchema;

TEST(SchemaTest, BuildAndQuery) {
  MctSchema s;
  s.AddChild("red", "a", "b", '*');
  s.AddChild("green", "a", "c", '?');
  s.SetQuant("b", "red", 4);
  const ElementType* a = s.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->colors, (std::set<std::string>{"red", "green"}));
  EXPECT_EQ(s.Find("b")->colors, (std::set<std::string>{"red"}));
  EXPECT_DOUBLE_EQ(s.Quant("b", "red"), 4);
  EXPECT_DOUBLE_EQ(s.Quant("c", "green"), 1);  // default
  ASSERT_EQ(s.MultiColoredTypes().size(), 1u);
  EXPECT_EQ(s.MultiColoredTypes()[0]->name, "a");
  EXPECT_EQ(s.Find("zzz"), nullptr);
}

TEST(SchemaTest, AddChildIsIdempotent) {
  MctSchema s;
  s.AddChild("red", "a", "b");
  s.AddChild("red", "a", "b");
  EXPECT_EQ(s.Find("a")->productions.at("red").children.size(), 1u);
}

TEST(SchemaTest, InferFromMovieDb) {
  MovieDb f = BuildMovieDb();
  MctSchema s = InferSchema(*f.db);
  const ElementType* movie = s.Find("movie");
  ASSERT_NE(movie, nullptr);
  EXPECT_EQ(movie->colors, (std::set<std::string>{"red", "green"}));
  const ElementType* role = s.Find("movie-role");
  ASSERT_NE(role, nullptr);
  EXPECT_EQ(role->colors, (std::set<std::string>{"red", "blue"}));
  // movie's red production includes name and movie-role.
  const Production& red_prod = movie->productions.at("red");
  std::set<std::string> kids;
  for (const auto& c : red_prod.children) kids.insert(c.elem);
  EXPECT_TRUE(kids.contains("name"));
  EXPECT_TRUE(kids.contains("movie-role"));
  // quant(movie-role, red): 2 roles over 3 red movies.
  EXPECT_NEAR(s.Quant("movie-role", "red"), 2.0 / 3.0, 1e-9);
  // quant(votes, green): 2 votes over 2 green movies.
  EXPECT_NEAR(s.Quant("votes", "green"), 1.0, 1e-9);
}

// ---- InferSchema: projection of the maintained counts vs the walk ----

/// The projection equals the walk on `db`, and optSerialize picks the same
/// scheme from either schema.
void ExpectProjectionMatchesWalk(const MctDatabase& db) {
  const MctSchema projected = InferSchema(db);
  const MctSchema walked = WalkInferSchema(db);
  EXPECT_TRUE(SameSchema(projected, walked, db));
  auto a = OptSerialize(projected);
  auto b = OptSerialize(walked);
  ASSERT_EQ(a.ok(), b.ok());
  if (!a.ok()) return;
  EXPECT_EQ(a->primary, b->primary);
  EXPECT_EQ(a->expected_cost, b->expected_cost);
}

TEST(InferSchemaDifferentialTest, MovieTpcwAndSigmodMatchWalk) {
  using namespace workload;
  ExpectProjectionMatchesWalk(*BuildMovieDb().db);
  const TpcwData tpcw = GenerateTpcw(TpcwScale::Default().ScaledBy(0.05));
  const SigmodData sigmod = GenerateSigmod(SigmodScale::Default());
  for (SchemaKind kind :
       {SchemaKind::kMct, SchemaKind::kShallow, SchemaKind::kDeep}) {
    SCOPED_TRACE(SchemaKindName(kind));
    auto t = BuildTpcw(tpcw, kind);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectProjectionMatchesWalk(*t->db);
    auto g = BuildSigmod(sigmod, kind);
    ASSERT_TRUE(g.ok()) << g.status();
    ExpectProjectionMatchesWalk(*g->db);
  }
}

TEST(InferSchemaDifferentialTest, ProductionChildrenSortedByName) {
  MovieDb f = BuildMovieDb();
  const MctSchema schema = InferSchema(*f.db);
  for (const auto& [name, e] : schema.elements()) {
    for (const auto& [color, prod] : e.productions) {
      EXPECT_TRUE(std::is_sorted(
          prod.children.begin(), prod.children.end(),
          [](const ProductionChild& a, const ProductionChild& b) {
            return a.elem < b.elem;
          }))
          << name << " in " << color;
    }
  }
}

TEST(InferSchemaDifferentialTest, MutatedCloneMatchesWalkAndParentStays) {
  using namespace workload;
  auto t = BuildTpcw(GenerateTpcw(TpcwScale::Default().ScaledBy(0.05)),
                     SchemaKind::kMct);
  ASSERT_TRUE(t.ok()) << t.status();
  MctDatabase& parent = *t->db;
  const MctSchema before = InferSchema(parent);

  std::unique_ptr<MctDatabase> clone = parent.CowClone();
  // Inserts: a new type under every tenth customer, then a second color
  // for one of those nodes (a next-color constructor).
  std::vector<NodeId> customers = clone->TagScan(t->cust, "customer");
  ASSERT_GT(customers.size(), 20u);
  std::vector<NodeId> notes;
  for (size_t i = 0; i < customers.size(); i += 10) {
    auto n = clone->CreateElement(t->cust, customers[i], "note");
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_TRUE(clone->CreateElement(t->cust, *n, "line").ok());
    notes.push_back(*n);
  }
  NodeId order = clone->TagScan(t->date, "order").front();
  ASSERT_TRUE(clone->AddNodeColor(notes[0], t->date, order).ok());
  EXPECT_TRUE(ProjectionMatchesWalk(*clone));
  EXPECT_NE(clone->TagCount(t->date, "note"), 0u);

  // Failed detaches change nothing; successful ones drop whole subtrees
  // (an order with its orderlines) and the last member of a type.
  EXPECT_FALSE(clone->RemoveNodeColor(clone->document(), t->cust).ok());
  EXPECT_FALSE(clone->RemoveNodeColor(notes[1], t->date).ok());
  EXPECT_TRUE(ProjectionMatchesWalk(*clone));
  std::vector<NodeId> orders = clone->TagScan(t->cust, "order");
  for (size_t i = 0; i < orders.size(); i += 3) {
    ASSERT_TRUE(clone->RemoveNodeColor(orders[i], t->cust).ok());
  }
  ASSERT_TRUE(clone->RemoveNodeColor(notes[0], t->date).ok());
  EXPECT_TRUE(ProjectionMatchesWalk(*clone));
  EXPECT_EQ(clone->TagCount(t->date, "note"), 0u);
  EXPECT_EQ(InferSchema(*clone).Find("note")->colors,
            (std::set<std::string>{"cust"}));

  // The parent version never saw any of it.
  EXPECT_EQ(parent.TagCount(t->cust, "note"), 0u);
  EXPECT_EQ(InferSchema(parent).Find("note"), nullptr);
  EXPECT_TRUE(SameSchema(InferSchema(parent), before, parent));
  EXPECT_TRUE(ProjectionMatchesWalk(parent));
}

TEST(OptSerializeTest, SingleColorSchemaTrivial) {
  MctSchema s;
  s.AddChild("red", "a", "b");
  auto scheme = OptSerialize(s);
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->PrimaryOf("a"), "red");
  EXPECT_EQ(scheme->PrimaryOf("b"), "red");
  EXPECT_DOUBLE_EQ(scheme->expected_cost, 0);
}

TEST(OptSerializeTest, TwoColorSharedLeaf) {
  // x is red+green; serialized either way it pays 2 for the other
  // hierarchy's parent pointer.
  MctSchema s;
  s.AddChild("red", "r", "x");
  s.AddChild("green", "g", "x");
  EXPECT_DOUBLE_EQ(CostOf(s, "x", "red"), 2);
  EXPECT_DOUBLE_EQ(CostOf(s, "x", "green"), 2);
  auto scheme = OptSerialize(s);
  ASSERT_TRUE(scheme.ok());
  EXPECT_FALSE(scheme->primary.at("x").empty());
}

TEST(OptSerializeTest, QuantSkewsTheChoice) {
  // x is red+green; x has heavy green-only children, light red-only
  // children. Serializing x green keeps the heavy kids inline (no
  // annotation), so green must win.
  MctSchema s;
  s.AddChild("red", "r", "x");
  s.AddChild("green", "g", "x");
  s.AddChild("red", "x", "rkid");
  s.AddChild("green", "x", "gkid");
  s.SetQuant("rkid", "red", 1);
  s.SetQuant("gkid", "green", 50);
  double cost_red = CostOf(s, "x", "red");
  double cost_green = CostOf(s, "x", "green");
  // red: 2 (green pointer) + 50 gkids x 1 annotation + 0 rkid.
  EXPECT_DOUBLE_EQ(cost_red, 2 + 50);
  // green: 2 (red pointer) + 1 rkid x 1 annotation.
  EXPECT_DOUBLE_EQ(cost_green, 2 + 1);
  auto scheme = OptSerialize(s);
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->PrimaryOf("x"), "green");
  // Ranking keeps the loser second (the Section 5.3 fallback order).
  EXPECT_EQ(scheme->primary.at("x")[1], "red");
}

TEST(OptSerializeTest, ColorFlowsDownToChildren) {
  // Section 5.1: movie-role may take green as primary when movie chose
  // green, even though green is not a real color of movie-role. In cost
  // terms: a red+blue child under a green-primary parent can inline as
  // green, paying pointers for red AND blue but no extra annotation beyond
  // the flow-down one.
  MctSchema s;
  s.AddChild("red", "movie", "movie-role");
  s.AddChild("blue", "actor", "movie-role");
  s.AddChild("green", "award", "movie");
  s.AddChild("red", "genre", "movie");
  // cost(movie-role, green): 2 pointers x 2 colors = 4.
  EXPECT_DOUBLE_EQ(CostOf(s, "movie-role", "green"), 4);
  EXPECT_DOUBLE_EQ(CostOf(s, "movie-role", "red"), 2);
}

TEST(OptSerializeTest, RecursiveProductionTerminates) {
  MctSchema s;
  s.AddChild("red", "genre", "genre", '*');  // recursive hierarchy
  s.AddChild("red", "genre", "movie");
  s.AddChild("green", "award", "movie");
  auto scheme = OptSerialize(s);
  ASSERT_TRUE(scheme.ok());
  EXPECT_FALSE(scheme->PrimaryOf("movie").empty());
}

TEST(OptSerializeTest, Figure8MovieSchema) {
  MctSchema s = MovieSchemaOfFigure8();
  auto scheme = OptSerialize(s);
  ASSERT_TRUE(scheme.ok());
  // movie: red has 10 roles vs green's votes/category singletons; red
  // nesting avoids annotating the heavy role subtrees, so red wins.
  EXPECT_EQ(scheme->PrimaryOf("movie"), "red");
  // Every multi-colored type got a full ranking.
  EXPECT_EQ(scheme->primary.at("movie").size(), 2u);
  EXPECT_EQ(scheme->primary.at("movie-role").size(), 2u);
  EXPECT_GT(scheme->expected_cost, 0);
}

// Theorem 5.1 validation: on schemas satisfying the paper's assumptions
// (acyclic multi-colored types, one production context each), the DP's
// chosen assignment matches exhaustive enumeration.
class OptimalityProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(OptimalityProperty, DpMatchesBruteForce) {
  Rng rng(GetParam());
  // Random layered schema: 3 colors, layer of roots, layer of multi-colored
  // middles (each with a unique parent per color), layer of leaves.
  MctSchema s;
  const std::vector<std::string> colors{"c0", "c1", "c2"};
  int n_mid = static_cast<int>(rng.UniformInt(1, 3));
  for (int m = 0; m < n_mid; ++m) {
    std::string mid = "mid" + std::to_string(m);
    // Belongs to 2 or 3 hierarchies.
    int k = static_cast<int>(rng.UniformInt(2, 3));
    for (int c = 0; c < k; ++c) {
      s.AddChild(colors[static_cast<size_t>(c)],
                 "root" + colors[static_cast<size_t>(c)], mid);
      s.SetQuant(mid, colors[static_cast<size_t>(c)],
                 static_cast<double>(rng.UniformInt(1, 5)));
    }
    // Leaves under each color.
    int n_leaves = static_cast<int>(rng.UniformInt(0, 3));
    for (int l = 0; l < n_leaves; ++l) {
      std::string leaf = mid + "leaf" + std::to_string(l);
      std::string lc = colors[rng.Uniform(static_cast<uint64_t>(k))];
      s.AddChild(lc, mid, leaf);
      s.SetQuant(leaf, lc, static_cast<double>(rng.UniformInt(1, 20)));
    }
  }
  auto scheme = OptSerialize(s);
  ASSERT_TRUE(scheme.ok());
  double brute = BruteForceOptimalCost(s);
  EXPECT_NEAR(scheme->expected_cost, brute, 1e-9)
      << "DP assignment is not optimal";
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalityProperty,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- Exchange: export / import round trip ----

TEST(ExchangeTest, MovieDbRoundTrip) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "year", "1950").ok());
  MctSchema schema = InferSchema(*f.db);
  auto scheme = OptSerialize(schema);
  ASSERT_TRUE(scheme.ok());
  ExportStats stats;
  auto xml = ExportXml(f.db.get(), *scheme, &stats);
  ASSERT_TRUE(xml.ok()) << xml.status();
  EXPECT_GT(stats.elements, 20u);
  EXPECT_GT(stats.parent_pointers, 0u);  // multi-colored nodes exist
  auto imported = ImportXml(*xml);
  ASSERT_TRUE(imported.ok()) << imported.status();
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(*f.db, **imported, &why)) << why;
}

TEST(ExchangeTest, RoundTripPreservesLocalOrder) {
  MctDatabase db;
  ColorId a = *db.RegisterColor("a");
  ColorId b = *db.RegisterColor("b");
  NodeId pa = *db.CreateElement(a, db.document(), "pa");
  NodeId pb = *db.CreateElement(b, db.document(), "pb");
  // Children of pb in b interleave nodes whose primary will be a or b.
  std::vector<NodeId> kids;
  for (int i = 0; i < 6; ++i) {
    NodeId k = *db.CreateElement(b, pb, "k");
    ASSERT_TRUE(db.SetContent(k, "k" + std::to_string(i)).ok());
    kids.push_back(k);
    if (i % 2 == 0) {
      ASSERT_TRUE(db.AddNodeColor(k, a, pa).ok());
    }
  }
  MctSchema schema = InferSchema(db);
  // Force primary of k to be "a" so even-indexed kids nest under pa and
  // odd ones under pb: order under pb must still come back 0..5.
  SerializationScheme scheme;
  scheme.primary["k"] = {"a", "b"};
  scheme.primary["pa"] = {"a"};
  scheme.primary["pb"] = {"b"};
  auto xml = ExportXml(&db, scheme, nullptr);
  ASSERT_TRUE(xml.ok()) << xml.status();
  auto imported = ImportXml(*xml);
  ASSERT_TRUE(imported.ok()) << imported.status();
  MctDatabase& db2 = **imported;
  ColorId b2 = db2.LookupColor("b");
  NodeId pb2 = kInvalidNodeId;
  for (NodeId n : db2.tree(b2)->PreOrder()) {
    if (db2.Kind(n) == xml::NodeKind::kElement && db2.Tag(n) == "pb") {
      pb2 = n;
    }
  }
  ASSERT_NE(pb2, kInvalidNodeId);
  auto children = db2.Children(pb2, b2);
  ASSERT_EQ(children.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(db2.Content(children[static_cast<size_t>(i)]),
              "k" + std::to_string(i));
  }
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(db, db2, &why)) << why;
}

TEST(ExchangeTest, SingleColorDatabaseIsPlainNesting) {
  MctDatabase db;
  ColorId doc = *db.RegisterColor("doc");
  NodeId root = *db.CreateElement(doc, db.document(), "r");
  NodeId child = *db.CreateElement(doc, root, "c");
  ASSERT_TRUE(db.SetContent(child, "hi").ok());
  MctSchema schema = InferSchema(db);
  auto scheme = OptSerialize(schema);
  ASSERT_TRUE(scheme.ok());
  ExportStats stats;
  auto xml = ExportXml(&db, *scheme, &stats);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(stats.parent_pointers, 0u);
  EXPECT_EQ(stats.color_annotations, 0u);
  // No mct.ref anywhere.
  EXPECT_EQ(xml->find("mct.ref"), std::string::npos);
  auto imported = ImportXml(*xml);
  ASSERT_TRUE(imported.ok());
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(db, **imported, &why)) << why;
}

TEST(ExchangeTest, OptimalSchemeCostsNoMoreThanWorst) {
  MovieDb f = BuildMovieDb();
  MctSchema schema = InferSchema(*f.db);
  auto best = OptSerialize(schema);
  ASSERT_TRUE(best.ok());
  ExportStats best_stats;
  ASSERT_TRUE(ExportXml(f.db.get(), *best, &best_stats).ok());

  // Adversarial scheme: reverse every ranking.
  SerializationScheme worst = *best;
  for (auto& [_, ranked] : worst.primary) {
    std::reverse(ranked.begin(), ranked.end());
  }
  ExportStats worst_stats;
  ASSERT_TRUE(ExportXml(f.db.get(), worst, &worst_stats).ok());
  EXPECT_LE(best_stats.CostUnits(), worst_stats.CostUnits());
}

// ---- Exchange: the export text is pinned ----
//
// The exchange text is a contract with whoever reads it, so the writer may
// change only in ways that leave it byte-identical. The expected values
// below were recorded from the DOM-building exporter that preceded the
// streaming one.

struct PinnedExport {
  const char* dataset;
  bool reversed;  // optSerialize's ranking reversed per type
  uint32_t crc32c;
  size_t bytes;
  uint64_t parent_pointers;
  uint64_t color_annotations;
  uint64_t elements;
};

SerializationScheme ReversedScheme(SerializationScheme s) {
  for (auto& [_, ranked] : s.primary) {
    std::reverse(ranked.begin(), ranked.end());
  }
  return s;
}

TEST(ExchangeTest, WorkloadExportsArePinned) {
  using namespace workload;
  const PinnedExport kPinned[] = {
      {"tpcw", false, 1604999108u, 808557, 12512, 0, 7938},
      {"tpcw", true, 307602761u, 868215, 12512, 4004, 7938},
      {"sigmod", false, 110223099u, 5960, 75, 0, 94},
      {"sigmod", true, 2258170686u, 5920, 75, 0, 94},
  };
  auto tpcw = BuildTpcw(GenerateTpcw(TpcwScale::Default().ScaledBy(0.05)),
                        SchemaKind::kMct);
  ASSERT_TRUE(tpcw.ok()) << tpcw.status();
  auto sigmod =
      BuildSigmod(GenerateSigmod(SigmodScale::Default().ScaledBy(0.05)),
                  SchemaKind::kMct);
  ASSERT_TRUE(sigmod.ok()) << sigmod.status();
  for (const PinnedExport& pin : kPinned) {
    SCOPED_TRACE(std::string(pin.dataset) +
                 (pin.reversed ? " reversed" : " optSerialize"));
    MctDatabase* db = std::string(pin.dataset) == "tpcw" ? tpcw->db.get()
                                                         : sigmod->db.get();
    auto scheme = OptSerialize(InferSchema(*db));
    ASSERT_TRUE(scheme.ok());
    ExportStats stats;
    auto xml = ExportXml(
        db, pin.reversed ? ReversedScheme(*scheme) : *scheme, &stats);
    ASSERT_TRUE(xml.ok()) << xml.status();
    EXPECT_EQ(Crc32c(*xml), pin.crc32c);
    EXPECT_EQ(xml->size(), pin.bytes);
    EXPECT_EQ(stats.bytes, pin.bytes);
    EXPECT_EQ(stats.parent_pointers, pin.parent_pointers);
    EXPECT_EQ(stats.color_annotations, pin.color_annotations);
    EXPECT_EQ(stats.elements, pin.elements);
  }
}

TEST(ExchangeTest, MovieExportIsPinned) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "year", "1950").ok());
  ASSERT_TRUE(
      f.db->SetAttr(f.movie_eve, "note", "said \"fasten\" & <buckle>\nup")
          .ok());
  ASSERT_TRUE(f.db->SetContent(f.role_tramp, "a < b && c > d").ok());
  auto scheme = OptSerialize(InferSchema(*f.db));
  ASSERT_TRUE(scheme.ok());
  ExportStats stats;
  auto xml = ExportXml(f.db.get(), *scheme, &stats);
  ASSERT_TRUE(xml.ok()) << xml.status();
  EXPECT_EQ(
      *xml,
      "<mct-database colors=\"red green blue\">"
      "<movie-genre mct.pc=\"red\"><name>All</name>"
      "<movie-genre mct.id=\"3\"><name mct.pos.red=\"0\">Comedy</name>"
      "<movie-genre mct.pos.red=\"1\"><name>Slapstick</name>"
      "<movie mct.id=\"23\"><name mct.pos.red=\"0\">City Lights</name></movie>"
      "</movie-genre></movie-genre>"
      "<movie-genre mct.id=\"7\"><name mct.pos.red=\"0\">Drama</name>"
      "</movie-genre></movie-genre>"
      "<movie-award mct.pc=\"green\"><name>Oscar Best Movie</name>"
      "<movie-award><name>1950</name>"
      "<movie mct.id=\"20\" mct.ref.red=\"3\" mct.pos.red=\"2\" year=\"1950\" "
      "note=\"said &quot;fasten&quot; &amp; &lt;buckle&gt;&#10;up\">"
      "<name mct.ref.red=\"20\" mct.pos.red=\"0\">All About Eve</name>"
      "<votes>14</votes></movie>"
      "<movie mct.id=\"25\" mct.ref.red=\"7\" mct.pos.red=\"1\">"
      "<name mct.ref.red=\"25\" mct.pos.red=\"0\">Sunset Boulevard</name>"
      "<votes>8</votes></movie></movie-award>"
      "<movie-award><name>1951</name></movie-award></movie-award>"
      "<actors mct.pc=\"blue\"><actor><name>Bette Davis</name>"
      "<movie-role mct.id=\"28\" mct.ref.red=\"20\" mct.pos.red=\"1\">"
      "<name mct.ref.red=\"28\" mct.pos.red=\"0\">Margo</name></movie-role>"
      "</actor><actor><name>Charlie Chaplin</name>"
      "<movie-role mct.id=\"30\" mct.ref.red=\"23\" mct.pos.red=\"1\">"
      "a &lt; b &amp;&amp; c &gt; d"
      "<name mct.ref.red=\"30\" mct.pos.red=\"0\">Tramp</name></movie-role>"
      "</actor></actors></mct-database>");
  EXPECT_EQ(stats.bytes, xml->size());
  EXPECT_EQ(stats.parent_pointers, 8u);
  EXPECT_EQ(stats.color_annotations, 0u);
  EXPECT_EQ(stats.elements, 31u);
}

// CRC32C over every node in id order (tag, content, colors, attributes)
// and over each colored tree's pre-order of ids, so two databases with one
// fingerprint also number their nodes alike (a snapshot renumbers them).
uint32_t NodeIdFingerprint(const MctDatabase& db) {
  std::string s;
  for (NodeId n = 0; n < db.store().size(); ++n) {
    s += db.Tag(n) + '\0' + db.Content(n) + '\0' +
         std::to_string(db.Colors(n).mask());
    for (const NodeAttr& a : db.Attrs(n)) {
      s += ' ' + db.store().names().Name(a.name) + '=' + a.value + '\0';
    }
    s += '\n';
  }
  for (ColorId c = 0; c < db.num_colors(); ++c) {
    for (NodeId n : db.tree(c)->PreOrder()) s += std::to_string(n) + ' ';
    s += '\n';
  }
  return Crc32c(s);
}

// ImportXml builds one exact database from a text: the snapshot of each
// imported export (trailer CRC32C and size) and its node ids are pinned.
TEST(ExchangeTest, ImportedSnapshotsArePinned) {
  using namespace workload;
  struct Pin {
    const char* dataset;
    uint32_t crc32c;
    uint64_t bytes;
    uint32_t ids;
  };
  const Pin kPinned[] = {
      {"tpcw", 2001636615u, 486674, 2691010383u},
      {"movie", 778111191u, 1086, 1733275175u},
  };
  auto tpcw = BuildTpcw(GenerateTpcw(TpcwScale::Default().ScaledBy(0.05)),
                        SchemaKind::kMct);
  ASSERT_TRUE(tpcw.ok()) << tpcw.status();
  MovieDb movie = BuildMovieDb();
  const std::string path = testing::TempDir() + "/imported_pinned.snap";
  for (const Pin& pin : kPinned) {
    SCOPED_TRACE(pin.dataset);
    MctDatabase* db = std::string(pin.dataset) == "tpcw" ? tpcw->db.get()
                                                         : movie.db.get();
    auto scheme = OptSerialize(InferSchema(*db));
    ASSERT_TRUE(scheme.ok());
    auto xml = ExportXml(db, *scheme);
    ASSERT_TRUE(xml.ok()) << xml.status();
    auto imported = ImportXml(*xml);
    ASSERT_TRUE(imported.ok()) << imported.status();
    ASSERT_TRUE(SaveSnapshot(**imported, path).ok());
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 4u);
    EXPECT_EQ(Crc32c(std::string_view(bytes).substr(0, bytes.size() - 4)),
              pin.crc32c);
    EXPECT_EQ(bytes.size(), pin.bytes);
    EXPECT_EQ(NodeIdFingerprint(**imported), pin.ids);
  }
  std::filesystem::remove(path);
}

// A cross-color nesting cycle: x's primary parent is y (in a) and y's is x
// (in b), so neither is reachable from the document by primary nesting.
// The first of them in color order is orphaned: it is written at top level
// with a parent pointer for every color, and the rest nests below it.
TEST(ExchangeTest, NestingCycleIsOrphanedAndRoundTrips) {
  MctDatabase db;
  ColorId a = *db.RegisterColor("a");
  ColorId b = *db.RegisterColor("b");
  NodeId y = *db.CreateElement(a, db.document(), "y");
  NodeId x = *db.CreateElement(a, y, "x");
  ASSERT_TRUE(db.AddNodeColor(x, b, db.document()).ok());
  ASSERT_TRUE(db.AddNodeColor(y, b, x).ok());
  ASSERT_TRUE(db.SetContent(y, "why").ok());
  SerializationScheme scheme;
  scheme.primary["x"] = {"a", "b"};
  scheme.primary["y"] = {"b", "a"};
  ExportStats stats;
  auto xml = ExportXml(&db, scheme, &stats);
  ASSERT_TRUE(xml.ok()) << xml.status();
  EXPECT_EQ(*xml,
            "<mct-database colors=\"a b\">"
            "<y mct.pc=\"b\" mct.orphan=\"1\" mct.ref.a=\"doc\" mct.pos.a=\"0\" "
            "mct.ref.b=\"2\" mct.pos.b=\"0\">why"
            "<x mct.id=\"2\" mct.pc=\"a\" mct.ref.b=\"doc\" mct.pos.b=\"0\"/>"
            "</y></mct-database>");
  EXPECT_EQ(stats.parent_pointers, 3u);
  EXPECT_EQ(stats.color_annotations, 1u);
  EXPECT_EQ(stats.elements, 2u);
  auto imported = ImportXml(*xml);
  ASSERT_TRUE(imported.ok()) << imported.status();
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(db, **imported, &why)) << why;
}

// The format reserves attribute names starting with "mct.", so a user
// attribute with such a name (plain-XML ingestion accepts one) is refused
// by export rather than written as text its own importer would refuse or
// misread.
TEST(ExchangeTest, ExportRefusesReservedAttributeNames) {
  struct Case {
    const char* xml;
    const char* attr;
  };
  for (const Case& c : {Case{"<r><a mct.pc=\"zzz\">x</a></r>", "mct.pc"},
                        Case{"<r><a mct.ref.red=\"doc\"/></r>", "mct.ref.red"},
                        Case{"<r><a mct.id=\"7\"/></r>", "mct.id"}}) {
    SCOPED_TRACE(c.xml);
    MctDatabase db;
    ColorId red = *db.RegisterColor("red");
    ASSERT_TRUE(LoadXmlText(&db, red, c.xml).ok());
    auto xml = ExportXml(&db, SerializationScheme{}, nullptr);
    ASSERT_FALSE(xml.ok());
    EXPECT_TRUE(xml.status().IsInvalidArgument()) << xml.status();
    EXPECT_NE(xml.status().message().find("node 2 <a>"), std::string::npos)
        << xml.status();
    EXPECT_NE(xml.status().message().find(std::string("'") + c.attr + "'"),
              std::string::npos)
        << xml.status();
  }
  // A name that merely contains "mct." is the user's.
  MctDatabase db;
  ColorId red = *db.RegisterColor("red");
  ASSERT_TRUE(LoadXmlText(&db, red, "<r><a x.mct.id=\"7\"/></r>").ok());
  auto xml = ExportXml(&db, SerializationScheme{}, nullptr);
  ASSERT_TRUE(xml.ok()) << xml.status();
  auto imported = ImportXml(*xml);
  ASSERT_TRUE(imported.ok()) << imported.status();
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(db, **imported, &why)) << why;
}

TEST(ExchangeTest, ImportRejectsGarbage) {
  EXPECT_FALSE(ImportXml("<not-mct/>").ok());
  EXPECT_FALSE(ImportXml("no xml at all").ok());
  EXPECT_FALSE(ImportXml("<mct-database/>").ok());  // no colors attr
  EXPECT_FALSE(ImportXml("<mct-database colors=\"a\">"
                         "<x mct.pc=\"zzz\"/></mct-database>")
                   .ok());
  EXPECT_FALSE(ImportXml("<mct-database colors=\"a b\">"
                         "<x mct.pc=\"a\" mct.ref.b=\"77\"/></mct-database>")
                   .ok());  // dangling ref
  // Export ids are decimal integers.
  EXPECT_TRUE(ImportXml("<mct-database colors=\"a b\"><x mct.pc=\"a\" "
                        "mct.id=\"x1\"/><y mct.pc=\"a\" mct.ref.b=\"x1\"/>"
                        "</mct-database>")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(ImportXml("<mct-database colors=\"a b\"><x mct.pc=\"a\" "
                        "mct.id=\"1\"/><y mct.pc=\"a\" mct.ref.b=\"1x\"/>"
                        "</mct-database>")
                  .status()
                  .IsCorruption());
  // Malformed text is a ParseError whatever else is wrong with it.
  EXPECT_TRUE(ImportXml("<mct-database colors=\"a\"><x mct.pc=\"zzz\"/>")
                  .status()
                  .IsParseError());
}

// Randomized round-trip property over arbitrary multi-colored databases.
class ExchangeRoundTrip : public testing::TestWithParam<uint64_t> {};

TEST_P(ExchangeRoundTrip, RandomDatabasesSurviveRoundTrip) {
  Rng rng(GetParam());
  MctDatabase db;
  std::vector<ColorId> colors;
  for (int i = 0; i < 3; ++i) {
    colors.push_back(*db.RegisterColor("c" + std::to_string(i)));
  }
  std::vector<std::vector<NodeId>> members(3, {db.document()});
  std::vector<NodeId> all;
  for (int step = 0; step < 300; ++step) {
    size_t ci = rng.Uniform(3);
    NodeId parent = members[ci][rng.Uniform(members[ci].size())];
    if (!all.empty() && rng.Bernoulli(0.25)) {
      NodeId n = all[rng.Uniform(all.size())];
      if (!db.Colors(n).Has(colors[ci]) && parent != n) {
        if (db.AddNodeColor(n, colors[ci], parent).ok()) {
          members[ci].push_back(n);
        }
      }
    } else {
      auto n = db.CreateElement(colors[ci], parent,
                                "t" + std::to_string(rng.Uniform(4)));
      ASSERT_TRUE(n.ok());
      members[ci].push_back(*n);
      all.push_back(*n);
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(db.SetContent(*n, rng.Word(1, 12)).ok());
      }
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(db.SetAttr(*n, "a" + std::to_string(rng.Uniform(3)),
                               rng.Word(1, 8))
                        .ok());
      }
    }
  }
  ExpectProjectionMatchesWalk(db);
  MctSchema schema = InferSchema(db);
  auto scheme = OptSerialize(schema);
  ASSERT_TRUE(scheme.ok());
  auto xml = ExportXml(&db, *scheme, nullptr);
  ASSERT_TRUE(xml.ok()) << xml.status();
  auto imported = ImportXml(*xml);
  ASSERT_TRUE(imported.ok()) << imported.status();
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(db, **imported, &why)) << why;
  EXPECT_TRUE(ProjectionMatchesWalk(**imported));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExchangeRoundTrip,
                         testing::Values(101u, 102u, 103u, 104u, 105u));

}  // namespace
}  // namespace mct::serialize
