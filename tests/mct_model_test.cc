#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "mct/color.h"
#include "mct/database.h"
#include "mct/snapshot.h"
#include "movie_fixture.h"
#include "serialize/exchange.h"
#include "serialize/opt_serialize.h"
#include "serialize/schema.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace mct {
namespace {

using testfix::BuildMovieDb;
using testfix::MovieDb;
using testfix::MustCreate;

TEST(ColorSetTest, BasicOps) {
  ColorSet s;
  EXPECT_TRUE(s.empty());
  s.Add(0);
  s.Add(5);
  s.Add(63);
  EXPECT_EQ(s.count(), 3);
  EXPECT_TRUE(s.Has(5));
  EXPECT_FALSE(s.Has(6));
  s.Remove(5);
  EXPECT_FALSE(s.Has(5));
  EXPECT_EQ(s.ToVector(), (std::vector<ColorId>{0, 63}));
  EXPECT_EQ(ColorSet::Of(3).Union(ColorSet::Of(7)).count(), 2);
  EXPECT_EQ(ColorSet::Of(3).Intersect(ColorSet::Of(7)).count(), 0);
  EXPECT_EQ(ColorSet::Of(3).Intersect(ColorSet::Of(3)), ColorSet::Of(3));
}

TEST(ColorRegistryTest, RegisterAndLookup) {
  ColorRegistry reg;
  auto red = reg.Register("red");
  auto green = reg.Register("green");
  ASSERT_TRUE(red.ok());
  ASSERT_TRUE(green.ok());
  EXPECT_NE(*red, *green);
  EXPECT_EQ(*reg.Register("red"), *red);  // idempotent
  EXPECT_EQ(reg.Lookup("green"), *green);
  EXPECT_EQ(reg.Lookup("mauve"), kInvalidColorId);
  EXPECT_EQ(reg.Name(*red), "red");
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ColorRegistryTest, PaletteLimit) {
  ColorRegistry reg;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(reg.Register("c" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(reg.Register("one-too-many").status().IsOutOfRange());
}

// ---- Definition 3.2: MCT database structure ----

TEST(MctDatabaseTest, DocumentNodeCarriesAllColors) {
  MovieDb f = BuildMovieDb();
  ColorSet doc_colors = f.db->Colors(f.db->document());
  EXPECT_TRUE(doc_colors.Has(f.red));
  EXPECT_TRUE(doc_colors.Has(f.green));
  EXPECT_TRUE(doc_colors.Has(f.blue));
  // Document node is the root of every colored tree.
  for (ColorId c : {f.red, f.green, f.blue}) {
    EXPECT_EQ(f.db->tree(c)->root(), f.db->document());
  }
}

TEST(MctDatabaseTest, MultiColoredNodeIsOneIdentity) {
  MovieDb f = BuildMovieDb();
  // movie_eve participates in red and green with a single NodeId; its
  // content/attrs are stored once (paper Section 2.1: "a node is stored
  // once ... irrespective of how many colored trees it participates in").
  EXPECT_TRUE(f.db->Colors(f.movie_eve).Has(f.red));
  EXPECT_TRUE(f.db->Colors(f.movie_eve).Has(f.green));
  EXPECT_EQ(f.db->Colors(f.movie_eve).count(), 2);
  EXPECT_TRUE(f.db->tree(f.red)->Contains(f.movie_eve));
  EXPECT_TRUE(f.db->tree(f.green)->Contains(f.movie_eve));
  EXPECT_FALSE(f.db->tree(f.blue)->Contains(f.movie_eve));
}

TEST(MctDatabaseTest, SingleColorMovie) {
  MovieDb f = BuildMovieDb();
  EXPECT_EQ(f.db->Colors(f.movie_lights).count(), 1);
  EXPECT_TRUE(f.db->Colors(f.movie_lights).Has(f.red));
}

// ---- Section 3.2: color-aware accessors ----

TEST(AccessorTest, ParentDependsOnColor) {
  MovieDb f = BuildMovieDb();
  // Figure 2: movie RG012 has two parents — a movie-genre node in red and a
  // movie-award node in green.
  EXPECT_EQ(f.db->Parent(f.movie_eve, f.red), f.genre_comedy);
  EXPECT_EQ(f.db->Parent(f.movie_eve, f.green), f.award_1950);
  // Color-incompatible access returns the empty sequence.
  EXPECT_FALSE(f.db->Parent(f.movie_eve, f.blue).has_value());
}

TEST(AccessorTest, ChildrenDependOnColor) {
  MovieDb f = BuildMovieDb();
  auto red_children = f.db->Children(f.movie_eve, f.red);
  auto green_children = f.db->Children(f.movie_eve, f.green);
  // Red: name + movie-role. Green: name + votes.
  ASSERT_EQ(red_children.size(), 2u);
  EXPECT_EQ(f.db->Tag(red_children[0]), "name");
  EXPECT_EQ(f.db->Tag(red_children[1]), "movie-role");
  ASSERT_EQ(green_children.size(), 2u);
  EXPECT_EQ(f.db->Tag(green_children[0]), "name");
  EXPECT_EQ(f.db->Tag(green_children[1]), "votes");
  EXPECT_TRUE(f.db->Children(f.movie_eve, f.blue).empty());
}

TEST(AccessorTest, StringValueDependsOnColor) {
  MovieDb f = BuildMovieDb();
  // Green subtree of Eve includes votes; red subtree includes the role name.
  auto red_sv = f.db->StringValue(f.movie_eve, f.red);
  auto green_sv = f.db->StringValue(f.movie_eve, f.green);
  ASSERT_TRUE(red_sv.has_value());
  ASSERT_TRUE(green_sv.has_value());
  EXPECT_EQ(*red_sv, "All About EveMargo");
  EXPECT_EQ(*green_sv, "All About Eve14");
  EXPECT_FALSE(f.db->StringValue(f.movie_eve, f.blue).has_value());
}

TEST(AccessorTest, TypedValueParsesNumbers) {
  MovieDb f = BuildMovieDb();
  auto votes = f.db->Children(f.movie_eve, f.green)[1];
  auto tv = f.db->TypedValue(votes, f.green);
  ASSERT_TRUE(tv.has_value());
  EXPECT_DOUBLE_EQ(*tv, 14.0);
  // Non-numeric string value -> nullopt inner optional collapses to nullopt.
  auto name = f.db->Children(f.movie_eve, f.red)[0];
  EXPECT_FALSE(f.db->TypedValue(name, f.red).has_value());
}

TEST(AccessorTest, ColorsAccessor) {
  MovieDb f = BuildMovieDb();
  EXPECT_EQ(f.db->Colors(f.role_margo).ToVector(),
            (std::vector<ColorId>{f.red, f.blue}));
}

// ---- Section 3.3: constructors ----

TEST(ConstructorTest, FirstColorCreatesFreshIdentity) {
  MovieDb f = BuildMovieDb();
  auto m1 = f.db->CreateElement(f.red, f.genre_drama, "movie");
  auto m2 = f.db->CreateElement(f.red, f.genre_drama, "movie");
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_NE(*m1, *m2);
  EXPECT_EQ(f.db->Colors(*m1).count(), 1);
}

TEST(ConstructorTest, NextColorPreservesIdentity) {
  MovieDb f = BuildMovieDb();
  auto m = f.db->CreateElement(f.red, f.genre_drama, "movie");
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(f.db->AddNodeColor(*m, f.green, f.award_1951).ok());
  EXPECT_EQ(f.db->Colors(*m).count(), 2);
  EXPECT_EQ(f.db->Parent(*m, f.green), f.award_1951);
  EXPECT_EQ(f.db->Parent(*m, f.red), f.genre_drama);
}

TEST(ConstructorTest, CycleAcrossColorsIsAllowed) {
  // Section 3.3: "element node n1 may be a child of element node n2 in one
  // color, but a parent in a different color".
  MctDatabase db;
  ColorId c1 = *db.RegisterColor("c1");
  ColorId c2 = *db.RegisterColor("c2");
  NodeId a = *db.CreateElement(c1, db.document(), "a");
  NodeId b = *db.CreateElement(c1, a, "b");  // a over b in c1
  ASSERT_TRUE(db.AddNodeColor(b, c2, db.document()).ok());
  ASSERT_TRUE(db.AddNodeColor(a, c2, b).ok());  // b over a in c2
  EXPECT_EQ(db.Parent(b, c1), a);
  EXPECT_EQ(db.Parent(a, c2), b);
}

TEST(ConstructorTest, DuplicateInSameTreeIsRejected) {
  MovieDb f = BuildMovieDb();
  // movie_eve is already red under genre_comedy; adding red again anywhere
  // must fail (a node occurs at most once per colored tree).
  Status s = f.db->AddNodeColor(f.movie_eve, f.red, f.genre_drama);
  EXPECT_TRUE(s.IsAlreadyExists());
}

TEST(ConstructorTest, FreeElementHasNoColors) {
  MovieDb f = BuildMovieDb();
  auto n = f.db->CreateFreeElement("m-name");
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(f.db->Colors(*n).empty());
  EXPECT_FALSE(f.db->Parent(*n, f.red).has_value());
}

TEST(ConstructorTest, AttachUnderMissingParentFails) {
  MovieDb f = BuildMovieDb();
  // actors_root is not in the red tree.
  auto n = f.db->CreateFreeElement("x");
  EXPECT_TRUE(f.db->AddNodeColor(*n, f.red, f.actors_root).IsNotFound());
  EXPECT_TRUE(f.db->AddNodeColor(*n, 42, f.genre_root).IsInvalidArgument());
}

// ---- Content, attributes, indexes ----

TEST(PayloadTest, ContentStoredOncePerNode) {
  MovieDb f = BuildMovieDb();
  NodeId name = f.db->Children(f.movie_eve, f.red)[0];
  EXPECT_EQ(f.db->Content(name), "All About Eve");
  // The same node reached through green yields the same content object.
  NodeId name_g = f.db->Children(f.movie_eve, f.green)[0];
  EXPECT_EQ(name, name_g);
}

TEST(PayloadTest, AttrsRoundTrip) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "id", "m1").ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "year", "1950").ok());
  EXPECT_EQ(*f.db->FindAttr(f.movie_eve, "id"), "m1");
  EXPECT_EQ(*f.db->FindAttr(f.movie_eve, "year"), "1950");
  EXPECT_EQ(f.db->FindAttr(f.movie_eve, "nope"), nullptr);
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "id", "m9").ok());  // overwrite
  EXPECT_EQ(*f.db->FindAttr(f.movie_eve, "id"), "m9");
  EXPECT_EQ(f.db->Attrs(f.movie_eve).size(), 2u);
}

TEST(IndexTest, TagScanReturnsLocalOrder) {
  MovieDb f = BuildMovieDb();
  auto genres = f.db->TagScan(f.red, "movie-genre");
  ASSERT_EQ(genres.size(), 4u);
  // Pre-order of the red tree: All, Comedy, Slapstick, Drama.
  EXPECT_EQ(genres[0], f.genre_root);
  EXPECT_EQ(genres[1], f.genre_comedy);
  EXPECT_EQ(genres[2], f.genre_slapstick);
  EXPECT_EQ(genres[3], f.genre_drama);
  // Movies in green: Eve and Sunset only.
  auto green_movies = f.db->TagScan(f.green, "movie");
  EXPECT_EQ(green_movies.size(), 2u);
  auto red_movies = f.db->TagScan(f.red, "movie");
  EXPECT_EQ(red_movies.size(), 3u);
  EXPECT_TRUE(f.db->TagScan(f.blue, "movie").empty());
  EXPECT_TRUE(f.db->TagScan(f.red, "nonexistent").empty());
}

TEST(IndexTest, ContentLookupVerifiesExactValue) {
  MovieDb f = BuildMovieDb();
  auto hits = f.db->ContentLookup("name", "Comedy");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(f.db->Parent(hits[0], f.red), f.genre_comedy);
  EXPECT_TRUE(f.db->ContentLookup("name", "comedy").empty());
  EXPECT_TRUE(f.db->ContentLookup("votes", "Comedy").empty());
}

TEST(IndexTest, ContentLookupTracksUpdates) {
  MovieDb f = BuildMovieDb();
  NodeId name = f.db->Children(f.movie_lights, f.red)[0];
  ASSERT_TRUE(f.db->SetContent(name, "Modern Times").ok());
  EXPECT_TRUE(f.db->ContentLookup("name", "City Lights").empty());
  ASSERT_EQ(f.db->ContentLookup("name", "Modern Times").size(), 1u);
}

TEST(IndexTest, AttrLookup) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "id", "m1").ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_sunset, "id", "m2").ok());
  auto hits = f.db->AttrLookup("id", "m2");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], f.movie_sunset);
  ASSERT_TRUE(f.db->SetAttr(f.movie_sunset, "id", "m3").ok());
  EXPECT_TRUE(f.db->AttrLookup("id", "m2").empty());
}

// Regression: the value indexes key on a 32-bit hash, so two distinct
// values can share a bucket; the lookups must recheck the stored value and
// never return the colliding neighbor.
TEST(IndexTest, LookupRechecksValueOnHashCollision) {
  // Brute-force a 32-bit collision (birthday bound ~80k candidates).
  std::unordered_map<uint32_t, std::string> by_hash;
  std::string va, vb;
  for (uint64_t i = 0;; ++i) {
    std::string s = "collide-" + std::to_string(i);
    uint32_t h = MctDatabase::HashValue(s);
    auto [it, inserted] = by_hash.emplace(h, s);
    if (!inserted) {
      va = it->second;
      vb = s;
      break;
    }
  }
  ASSERT_NE(va, vb);
  ASSERT_EQ(MctDatabase::HashValue(va), MctDatabase::HashValue(vb));

  MovieDb f = BuildMovieDb();
  NodeId ea = MustCreate(*f.db, f.red, f.genre_root, "coll", va);
  NodeId eb = MustCreate(*f.db, f.red, f.genre_root, "coll", vb);
  auto hits_a = f.db->ContentLookup("coll", va);
  ASSERT_EQ(hits_a.size(), 1u);
  EXPECT_EQ(hits_a[0], ea);
  auto hits_b = f.db->ContentLookup("coll", vb);
  ASSERT_EQ(hits_b.size(), 1u);
  EXPECT_EQ(hits_b[0], eb);

  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "ref", va).ok());
  ASSERT_TRUE(f.db->SetAttr(f.movie_sunset, "ref", vb).ok());
  auto attr_a = f.db->AttrLookup("ref", va);
  ASSERT_EQ(attr_a.size(), 1u);
  EXPECT_EQ(attr_a[0], f.movie_eve);
  auto attr_b = f.db->AttrLookup("ref", vb);
  ASSERT_EQ(attr_b.size(), 1u);
  EXPECT_EQ(attr_b[0], f.movie_sunset);
}

// ---- Labels and local order ----

TEST(LabelTest, AncestorDescendant) {
  MovieDb f = BuildMovieDb();
  ColoredTree* red = f.db->tree(f.red);
  red->EnsureLabels();
  EXPECT_TRUE(red->IsAncestor(f.genre_root, f.movie_eve));
  EXPECT_TRUE(red->IsAncestor(f.genre_comedy, f.role_margo));
  EXPECT_FALSE(red->IsAncestor(f.genre_drama, f.movie_eve));
  EXPECT_FALSE(red->IsAncestor(f.movie_eve, f.movie_eve));  // proper
  ColoredTree* green = f.db->tree(f.green);
  green->EnsureLabels();
  EXPECT_TRUE(green->IsAncestor(f.award_oscar, f.movie_eve));
  EXPECT_FALSE(green->IsAncestor(f.award_1951, f.movie_eve));
}

TEST(LabelTest, GapInsertAvoidsFullRelabel) {
  MovieDb f = BuildMovieDb();
  ColoredTree* red = f.db->tree(f.red);
  red->EnsureLabels();
  ASSERT_FALSE(red->labels_dirty());
  uint64_t eve_start = red->Start(f.movie_eve);
  // Insert a new movie; its labels must nest under the parent without
  // triggering a relabel (other nodes keep their labels).
  auto m = f.db->CreateElement(f.red, f.genre_drama, "movie");
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(red->labels_dirty());
  EXPECT_EQ(red->Start(f.movie_eve), eve_start);
  EXPECT_TRUE(red->IsAncestor(f.genre_drama, *m));
  EXPECT_TRUE(red->IsAncestor(f.genre_root, *m));
}

TEST(LabelTest, ExhaustedGapTriggersRelabel) {
  MctDatabase db;
  ColorId c = *db.RegisterColor("c");
  NodeId parent = *db.CreateElement(c, db.document(), "p");
  db.tree(c)->EnsureLabels();
  // Appending at the tail repeatedly thirds the remaining gap; eventually
  // the tree must go dirty and then fully relabel correctly.
  std::vector<NodeId> kids;
  for (int i = 0; i < 64; ++i) {
    kids.push_back(*db.CreateElement(c, parent, "k"));
  }
  db.tree(c)->EnsureLabels();
  EXPECT_FALSE(db.tree(c)->labels_dirty());
  // Order of children must match insertion order.
  uint64_t prev = 0;
  for (NodeId k : kids) {
    EXPECT_GT(db.tree(c)->Start(k), prev);
    prev = db.tree(c)->Start(k);
    EXPECT_TRUE(db.tree(c)->IsAncestor(parent, k));
  }
}

TEST(LabelTest, PreOrderMatchesStartOrder) {
  MovieDb f = BuildMovieDb();
  for (ColorId c : {f.red, f.green, f.blue}) {
    ColoredTree* t = f.db->tree(c);
    t->EnsureLabels();
    auto order = t->PreOrder();
    EXPECT_EQ(order.size(), t->size());
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_LT(t->Start(order[i - 1]), t->Start(order[i]));
    }
    std::set<NodeId> uniq(order.begin(), order.end());
    EXPECT_EQ(uniq.size(), order.size());
  }
}

// ---- Detach / RemoveNodeColor ----

TEST(DetachTest, RemoveColorCascadesToSubtree) {
  MovieDb f = BuildMovieDb();
  NodeId eve_name = f.db->Children(f.movie_eve, f.green)[0];
  NodeId votes = f.db->Children(f.movie_eve, f.green)[1];
  ASSERT_TRUE(f.db->RemoveNodeColor(f.movie_eve, f.green).ok());
  // Eve is now red-only; votes (green-only) is dead.
  EXPECT_EQ(f.db->Colors(f.movie_eve).count(), 1);
  EXPECT_TRUE(f.db->Colors(f.movie_eve).Has(f.red));
  EXPECT_FALSE(f.db->store().Exists(votes));
  // The name node survives (still red).
  EXPECT_TRUE(f.db->store().Exists(eve_name));
  EXPECT_TRUE(f.db->Colors(eve_name).Has(f.red));
  // award_1950 no longer has movie children named Eve.
  auto kids = f.db->Children(f.award_1950, f.green);
  for (NodeId k : kids) EXPECT_NE(k, f.movie_eve);
  // Tag index updated: green movies now just Sunset.
  EXPECT_EQ(f.db->TagScan(f.green, "movie").size(), 1u);
}

TEST(DetachTest, CannotDetachDocumentRoot) {
  MovieDb f = BuildMovieDb();
  EXPECT_TRUE(
      f.db->RemoveNodeColor(f.db->document(), f.red).IsInvalidArgument());
}

TEST(DetachTest, DetachMissingNodeFails) {
  MovieDb f = BuildMovieDb();
  EXPECT_TRUE(f.db->RemoveNodeColor(f.actor_davis, f.red).IsNotFound());
}

// ---- Stats (Table 1 plumbing) ----

TEST(StatsTest, CountsMatchConstruction) {
  MovieDb f = BuildMovieDb();
  DatabaseStats s = f.db->Stats();
  // Oracle: the distinct members of every colored tree.
  std::set<NodeId> members;
  uint64_t struct_nodes = 0;
  for (ColorId c = 0; c < f.db->num_colors(); ++c) {
    std::vector<NodeId> order = f.db->tree(c)->PreOrder();
    members.insert(order.begin(), order.end());
    struct_nodes += order.size();
  }
  uint64_t elements = 0, content = 0, attrs = 0;
  for (NodeId n : members) {
    elements += f.db->Kind(n) == xml::NodeKind::kElement;
    content += f.db->store().HasContent(n);
    attrs += f.db->Attrs(n).size();
  }
  EXPECT_EQ(s.num_elements, elements);
  EXPECT_GT(s.num_elements, 20u);
  EXPECT_EQ(s.num_content_nodes, content);
  EXPECT_EQ(s.num_attrs, attrs);
  EXPECT_EQ(s.num_struct_nodes, struct_nodes);
  // Struct nodes exceed elements because multi-colored nodes have one per
  // color (plus 3 document-root records).
  EXPECT_GT(s.num_struct_nodes, s.num_elements);
  EXPECT_GT(s.data_bytes, 0u);
  EXPECT_GT(s.index_bytes, 0u);
}

TEST(StatsTest, MultiColorCostsStructRecordsNotContent) {
  // Two databases with identical content; in one the element is bi-colored.
  MctDatabase db1;
  ColorId a1 = *db1.RegisterColor("a");
  (void)*db1.RegisterColor("b");
  NodeId n1 = *db1.CreateElement(a1, db1.document(), "x");
  ASSERT_TRUE(db1.SetContent(n1, "payload").ok());

  MctDatabase db2;
  ColorId a2 = *db2.RegisterColor("a");
  ColorId b2 = *db2.RegisterColor("b");
  NodeId n2 = *db2.CreateElement(a2, db2.document(), "x");
  ASSERT_TRUE(db2.SetContent(n2, "payload").ok());
  ASSERT_TRUE(db2.AddNodeColor(n2, b2, db2.document()).ok());

  DatabaseStats s1 = db1.Stats();
  DatabaseStats s2 = db2.Stats();
  EXPECT_EQ(s1.num_elements, s2.num_elements);
  EXPECT_EQ(s1.num_content_nodes, s2.num_content_nodes);
  EXPECT_EQ(s2.num_struct_nodes, s1.num_struct_nodes + 1);
}

// ---- Table 1 figures are a function of the version ----

void ExpectSameStats(const DatabaseStats& a, const DatabaseStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.num_elements, b.num_elements) << label;
  EXPECT_EQ(a.num_attrs, b.num_attrs) << label;
  EXPECT_EQ(a.num_content_nodes, b.num_content_nodes) << label;
  EXPECT_EQ(a.num_struct_nodes, b.num_struct_nodes) << label;
  EXPECT_EQ(a.data_bytes, b.data_bytes) << label;
  EXPECT_EQ(a.index_bytes, b.index_bytes) << label;
}

// The three schemas of both datasets, at scales small enough for a unit
// test yet large enough to span many pages (SIGMOD at 0.05 fits in five).
constexpr double kTpcwTestScale = 0.05;
constexpr double kSigmodTestScale = 0.25;

struct TableOneCase {
  std::string name;
  std::unique_ptr<MctDatabase> db;
};

std::vector<TableOneCase> BuildTableOneCases() {
  using namespace workload;
  const std::pair<const char*, SchemaKind> kinds[] = {
      {"mct", SchemaKind::kMct},
      {"shallow", SchemaKind::kShallow},
      {"deep", SchemaKind::kDeep}};
  std::vector<TableOneCase> out;
  TpcwData tpcw =
      GenerateTpcw(TpcwScale::Default().ScaledBy(kTpcwTestScale));
  for (const auto& [name, kind] : kinds) {
    auto built = BuildTpcw(tpcw, kind);
    EXPECT_TRUE(built.ok()) << built.status();
    if (built.ok()) {
      out.push_back({std::string("tpcw/") + name, std::move(built->db)});
    }
  }
  SigmodData sigmod =
      GenerateSigmod(SigmodScale::Default().ScaledBy(kSigmodTestScale));
  for (const auto& [name, kind] : kinds) {
    auto built = BuildSigmod(sigmod, kind);
    EXPECT_TRUE(built.ok()) << built.status();
    if (built.ok()) {
      out.push_back({std::string("sigmod/") + name, std::move(built->db)});
    }
  }
  return out;
}

TEST(StatsTest, TableOneCountsAndDataBytesArePinned) {
  // Recorded from the write-through record files the page model replaced;
  // the model reproduces them byte for byte.
  struct Pinned {
    const char* name;
    uint64_t elements, attrs, content, data_bytes;
  };
  const Pinned kPinned[] = {
      {"tpcw/mct", 7938, 7512, 5498, 1441792},
      {"tpcw/shallow", 7946, 7512, 5498, 819200},
      {"tpcw/deep", 23148, 7131, 17016, 2048000},
      {"sigmod/mct", 1250, 552, 1042, 204800},
      {"sigmod/shallow", 1254, 568, 1042, 139264},
      {"sigmod/deep", 1939, 192, 1386, 188416},
  };
  std::vector<TableOneCase> cases = BuildTableOneCases();
  ASSERT_EQ(cases.size(), std::size(kPinned));
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].name, kPinned[i].name);
    DatabaseStats s = cases[i].db->Stats();
    EXPECT_EQ(s.num_elements, kPinned[i].elements) << cases[i].name;
    EXPECT_EQ(s.num_attrs, kPinned[i].attrs) << cases[i].name;
    EXPECT_EQ(s.num_content_nodes, kPinned[i].content) << cases[i].name;
    EXPECT_EQ(s.data_bytes, kPinned[i].data_bytes) << cases[i].name;
    EXPECT_GT(s.index_bytes, 0u) << cases[i].name;
  }
}

TEST(StatsTest, SnapshotRoundTripKeepsStats) {
  const std::string path = testing::TempDir() + "/stats_roundtrip.snap";
  for (TableOneCase& c : BuildTableOneCases()) {
    ASSERT_TRUE(SaveSnapshot(*c.db, path).ok()) << c.name;
    auto loaded = OpenSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << c.name << ": " << loaded.status();
    ExpectSameStats(c.db->Stats(), (*loaded)->Stats(), c.name);
  }
  std::remove(path.c_str());
}

TEST(StatsTest, XmlExchangeRoundTripKeepsStats) {
  for (TableOneCase& c : BuildTableOneCases()) {
    auto scheme =
        serialize::OptSerialize(serialize::InferSchema(*c.db));
    ASSERT_TRUE(scheme.ok()) << c.name << ": " << scheme.status();
    auto xml = serialize::ExportXml(c.db.get(), *scheme);
    ASSERT_TRUE(xml.ok()) << c.name << ": " << xml.status();
    auto imported = serialize::ImportXml(*xml);
    ASSERT_TRUE(imported.ok()) << c.name << ": " << imported.status();
    ExpectSameStats(c.db->Stats(), (*imported)->Stats(), c.name);
  }
}

TEST(StatsTest, DroppedWrittenCloneLeavesSourceStats) {
  MctDatabase db;
  ColorId red = *db.RegisterColor("red");
  NodeId root = *db.CreateElement(red, db.document(), "root");
  for (int i = 0; i < 50; ++i) {
    NodeId n = *db.CreateElement(red, root, "item");
    ASSERT_TRUE(db.SetContent(n, "value " + std::to_string(i)).ok());
  }
  const DatabaseStats before = db.Stats();
  {
    std::unique_ptr<MctDatabase> clone = db.CowClone();
    for (int i = 0; i < 200; ++i) {
      NodeId n = *clone->CreateElement(red, root, "added");
      ASSERT_TRUE(clone->SetContent(n, std::string(100, 'x')).ok());
      ASSERT_TRUE(clone->SetAttr(n, "id", std::to_string(i)).ok());
    }
    DatabaseStats grown = clone->Stats();
    EXPECT_EQ(grown.num_elements, before.num_elements + 200);
    EXPECT_GT(grown.data_bytes, before.data_bytes);
    EXPECT_GT(grown.index_bytes, before.index_bytes);
    ExpectSameStats(db.Stats(), before, "source while the clone lives");
  }
  ExpectSameStats(db.Stats(), before, "source after the clone is dropped");
}

TEST(StatsTest, DetachedNodesLeaveTheModel) {
  // A node that loses its last color is dropped; the model counts the
  // version as a fresh load would, without it.
  MctDatabase db;
  ColorId red = *db.RegisterColor("red");
  NodeId keep = *db.CreateElement(red, db.document(), "keep");
  ASSERT_TRUE(db.SetContent(keep, "kept").ok());
  const DatabaseStats before = db.Stats();
  NodeId gone = *db.CreateElement(red, db.document(), "gone");
  ASSERT_TRUE(db.SetContent(gone, "dropped").ok());
  ASSERT_TRUE(db.SetAttr(gone, "a", "b").ok());
  EXPECT_EQ(db.Stats().num_elements, before.num_elements + 1);
  ASSERT_TRUE(db.RemoveNodeColor(gone, red).ok());
  ExpectSameStats(db.Stats(), before, "after the detach");
}

TEST(StatsTest, ContentLongerThanAPageSpansPages) {
  MctDatabase db;
  ColorId red = *db.RegisterColor("red");
  NodeId big = *db.CreateElement(red, db.document(), "big");
  ASSERT_TRUE(db.SetContent(big, std::string(20000, 'x')).ok());
  NodeId small = *db.CreateElement(red, db.document(), "small");
  ASSERT_TRUE(db.SetContent(small, "y").ok());
  // Node file 1 page (3 records), content 3 pages (20,004 bytes over 8,188
  // per page, the 5-byte record fits in the last one's tail), no attribute
  // pages, structural file 1 page (3 members of red).
  EXPECT_EQ(db.Stats().data_bytes, 5u * 8192);
}

// ---- Property test: random multi-colored construction ----

class RandomMctProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomMctProperty, InvariantsHold) {
  Rng rng(GetParam());
  MctDatabase db;
  std::vector<ColorId> colors;
  for (int i = 0; i < 4; ++i) {
    colors.push_back(*db.RegisterColor("c" + std::to_string(i)));
  }
  // Per color, nodes already in that tree (candidates for parents).
  std::vector<std::vector<NodeId>> members(4, {db.document()});
  std::vector<NodeId> all_nodes;
  for (int step = 0; step < 2000; ++step) {
    size_t ci = rng.Uniform(4);
    ColorId c = colors[ci];
    NodeId parent = members[ci][rng.Uniform(members[ci].size())];
    if (!all_nodes.empty() && rng.Bernoulli(0.3)) {
      // Next-color: color an existing node, if legal.
      NodeId n = all_nodes[rng.Uniform(all_nodes.size())];
      if (db.Colors(n).Has(c) || db.tree(c)->Contains(parent) == false) {
        continue;
      }
      // Parent must not be in n's subtree in any shared color; simplest
      // legality: skip when parent == n.
      if (parent == n) continue;
      Status s = db.AddNodeColor(n, c, parent);
      if (s.ok()) members[ci].push_back(n);
    } else {
      auto n = db.CreateElement(c, parent, "t" + std::to_string(rng.Uniform(5)));
      ASSERT_TRUE(n.ok());
      members[ci].push_back(*n);
      all_nodes.push_back(*n);
    }
  }
  // Invariants per color:
  for (size_t ci = 0; ci < 4; ++ci) {
    ColorId c = colors[ci];
    ColoredTree* t = db.tree(c);
    t->EnsureLabels();
    auto order = t->PreOrder();
    // 1. Every member reachable exactly once from the root.
    EXPECT_EQ(order.size(), t->size());
    // 2. Parent pointers consistent with Children lists.
    for (NodeId n : order) {
      for (NodeId k : t->Children(n)) {
        EXPECT_EQ(t->Parent(k), n);
        // 3. Labels nest strictly inside the parent's interval.
        EXPECT_GT(t->Start(k), t->Start(n));
        EXPECT_LT(t->End(k), t->End(n));
        EXPECT_LT(t->Start(k), t->End(k));
      }
    }
    // 4. IsAncestor agrees with a pointer-chasing oracle on random pairs.
    for (int probe = 0; probe < 300; ++probe) {
      NodeId a = order[rng.Uniform(order.size())];
      NodeId d = order[rng.Uniform(order.size())];
      bool oracle = false;
      for (NodeId up = t->Parent(d); up != kInvalidNodeId; up = t->Parent(up)) {
        if (up == a) {
          oracle = true;
          break;
        }
      }
      EXPECT_EQ(t->IsAncestor(a, d), oracle)
          << "color " << static_cast<int>(c) << " a=" << a << " d=" << d;
    }
    // 5. Every member node reports the color.
    for (NodeId n : order) EXPECT_TRUE(db.Colors(n).Has(c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMctProperty,
                         testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace mct
