// MctDatabase::Loader against the incremental path. Every database a
// loader builds is rebuilt without one — each node in id order through
// CreateFreeElement / SetContent / SetAttr, then each colored tree in
// pre-order through AddNodeColor, so every index entry goes through
// ImageInsert one at a time — and the two must hold the same posting list
// under every key of all three images, the same type counts, Table 1
// statistics and resident chunks. The incremental path shares no code with
// Loader::Finish, so it is an independent oracle.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mct/database.h"
#include "mct/snapshot.h"
#include "mct/validate.h"
#include "mct/xml_load.h"
#include "movie_fixture.h"
#include "serialize/exchange.h"
#include "serialize/opt_serialize.h"
#include "serialize/schema.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"
#include "xml/parser.h"

namespace mct {
namespace {

using workload::SchemaKind;

// The incremental twin of `src`: the same names (so the same name ids and
// image keys), nodes and trees, built without a loader.
std::unique_ptr<MctDatabase> RebuildIncrementally(const MctDatabase& src) {
  auto db = std::make_unique<MctDatabase>();
  for (ColorId c = 0; c < src.num_colors(); ++c) {
    EXPECT_TRUE(db->RegisterColor(src.ColorName(c)).ok());
  }
  const NamePool& names = src.store().names();
  for (NameId id = 0; id < names.size(); ++id) {
    EXPECT_EQ(db->mutable_store()->InternName(names.Name(id)), id);
  }
  for (NodeId n = 1; n < src.store().size(); ++n) {
    auto id = db->CreateFreeElement(src.Tag(n));
    EXPECT_TRUE(id.ok() && *id == n);
    if (src.store().HasContent(n)) {
      EXPECT_TRUE(db->SetContent(n, src.Content(n)).ok());
    }
    for (const NodeAttr& a : src.Attrs(n)) {
      EXPECT_TRUE(db->SetAttr(n, names.Name(a.name), a.value).ok());
    }
  }
  for (ColorId c = 0; c < src.num_colors(); ++c) {
    const ColoredTree* t = src.tree(c);
    for (NodeId n : t->PreOrder()) {
      if (n == src.document()) continue;
      EXPECT_TRUE(db->AddNodeColor(n, c, t->Parent(n)).ok());
    }
  }
  return db;
}

// Same posting list under every key of the three images, same type counts,
// statistics and resident chunks; both pass the validator.
void ExpectSameIndexes(MctDatabase& a, MctDatabase& b) {
  using Counts = std::map<std::tuple<ColorId, NameId, NameId>, uint64_t>;
  Counts elements_a, elements_b, edges_a, edges_b;
  a.ForEachElementCount([&](ColorId c, NameId tag, uint64_t n) {
    elements_a[{c, tag, 0}] = n;
  });
  b.ForEachElementCount([&](ColorId c, NameId tag, uint64_t n) {
    elements_b[{c, tag, 0}] = n;
  });
  EXPECT_EQ(elements_a, elements_b);
  for (const auto& [key, n] : elements_a) {
    const auto& [c, tag, unused] = key;
    const std::string& name = a.store().names().Name(tag);
    const std::vector<NodeId> list = a.TagScan(c, name);
    EXPECT_EQ(list.size(), n);
    EXPECT_EQ(list, b.TagScan(c, name)) << a.ColorName(c) << " " << name;
  }
  a.ForEachChildEdgeCount([&](ColorId c, NameId p, NameId k, uint64_t n) {
    edges_a[{c, p, k}] = n;
  });
  b.ForEachChildEdgeCount([&](ColorId c, NameId p, NameId k, uint64_t n) {
    edges_b[{c, p, k}] = n;
  });
  EXPECT_EQ(edges_a, edges_b);

  std::set<std::pair<std::string, std::string>> contents, attrs;
  for (NodeId n = 1; n < a.store().size(); ++n) {
    if (a.store().HasContent(n)) contents.emplace(a.Tag(n), a.Content(n));
    for (const NodeAttr& at : a.Attrs(n)) {
      attrs.emplace(a.store().names().Name(at.name), at.value);
    }
  }
  for (const auto& [tag, value] : contents) {
    EXPECT_EQ(a.ContentLookup(tag, value), b.ContentLookup(tag, value))
        << tag << "=" << value;
  }
  for (const auto& [name, value] : attrs) {
    EXPECT_EQ(a.AttrLookup(name, value), b.AttrLookup(name, value))
        << name << "=" << value;
  }
  // With every lookup equal, equal entry counts leave no room for a stale
  // entry on either side.
  EXPECT_EQ(a.ImageEntries(), b.ImageEntries());

  const DatabaseStats sa = a.Stats(), sb = b.Stats();
  EXPECT_EQ(sa.num_elements, sb.num_elements);
  EXPECT_EQ(sa.num_attrs, sb.num_attrs);
  EXPECT_EQ(sa.num_content_nodes, sb.num_content_nodes);
  EXPECT_EQ(sa.num_struct_nodes, sb.num_struct_nodes);
  EXPECT_EQ(sa.data_bytes, sb.data_bytes);
  EXPECT_EQ(sa.index_bytes, sb.index_bytes);
  EXPECT_EQ(a.ResidentChunks(), b.ResidentChunks());

  ValidationReport ra = ValidateDatabase(a);
  EXPECT_TRUE(ra.ok()) << ra.ToString();
  ValidationReport rb = ValidateDatabase(b);
  EXPECT_TRUE(rb.ok()) << rb.ToString();
}

void ExpectMatchesIncrementalPath(MctDatabase& loaded) {
  auto twin = RebuildIncrementally(loaded);
  ExpectSameIndexes(loaded, *twin);
}

std::vector<std::pair<std::string, std::unique_ptr<MctDatabase>>>
WorkloadDatabases() {
  std::vector<std::pair<std::string, std::unique_ptr<MctDatabase>>> out;
  const auto tpcw_data =
      workload::GenerateTpcw(workload::TpcwScale::Default().ScaledBy(0.05));
  const auto sigmod_data = workload::GenerateSigmod(
      workload::SigmodScale::Default().ScaledBy(0.05));
  for (SchemaKind kind :
       {SchemaKind::kMct, SchemaKind::kShallow, SchemaKind::kDeep}) {
    const std::string k(workload::SchemaKindName(kind));
    auto tpcw = workload::BuildTpcw(tpcw_data, kind);
    EXPECT_TRUE(tpcw.ok()) << tpcw.status();
    out.emplace_back("tpcw " + k, std::move(tpcw->db));
    auto sigmod = workload::BuildSigmod(sigmod_data, kind);
    EXPECT_TRUE(sigmod.ok()) << sigmod.status();
    out.emplace_back("sigmod " + k, std::move(sigmod->db));
  }
  return out;
}

// (a) The workload builders, all three schema kinds of both catalogs.
TEST(LoaderOracleTest, WorkloadBuildsMatchIncrementalPath) {
  for (auto& [name, db] : WorkloadDatabases()) {
    SCOPED_TRACE(name);
    ExpectMatchesIncrementalPath(*db);
  }
}

// (b) OpenSnapshot and ImportXml of those databases.
TEST(LoaderOracleTest, SnapshotAndExchangeRoundTripsMatchIncrementalPath) {
  const std::string path = testing::TempDir() + "/loader_oracle.snap";
  for (auto& [name, db] : WorkloadDatabases()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(SaveSnapshot(*db, path).ok());
    auto opened = OpenSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status();
    {
      SCOPED_TRACE("OpenSnapshot");
      ExpectMatchesIncrementalPath(**opened);
    }
    auto scheme = serialize::OptSerialize(serialize::InferSchema(*db));
    ASSERT_TRUE(scheme.ok());
    auto xml = serialize::ExportXml(db.get(), *scheme);
    ASSERT_TRUE(xml.ok()) << xml.status();
    auto imported = serialize::ImportXml(*xml);
    ASSERT_TRUE(imported.ok()) << imported.status();
    {
      SCOPED_TRACE("ImportXml");
      ExpectMatchesIncrementalPath(**imported);
    }
  }
  std::remove(path.c_str());
}

// (c) A 50,000-member list whose edges arrive in descending id order: the
// order in which each id would shift the whole list ahead of it. The twin
// attaches the same members in ascending order, each before the first, so
// its trees match and its incremental inserts append.
TEST(LoaderOracleTest, DescendingEdgesBuildAscendingLists) {
  constexpr NodeId kMembers = 50000;
  auto populate = [](MctDatabase* db) {
    std::vector<NodeId> members;
    for (NodeId i = 0; i < kMembers; ++i) {
      auto n = db->CreateFreeElement("m");
      EXPECT_TRUE(n.ok());
      EXPECT_TRUE(db->SetContent(*n, "v" + std::to_string(i % 10000)).ok());
      EXPECT_TRUE(db->SetAttr(*n, "id", "m" + std::to_string(i)).ok());
      members.push_back(*n);
    }
    return members;
  };
  MctDatabase db, twin;
  const ColorId c = *db.RegisterColor("c");
  ASSERT_EQ(*twin.RegisterColor("c"), c);
  const std::vector<NodeId> members = populate(&db);
  ASSERT_EQ(populate(&twin), members);
  {
    MctDatabase::Loader loader(&db);
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      ASSERT_TRUE(db.AddNodeColor(*it, c, db.document()).ok());
    }
  }
  for (NodeId n : members) {
    const NodeId first = twin.tree(c)->FirstChild(twin.document());
    ASSERT_TRUE(twin.AddNodeColor(n, c, twin.document(), first).ok());
  }
  const std::vector<NodeId> list = db.TagScan(c, "m");
  ASSERT_EQ(list.size(), kMembers);
  EXPECT_EQ(list.front(), members.back());  // local order: as attached
  EXPECT_EQ(db.ContentLookup("m", "v7").size(), kMembers / 10000);
  ExpectSameIndexes(db, twin);
}

// (d) Overwriting a value during a load erases the pending entry, not
// only what the images already hold; so do RemoveNodeColor and a second
// write of the same value.
TEST(LoaderOracleTest, OverwriteDuringLoadSeesPendingEntries) {
  auto apply = [](MctDatabase* db, bool load) {
    const ColorId c = *db->RegisterColor("c");
    std::unique_ptr<MctDatabase::Loader> loader;
    if (load) loader = std::make_unique<MctDatabase::Loader>(db);
    std::vector<NodeId> nodes;
    for (int i = 0; i < 6; ++i) {
      auto n = db->CreateElement(c, db->document(), "e");
      ASSERT_TRUE(n.ok());
      ASSERT_TRUE(db->SetContent(*n, "old").ok());
      ASSERT_TRUE(db->SetAttr(*n, "k", "old").ok());
      nodes.push_back(*n);
    }
    ASSERT_TRUE(db->SetContent(nodes[0], "new").ok());
    ASSERT_TRUE(db->SetAttr(nodes[1], "k", "new").ok());
    ASSERT_TRUE(db->SetContent(nodes[2], "old").ok());
    ASSERT_TRUE(db->RemoveNodeColor(nodes[3], c).ok());
    auto late = db->CreateElement(c, db->document(), "e");
    ASSERT_TRUE(late.ok());
    ASSERT_TRUE(db->SetContent(*late, "old").ok());
    ASSERT_TRUE(db->SetContent(*late, "late").ok());
    if (loader != nullptr) loader->Finish();
  };
  MctDatabase loaded, incremental;
  apply(&loaded, true);
  apply(&incremental, false);
  EXPECT_EQ(loaded.ContentLookup("e", "old").size(), 4u);
  EXPECT_EQ(loaded.ContentLookup("e", "new").size(), 1u);
  EXPECT_EQ(loaded.AttrLookup("k", "old").size(), 4u);
  EXPECT_EQ(loaded.ImageEntries(), (std::array<uint64_t, 3>{6, 6, 5}));
  ExpectSameIndexes(loaded, incremental);
}

// A load into lists that already exist, on a clone that shares them with
// its source, merges ids below and above the existing ones and leaves the
// source's lists as they were.
TEST(LoaderOracleTest, LoadMergesIntoSharedListsCopyOnWrite) {
  testfix::MovieDb f = testfix::BuildMovieDb();
  std::vector<NodeId> early;
  for (int i = 0; i < 40; ++i) {
    auto n = f.db->CreateFreeElement("name");
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(f.db->SetContent(*n, i % 2 == 0 ? "Comedy" : "Drama").ok());
    early.push_back(*n);
  }
  for (int i = 0; i < 40; ++i) {
    auto n = f.db->CreateElement(f.red, f.genre_drama, "name");
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(f.db->SetContent(*n, "Comedy").ok());
  }
  const std::vector<NodeId> source_names = f.db->TagScan(f.red, "name");
  const std::vector<NodeId> source_comedy =
      f.db->ContentLookup("name", "Comedy");
  const std::array<uint64_t, 3> source_entries = f.db->ImageEntries();

  auto clone = f.db->CowClone();
  {
    MctDatabase::Loader loader(clone.get());
    for (NodeId n : early) {
      ASSERT_TRUE(clone->AddNodeColor(n, f.red, f.genre_comedy).ok());
    }
    for (int i = 0; i < 5; ++i) {
      auto n = clone->CreateElement(f.red, f.genre_comedy, "name");
      ASSERT_TRUE(n.ok());
      ASSERT_TRUE(clone->SetContent(*n, "Comedy").ok());
    }
  }
  EXPECT_EQ(clone->TagScan(f.red, "name").size(), source_names.size() + 45);
  EXPECT_EQ(clone->ContentLookup("name", "Comedy").size(),
            source_comedy.size() + 25);
  ExpectMatchesIncrementalPath(*clone);
  EXPECT_EQ(f.db->TagScan(f.red, "name"), source_names);
  EXPECT_EQ(f.db->ContentLookup("name", "Comedy"), source_comedy);
  EXPECT_EQ(f.db->ImageEntries(), source_entries);
}

// (e) A LoadXmlElement into a non-empty database that fails partway (its
// subtree is deeper than xml::kMaxDepth) keeps the elements it loaded, and
// the loader's destructor builds their entries in: the images agree with
// the trees.
TEST(LoaderOracleTest, FailedXmlLoadLeavesImagesConsistent) {
  testfix::MovieDb f = testfix::BuildMovieDb();
  const size_t before = f.db->store().size();
  auto root = std::make_unique<xml::Element>("chain");
  xml::Element* cur = root.get();
  for (int level = 1; level <= xml::kMaxDepth + 10; ++level) {
    cur->SetAttr("level", std::to_string(level));
    cur->AddTextElement("name", level % 3 == 0 ? "Drama" : "link");
    cur = cur->AddElement("chain");
  }
  auto loaded = LoadXmlElement(f.db.get(), f.blue, f.actor_davis, *root);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  // Each accepted level loaded its chain element and, but for the deepest,
  // its name element.
  EXPECT_EQ(f.db->store().size(), before + 2 * xml::kMaxDepth - 1);
  EXPECT_EQ(f.db->TagScan(f.blue, "chain").size(),
            static_cast<size_t>(xml::kMaxDepth));
  EXPECT_EQ(f.db->AttrLookup("level", "1024").size(), 1u);
  ExpectMatchesIncrementalPath(*f.db);
}

}  // namespace
}  // namespace mct
