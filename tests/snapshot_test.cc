#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string_view>

#include "common/crc32c.h"
#include "common/rng.h"
#include "mct/snapshot.h"
#include "movie_fixture.h"
#include "serialize/exchange.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace mct {
namespace {

using serialize::DatabasesIsomorphic;
using testfix::BuildMovieDb;
using testfix::MovieDb;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(SnapshotTest, MovieDbRoundTrip) {
  MovieDb f = BuildMovieDb();
  ASSERT_TRUE(f.db->SetAttr(f.movie_eve, "year", "1950").ok());
  std::string path = TempPath("movie.snap");
  ASSERT_TRUE(SaveSnapshot(*f.db, path).ok());
  auto loaded = OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(*f.db, **loaded, &why)) << why;
  // The reopened database is fully queryable.
  ColorId red = (*loaded)->LookupColor("red");
  ASSERT_NE(red, kInvalidColorId);
  EXPECT_EQ((*loaded)->TagScan(red, "movie").size(), 3u);
  EXPECT_EQ((*loaded)->ContentLookup("name", "Comedy").size(), 1u);
  std::filesystem::remove(path);
}

TEST(SnapshotTest, EmptyDatabase) {
  MctDatabase db;
  ASSERT_TRUE(db.RegisterColor("only").ok());
  std::string path = TempPath("empty.snap");
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  auto loaded = OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->num_colors(), 1u);
  EXPECT_EQ((*loaded)->Stats().num_elements, 0u);
  std::filesystem::remove(path);
}

TEST(SnapshotTest, RejectsGarbageFiles) {
  std::string path = TempPath("garbage.snap");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite("definitely not a snapshot", 1, 25, f);
    std::fclose(f);
  }
  EXPECT_TRUE(OpenSnapshot(path).status().IsCorruption());
  EXPECT_TRUE(OpenSnapshot(TempPath("no-such-file.snap")).status().IsIOError());
  std::filesystem::remove(path);
}

TEST(SnapshotTest, RejectsTruncatedSnapshot) {
  MovieDb f = BuildMovieDb();
  std::string path = TempPath("trunc.snap");
  ASSERT_TRUE(SaveSnapshot(*f.db, path).ok());
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_TRUE(OpenSnapshot(path).status().IsCorruption());
  std::filesystem::remove(path);
}

TEST(SnapshotTest, TpcwFiveColorRoundTrip) {
  using namespace workload;
  TpcwData data = GenerateTpcw(TpcwScale::Tiny());
  auto built = BuildTpcw(data, SchemaKind::kMct);
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("tpcw.snap");
  ASSERT_TRUE(SaveSnapshot(*built->db, path).ok());
  auto loaded = OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(*built->db, **loaded, &why)) << why;
  // Multi-colored nodes survive with their full color sets.
  ColorId cust = (*loaded)->LookupColor("cust");
  ColorId auth = (*loaded)->LookupColor("auth");
  auto lines = (*loaded)->TagScan(cust, "orderline");
  EXPECT_EQ(lines.size(), data.orderlines.size());
  for (NodeId l : lines) {
    EXPECT_TRUE((*loaded)->Colors(l).Has(auth));
  }
  std::filesystem::remove(path);
}

// The snapshot bytes of the workload databases are pinned, so a change to
// the writer or to how the databases load that alters one byte fails here:
// the CRC32C the trailer stores (over every preceding byte) and the file
// size.
TEST(SnapshotTest, WorkloadSnapshotsArePinned) {
  using namespace workload;
  struct Pin {
    const char* dataset;
    uint32_t crc32c;
    uint64_t bytes;
  };
  const Pin kPinned[] = {
      {"tpcw", 2001636615u, 486674},
      {"sigmod", 2262512844u, 4662},
  };
  auto tpcw = BuildTpcw(GenerateTpcw(TpcwScale::Default().ScaledBy(0.05)),
                        SchemaKind::kMct);
  ASSERT_TRUE(tpcw.ok()) << tpcw.status();
  auto sigmod =
      BuildSigmod(GenerateSigmod(SigmodScale::Default().ScaledBy(0.05)),
                  SchemaKind::kMct);
  ASSERT_TRUE(sigmod.ok()) << sigmod.status();
  const std::string path = TempPath("pinned.snap");
  for (const Pin& pin : kPinned) {
    SCOPED_TRACE(pin.dataset);
    MctDatabase& db =
        std::string(pin.dataset) == "tpcw" ? *tpcw->db : *sigmod->db;
    ASSERT_TRUE(SaveSnapshot(db, path).ok());
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 4u);
    EXPECT_EQ(Crc32c(std::string_view(bytes).substr(0, bytes.size() - 4)),
              pin.crc32c);
    EXPECT_EQ(bytes.size(), pin.bytes);
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, SnapshotAfterUpdatesReflectsMutations) {
  MovieDb f = BuildMovieDb();
  // Mutate, snapshot, reload, verify the mutation (not the original).
  NodeId votes = f.db->Children(f.movie_eve, f.green)[1];
  ASSERT_TRUE(f.db->SetContent(votes, "99").ok());
  ASSERT_TRUE(f.db->RemoveNodeColor(f.movie_sunset, f.green).ok());
  std::string path = TempPath("mutated.snap");
  ASSERT_TRUE(SaveSnapshot(*f.db, path).ok());
  auto loaded = OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  ColorId green = (*loaded)->LookupColor("green");
  EXPECT_EQ((*loaded)->TagScan(green, "movie").size(), 1u);  // only Eve
  EXPECT_EQ((*loaded)->ContentLookup("votes", "99").size(), 1u);
  std::filesystem::remove(path);
}

// Property: random multi-colored databases survive snapshot round trips.
class SnapshotProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotProperty, RandomDatabasesRoundTrip) {
  Rng rng(GetParam());
  MctDatabase db;
  std::vector<ColorId> colors;
  for (int i = 0; i < 3; ++i) {
    colors.push_back(*db.RegisterColor("c" + std::to_string(i)));
  }
  std::vector<std::vector<NodeId>> members(3, {db.document()});
  std::vector<NodeId> all;
  for (int step = 0; step < 250; ++step) {
    size_t ci = rng.Uniform(3);
    NodeId parent = members[ci][rng.Uniform(members[ci].size())];
    if (!all.empty() && rng.Bernoulli(0.25)) {
      NodeId n = all[rng.Uniform(all.size())];
      if (!db.Colors(n).Has(colors[ci]) && parent != n &&
          db.AddNodeColor(n, colors[ci], parent).ok()) {
        members[ci].push_back(n);
      }
    } else {
      auto n = db.CreateElement(colors[ci], parent,
                                "t" + std::to_string(rng.Uniform(4)));
      ASSERT_TRUE(n.ok());
      members[ci].push_back(*n);
      all.push_back(*n);
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(db.SetContent(*n, rng.Word(0, 20)).ok());
      }
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(
            db.SetAttr(*n, "k" + std::to_string(rng.Uniform(2)), rng.Word(1, 6))
                .ok());
      }
    }
  }
  std::string path = TempPath(
      ("prop" + std::to_string(GetParam()) + ".snap").c_str());
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  auto loaded = OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(db, **loaded, &why)) << why;
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotProperty,
                         testing::Values(61u, 62u, 63u, 64u));

}  // namespace
}  // namespace mct
