#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/timer.h"

namespace mct {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::IOError("disk gone");
  Status t = s;
  EXPECT_TRUE(t.IsIOError());
  EXPECT_EQ(t.message(), "disk gone");
  // Copy-assign over an error.
  Status u = Status::OK();
  u = s;
  EXPECT_TRUE(u.IsIOError());
}

TEST(StatusTest, MoveLeavesSourceReusable) {
  Status s = Status::Corruption("bad page");
  Status t = std::move(s);
  EXPECT_TRUE(t.IsCorruption());
}

TEST(StatusTest, AllFactoriesMapToPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::DynamicError("x").IsDynamicError());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::NotFound("gone"); };
  auto outer = [&]() -> Status {
    MCT_RETURN_IF_ERROR(inner());
    return Status::InvalidArgument("should not get here");
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("none");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnFlows) {
  auto make = [](bool fail) -> Result<std::string> {
    if (fail) return Status::IOError("nope");
    return std::string("value");
  };
  auto use = [&](bool fail) -> Result<size_t> {
    MCT_ASSIGN_OR_RETURN(std::string s, make(fail));
    return s.size();
  };
  EXPECT_EQ(*use(false), 5u);
  EXPECT_TRUE(use(true).status().IsIOError());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 9);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpties) {
  EXPECT_EQ(SplitWhitespace("  id1  id2\tid3\n"),
            (std::vector<std::string>{"id1", "id2", "id3"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, ContainsAndAffixes) {
  EXPECT_TRUE(Contains("All About Eve", "Eve"));
  EXPECT_FALSE(Contains("All About Eve", "eve"));
  EXPECT_TRUE(StartsWith("movie-genre", "movie"));
  EXPECT_FALSE(StartsWith("m", "movie"));
  EXPECT_TRUE(EndsWith("movie-genre", "genre"));
  EXPECT_FALSE(EndsWith("e", "genre"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace("  "), "");
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt(" 10 ").value(), 10);
  EXPECT_FALSE(ParseInt("4x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("4.5").has_value());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("4.5").value(), 4.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").has_value());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "x", 3), "x=3");
  EXPECT_EQ(StrFormat("%05.2f", 1.5), "01.50");
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[rng.Zipf(100, 0.8)]++;
  // Rank 0 should be sampled far more often than rank 50.
  EXPECT_GT(counts[0], counts[50] * 3);
  for (auto& [rank, _] : counts) EXPECT_LT(rank, 100u);
}

TEST(RngTest, WordRespectsLength) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::string w = rng.Word(3, 8);
    EXPECT_GE(w.size(), 3u);
    EXPECT_LE(w.size(), 8u);
    for (char c : w) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  testing::internal::UnitTestImpl* unused = nullptr;
  (void)unused;
  (void)sink;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMicros(), t.ElapsedMillis());
}

// ---- CowChunkVector ----

using CowVec = CowChunkVector<std::string>;
using CowModel = std::map<size_t, std::string>;

// Checks `vec` against `model` through every read: count(), num_chunks(),
// num_leaves(), ForEach order and values, and Find on the model's keys and
// on their chunk neighbours.
void ExpectMatches(const CowVec& vec, const CowModel& model,
                   const std::string& what) {
  SCOPED_TRACE(what);
  std::set<size_t> chunks, leaves;
  for (const auto& [i, v] : model) {
    chunks.insert(i / CowVec::kChunkSlots);
    leaves.insert(i / CowVec::kLeafSlots);
  }
  ASSERT_EQ(vec.count(), model.size());
  ASSERT_EQ(vec.num_chunks(), chunks.size());
  ASSERT_EQ(vec.num_leaves(), leaves.size());
  using Entries = std::vector<std::pair<size_t, std::string>>;
  Entries seen;
  vec.ForEach([&](size_t i, const std::string& v) { seen.emplace_back(i, v); });
  ASSERT_EQ(seen, Entries(model.begin(), model.end()));
  for (const auto& [i, v] : model) {
    ASSERT_NE(vec.Find(i), nullptr) << i;
    ASSERT_EQ(*vec.Find(i), v) << i;
    for (size_t j : {i + 1, i + CowVec::kChunkSlots}) {
      auto it = model.find(j);
      ASSERT_EQ(vec.Contains(j), it != model.end()) << j;
    }
  }
}

// A seeded random walk of Put/Mut/Erase over four leaves' worth of slots,
// against a std::map model per version. Clones (of the head and of other
// clones) are taken and dropped at random steps and written too, so every
// leaf and chunk is shared by several versions when it is written. After
// every step each live version must still read exactly its own model —
// a write to one version never shows in another — and once every version
// is dropped the census is back where it started.
TEST(CowChunkVectorTest, RandomWritesNeverReachOtherVersions) {
  const int64_t live0 = CowLiveChunks();
  int leaf_drops = 0;
  {
    struct Version {
      CowVec vec;
      CowModel model;
    };
    std::vector<Version> versions(1);  // [0] is the head
    versions.reserve(12);
    Rng rng(20261018);
    // A few chunks per leaf, at both ends of it, and few slots per chunk,
    // so erases empty whole chunks and leaves as often as puts fill them.
    const size_t kChunkPicks[] = {0, 1, 64, CowVec::kLeafChunks - 1};
    auto pick = [&] {
      return rng.Uniform(4) * CowVec::kLeafSlots +
             kChunkPicks[rng.Uniform(4)] * CowVec::kChunkSlots +
             rng.Uniform(8);
    };
    for (int step = 0; step < 3000; ++step) {
      // Versions pile up, then drain: some steps write, some clone.
      const double erase_p = (step / 250) % 2 == 0 ? 0.3 : 0.7;
      Version& v =
          versions[rng.Bernoulli(0.7) ? 0 : rng.Uniform(versions.size())];
      const std::string value = "v" + std::to_string(step);
      const double op = rng.UniformDouble();
      if (op < 0.05) {
        if (versions.size() < 12) versions.push_back(v);
      } else if (op < 0.08) {
        if (versions.size() > 1) {
          versions.erase(versions.begin() + 1 +
                         rng.Uniform(versions.size() - 1));
        }
      } else if (op < 0.08 + erase_p * 0.92) {
        // Erase an engaged slot, or (a quarter of the time) any slot.
        size_t i = pick();
        if (!v.model.empty() && rng.Bernoulli(0.75)) {
          auto it = v.model.begin();
          std::advance(it, rng.Uniform(v.model.size()));
          i = it->first;
        }
        std::set<size_t> leaves_before;
        for (const auto& [k, x] : v.model) {
          leaves_before.insert(k / CowVec::kLeafSlots);
        }
        const int64_t census = CowLiveChunks();
        v.vec.Erase(i);
        if (v.model.erase(i) == 0) {
          EXPECT_EQ(CowLiveChunks(), census) << "erasing nothing copied";
        }
        leaf_drops += static_cast<int>(leaves_before.size()) -
                      static_cast<int>(v.vec.num_leaves());
      } else if (rng.Bernoulli(0.5) && !v.model.empty()) {
        auto it = v.model.begin();
        std::advance(it, rng.Uniform(v.model.size()));
        if (rng.Bernoulli(0.5)) {
          v.vec.Mut(it->first) = value;
        } else {
          std::string* p = v.vec.MutableFind(it->first);
          ASSERT_NE(p, nullptr);
          *p = value;
        }
        it->second = value;
      } else {
        const size_t i = pick();
        std::string& slot = v.vec.Put(i);
        auto it = v.model.find(i);
        ASSERT_EQ(slot, it == v.model.end() ? "" : it->second) << i;
        slot = value;
        v.model[i] = value;
        EXPECT_EQ(v.vec.MutableFind(i + 8), nullptr);  // outside the picks
      }
      for (size_t k = 0; k < versions.size(); ++k) {
        ExpectMatches(versions[k].vec, versions[k].model,
                      "step " + std::to_string(step) + ", version " +
                          std::to_string(k));
        if (testing::Test::HasFatalFailure()) return;
      }
      // Past the last leaf reads nothing and copies nothing.
      EXPECT_EQ(versions[0].vec.Find(5 * CowVec::kLeafSlots), nullptr);
    }
    EXPECT_GT(CowLiveChunks(), live0);
  }
  EXPECT_GT(leaf_drops, 0) << "the walk never emptied a leaf";
  EXPECT_EQ(CowLiveChunks(), live0) << "dropping every version leaked";
}

}  // namespace
}  // namespace mct
