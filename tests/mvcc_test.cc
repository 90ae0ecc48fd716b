// Concurrency battery for MVCC snapshot isolation (DESIGN.md §14).
//
// Three attack angles:
//  1. differential: randomized interleavings of reader and writer sessions;
//    every reader result must be byte-identical to a serial replay of the
//    commit history, truncated at the reader's pinned epoch, against a twin
//    database (snapshot isolation = "you see exactly a prefix of commits");
//  2. linearizability of commits: each committed statement mutates every
//    movie at once, so any snapshot exposing a half-applied commit changes
//    an invariant count; epochs observed by one session are monotone;
//  3. resource convergence: sustained update churn with snapshot-holding
//    readers must retire versions and free COW chunks once the pins drop
//    (mct.mvcc.* gauges + the process-global chunk census).
//
// The whole file runs under the tsan preset in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cow.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "mct/database.h"
#include "mct/durability.h"
#include "mct/mvcc.h"
#include "mcx/evaluator.h"
#include "movie_fixture.h"
#include "schema_oracle.h"
#include "serialize/schema.h"
#include "serve/server.h"
#include "storage/fault_env.h"
#include "workload/tpcw_data.h"
#include "workload/tpcw_db.h"

namespace mct {
namespace {

using serve::ColorServer;
using serve::CommittedStatement;
using serve::ServerOptions;
using serve::Session;
using testfix::BuildMovieDb;

constexpr char kDir[] = "/db";

// Read queries the differential battery replays. No constructors: results
// are stored nodes and atomics, so serialization is a pure function of the
// snapshot.
const char* const kReads[] = {
    "for $m in document(\"d\")/{red}descendant::movie return $m",
    "for $t in document(\"d\")/{red}descendant::tick return $t",
    "for $n in document(\"d\")/{blue}descendant::actor/{blue}child::name "
    "return $n",
    "for $m in document(\"d\")/{red}descendant::movie"
    "[{red}child::name = \"City Lights\"] return $m",
};

/// Deterministic byte rendering of a result against the snapshot it was
/// produced from: node identity + tag + content, atomics verbatim. Node
/// ids are creation-ordered, so a twin database replaying the same
/// statement sequence reproduces them exactly.
std::string Render(const MctDatabase& db, const mcx::QueryResult& r) {
  std::string out;
  for (const mcx::Item& it : r.items) {
    if (!it.is_node) {
      out += "a:" + it.atomic + ";";
      continue;
    }
    out += "n" + std::to_string(it.node) + ":" + db.Tag(it.node) + ":" +
           db.Content(it.node) + ";";
  }
  return out;
}

std::unique_ptr<ColorServer> OpenServer(FaultInjectionEnv* env,
                                        ServerOptions opts = {}) {
  auto server = ColorServer::Open(kDir, opts, env);
  EXPECT_TRUE(server.ok()) << server.status();
  Status s = (*server)->Bootstrap(BuildMovieDb().db);
  EXPECT_TRUE(s.ok()) << s;
  return std::move(*server);
}

/// Twin-database oracle: the bootstrapped fixture plus every committed
/// statement with epoch <= `epoch`, replayed serially.
std::unique_ptr<MctDatabase> OracleAt(
    const std::vector<CommittedStatement>& history, uint64_t epoch) {
  auto f = BuildMovieDb();
  for (const CommittedStatement& c : history) {
    if (c.epoch > epoch) break;  // history is in publish order
    mcx::EvalOptions o;
    o.default_color = c.default_color;
    mcx::Evaluator ev(f.db.get(), o);
    auto r = ev.Run(c.text);
    EXPECT_TRUE(r.ok()) << r.status() << " replaying: " << c.text;
  }
  return std::move(f.db);
}

std::string InsertTick(const std::string& movie, const std::string& label) {
  return "for $m in document(\"d\")/{red}descendant::movie"
         "[{red}child::name = \"" +
         movie + "\"] update $m { insert <tick>" + label +
         "</tick> into {red} }";
}

// ---------------------------------------------------------------------------
// 1. Differential snapshot-isolation test: randomized interleavings, every
//    reader byte-identical to the serial oracle at its pinned epoch.
// ---------------------------------------------------------------------------

struct Observation {
  uint64_t epoch = 0;
  int query = 0;
  std::string bytes;
};

// Shared body: randomized readers/writers against a server opened with
// `opts`; every observation must match the serial unsharded oracle. When
// the server is sharded this is exactly the ISSUE's differential gate —
// the oracle replay twin never calls SetShardCount.
void RunRandomizedReaderDifferential(const ServerOptions& opts) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env, opts);
  const char* movies[] = {"All About Eve", "City Lights", "Sunset Boulevard"};

  constexpr int kReaders = 4;
  constexpr int kWriters = 3;
  constexpr int kRounds = 12;

  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(0x5eed0 + w);
      auto session = server->Connect();
      ASSERT_TRUE(session.ok()) << session.status();
      for (int k = 0; k < kRounds; ++k) {
        const char* movie = movies[rng.Next() % 3];
        std::string stmt = InsertTick(
            movie, "w" + std::to_string(w) + "-" + std::to_string(k));
        auto r = (*session)->Run(stmt);
        ASSERT_TRUE(r.ok()) << r.status();
        if (rng.Next() % 4 == 0) std::this_thread::yield();
      }
    });
  }
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(0xbeef0 + i);
      auto session = server->Connect();
      ASSERT_TRUE(session.ok()) << session.status();
      for (int k = 0; k < kRounds; ++k) {
        ASSERT_TRUE((*session)->Begin().ok());
        // A few queries inside one transaction: all must agree on the
        // pinned epoch's state even as commits land concurrently.
        int probes = 1 + static_cast<int>(rng.Next() % 3);
        for (int p = 0; p < probes; ++p) {
          int q = static_cast<int>(rng.Next() % 4);
          auto r = (*session)->Run(kReads[q]);
          ASSERT_TRUE(r.ok()) << r.status();
          observed[i].push_back({(*session)->snapshot_epoch(), q,
                                 Render(*(*session)->snapshot_db(), *r)});
        }
        ASSERT_TRUE((*session)->Commit().ok());
        if (rng.Next() % 3 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();

  // Serial replay oracle, memoized per (epoch, query).
  std::vector<CommittedStatement> history = server->CommitHistory();
  for (size_t i = 1; i < history.size(); ++i) {
    ASSERT_GE(history[i].epoch, history[i - 1].epoch) << "history unordered";
  }
  std::map<uint64_t, std::unique_ptr<MctDatabase>> oracles;
  size_t checked = 0;
  for (const auto& per_reader : observed) {
    for (const Observation& ob : per_reader) {
      auto it = oracles.find(ob.epoch);
      if (it == oracles.end()) {
        it = oracles.emplace(ob.epoch, OracleAt(history, ob.epoch)).first;
      }
      mcx::Evaluator ev(it->second.get(), {});
      auto want = ev.Run(kReads[ob.query]);
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(ob.bytes, Render(*it->second, *want))
          << "reader diverged from serial replay at epoch " << ob.epoch
          << ", query " << ob.query;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);

  // Sharded servers additionally survive a WAL-replay restart: reopen the
  // directory (no Bootstrap), which recovers the checkpoint + WAL and sets
  // the shard count before publishing the seed epoch, and compare the
  // recovered state to the oracle at the final epoch.
  if (opts.shard_count > 1) {
    const uint64_t final_epoch = server->head_epoch();
    server.reset();  // releases the directory lock, flushes nothing extra
    auto reopened = ColorServer::Open(kDir, opts, &env);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    auto oracle = OracleAt(history, final_epoch);
    auto session = (*reopened)->Connect();
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE((*session)->Begin().ok());
    // Checkpoint reload renumbers nodes, so compare tag:content in document
    // order rather than node identity.
    auto render_values = [](const MctDatabase& db, const mcx::QueryResult& r) {
      std::string out;
      for (const mcx::Item& it : r.items) {
        out += it.is_node ? db.Tag(it.node) + ":" + db.Content(it.node) + ";"
                          : "a:" + it.atomic + ";";
      }
      return out;
    };
    for (int qi = 0; qi < 4; ++qi) {
      auto got = (*session)->Run(kReads[qi]);
      ASSERT_TRUE(got.ok()) << got.status();
      mcx::Evaluator ev(oracle.get(), {});
      auto want = ev.Run(kReads[qi]);
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(render_values(*(*session)->snapshot_db(), *got),
                render_values(*oracle, *want))
          << "sharded recovery diverged from oracle on query " << qi;
    }
    ASSERT_TRUE((*session)->Commit().ok());
  }
}

TEST(MvccDifferentialTest, RandomizedReadersMatchSerialOracle) {
  RunRandomizedReaderDifferential(ServerOptions{});
}

// Interval-range sharding (DESIGN.md §17): 4 shards, concurrent commits —
// every reader observation still byte-identical to the unsharded serial
// oracle, and the restarted sharded server replays the WAL to the same
// state.
TEST(MvccDifferentialTest, ShardedReadersMatchUnshardedSerialOracle) {
  ServerOptions opts;
  opts.shard_count = 4;
  opts.max_concurrent_writers = 2;
  RunRandomizedReaderDifferential(opts);
}

// ---------------------------------------------------------------------------
// 2. Linearizability of commits + snapshot stability under stress.
// ---------------------------------------------------------------------------

// Each commit inserts one tick into EVERY movie; a snapshot that exposes a
// half-applied commit breaks tick_count % 3 == 0. Parameterized over the
// session counts the acceptance criteria name ({2, 8}).
class MvccStressTest : public ::testing::TestWithParam<int> {};

void RunCommitAtomicityStress(const ServerOptions& opts, int sessions) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env, opts);
  const int rounds = 64 / sessions + 4;
  const char* kAllMovies =
      "for $m in document(\"d\")/{red}descendant::movie "
      "update $m { insert <tick>x</tick> into {red} }";
  const char* kCountTicks =
      "for $t in document(\"d\")/{red}descendant::tick return $t";

  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < sessions; ++i) {
    threads.emplace_back([&, i] {
      auto session = server->Connect();
      ASSERT_TRUE(session.ok()) << session.status();
      uint64_t last_epoch = 0;
      for (int k = 0; k < rounds; ++k) {
        ASSERT_TRUE((*session)->Begin().ok());
        uint64_t epoch = (*session)->snapshot_epoch();
        ASSERT_GE(epoch, last_epoch) << "snapshot epoch went backwards";
        last_epoch = epoch;

        auto first = (*session)->Run(kCountTicks);
        ASSERT_TRUE(first.ok()) << first.status();
        ASSERT_EQ(first->items.size() % 3, 0u)
            << "half-applied commit visible at epoch " << epoch;

        if (i % 2 == 0) {
          auto r = (*session)->Run(kAllMovies);
          ASSERT_TRUE(r.ok()) << r.status();
          committed.fetch_add(1);
          // The write re-pinned the session (read-your-writes).
          ASSERT_GT((*session)->snapshot_epoch(), epoch);
          last_epoch = (*session)->snapshot_epoch();
          auto mine = (*session)->Run(kCountTicks);
          ASSERT_TRUE(mine.ok());
          ASSERT_GT(mine->items.size(), first->items.size());
        } else {
          // Pure reader: the snapshot must not move mid-transaction.
          auto again = (*session)->Run(kCountTicks);
          ASSERT_TRUE(again.ok());
          ASSERT_EQ(again->items.size(), first->items.size())
              << "repeatable read violated within one transaction";
          ASSERT_EQ((*session)->snapshot_epoch(), epoch);
        }
        ASSERT_TRUE((*session)->Commit().ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // Totals linearize: every acknowledged commit is in the history exactly
  // once and contributed exactly 3 ticks to the final state.
  std::vector<CommittedStatement> history = server->CommitHistory();
  EXPECT_EQ(history.size(), committed.load());
  auto session = server->Connect();
  ASSERT_TRUE(session.ok());
  auto final_count = (*session)->Run(kCountTicks);
  ASSERT_TRUE(final_count.ok()) << final_count.status();
  EXPECT_EQ(final_count->items.size(), 3 * committed.load());
}

TEST_P(MvccStressTest, CommitsAtomicEpochsMonotone) {
  ServerOptions opts;
  opts.max_concurrent_writers = 2;
  RunCommitAtomicityStress(opts, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sessions, MvccStressTest, ::testing::Values(2, 8));

// The same atomicity battery with 4 interval-range shards: concurrent
// commits publish epochs while readers split each color's root interval
// into shard ranges as they read — runs under the tsan preset like the
// rest of this file.
TEST(ShardedChaosTest, CommitsAtomicEpochsMonotoneAcrossShards) {
  ServerOptions opts;
  opts.max_concurrent_writers = 2;
  opts.shard_count = 4;
  RunCommitAtomicityStress(opts, 8);
}

// ---------------------------------------------------------------------------
// 3. Epoch retirement: versions and COW chunks converge after churn.
// ---------------------------------------------------------------------------

TEST(MvccRetirementTest, ChurnedVersionsAndChunksAreReclaimed) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);
  MetricsRegistry& reg = MetricsRegistry::Global();

  const size_t head0 = server->mvcc().Head()->ResidentChunks();
  const int64_t live0 = CowLiveChunks();

  {
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
      threads.emplace_back([&, w] {
        auto session = server->Connect();
        ASSERT_TRUE(session.ok());
        for (int k = 0; k < 20; ++k) {
          auto r = (*session)->Run(InsertTick(
              "All About Eve", std::to_string(w) + "." + std::to_string(k)));
          ASSERT_TRUE(r.ok()) << r.status();
        }
      });
    }
    // Churning readers: pin, read, release — holding snapshots just long
    // enough that retirement has to actually wait for them.
    threads.emplace_back([&] {
      auto session = server->Connect();
      ASSERT_TRUE(session.ok());
      for (int k = 0; k < 30; ++k) {
        ASSERT_TRUE((*session)->Begin().ok());
        auto r = (*session)->Run(kReads[1]);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE((*session)->Commit().ok());
      }
    });
    for (auto& t : threads) t.join();
  }

  // All sessions dropped: only the head version may survive.
  EXPECT_EQ(server->mvcc().live_versions(), 1u);
  EXPECT_EQ(server->mvcc().pinned_snapshots(), 0);
  EXPECT_EQ(reg.gauge("mct.mvcc.live_versions")->value(), 1);
  EXPECT_EQ(reg.gauge("mct.mvcc.pinned_snapshots")->value(), 0);
  EXPECT_GT(reg.counter("mct.mvcc.epochs_published")->value(), 0u);
  EXPECT_GT(reg.counter("mct.mvcc.epochs_retired")->value(), 0u);

  // Chunk census: everything beyond the head's own growth was freed with
  // the retired versions (no epoch leaks COW chunks).
  const size_t head1 = server->mvcc().Head()->ResidentChunks();
  EXPECT_EQ(CowLiveChunks() - live0,
            static_cast<int64_t>(head1) - static_cast<int64_t>(head0));
}

// A clone's first index write copies one directory and one bucket per image
// it touches, plus the few node and tree chunks it edits and their leaves,
// whatever the size of the database: at two TPC-W scales the census rises
// by a small count fixed by the records the write touches, and dropping the
// clone gives every copy back.
TEST(MvccRetirementTest, FirstWriteCopiesOneBucketPerImageAtAnyScale) {
  std::map<std::string, std::vector<int64_t>> growth;
  std::vector<int64_t> colored_expected;
  for (double scale : {0.05, 0.2}) {
    auto t = workload::BuildTpcw(
        workload::GenerateTpcw(workload::TpcwScale::Default().ScaledBy(scale)),
        workload::SchemaKind::kMct);
    ASSERT_TRUE(t.ok()) << t.status();
    MctDatabase& db = *t->db;
    const NodeId customer = db.TagScan(t->cust, "customer").front();
    const NodeId uname = db.TagScan(t->cust, "uname").front();
    // Not indexed until it gains a color: coloring it in the clone enters
    // it into all three images.
    auto probe = db.CreateFreeElement("probe");
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(db.SetContent(*probe, "probe text").ok());
    ASSERT_TRUE(db.SetAttr(*probe, "id", "probe").ok());
    // Coloring the probe writes three tree records: the document's (a new
    // last child), its old last child's (a sibling link) and the probe's.
    // Each costs its chunk and its leaf, once per distinct one; the probe's
    // node record costs its chunk and leaf in the store.
    std::set<NodeId> tree_chunks, tree_leaves;
    for (NodeId n : {db.document(), db.Children(db.document(), t->cust).back(),
                     *probe}) {
      tree_chunks.insert(n / CowChunkVector<NodeId>::kChunkSlots);
      tree_leaves.insert(n / CowChunkVector<NodeId>::kLeafSlots);
    }
    colored_expected.push_back(
        static_cast<int64_t>(2 + tree_chunks.size() + tree_leaves.size()) + 6);

    using Write = std::function<Status(MctDatabase&)>;
    const std::vector<std::pair<std::string, Write>> writes = {
        {"SetContent",
         [&](MctDatabase& c) {
           return c.SetContent(uname, db.Content(uname));
         }},
        {"SetAttr",
         [&](MctDatabase& c) {
           return c.SetAttr(customer, "id", *db.FindAttr(customer, "id"));
         }},
        {"AddNodeColor",
         [&](MctDatabase& c) {
           return c.AddNodeColor(*probe, t->cust, db.document());
         }},
    };
    for (const auto& [name, write] : writes) {
      const int64_t before = CowLiveChunks();
      auto clone = db.CowClone();
      EXPECT_EQ(CowLiveChunks(), before) << name << ": cloning copied";
      ASSERT_TRUE(write(*clone).ok()) << name;
      growth[name].push_back(CowLiveChunks() - before);
      clone.reset();
      EXPECT_EQ(CowLiveChunks(), before) << name << ": drop leaked";
    }
  }
  // Rewriting one node's value costs its node chunk, the leaf above it,
  // the image's directory and the key's bucket.
  EXPECT_EQ(growth["SetContent"], (std::vector<int64_t>{4, 4}));
  EXPECT_EQ(growth["SetAttr"], (std::vector<int64_t>{4, 4}));
  // Coloring a node adds its store chunk and leaf, the tree chunks and
  // leaves counted above, and a directory and a bucket in each of the three
  // images: 12 at scale 0.05, where the probe (node 7,939) shares the
  // document's first leaf, and 13 at scale 0.2, where it does not.
  EXPECT_EQ(growth["AddNodeColor"], colored_expected);
}

// A clone's first write of a name its pool already holds (a node of a
// known tag, an attribute of a known name) leaves the name pool shared
// with its source; only a new name privatizes it, and only the clone's
// copy learns that name.
TEST(MvccRetirementTest, KnownNamesLeaveTheNamePoolShared) {
  auto t = workload::BuildTpcw(
      workload::GenerateTpcw(workload::TpcwScale::Tiny()),
      workload::SchemaKind::kMct);
  ASSERT_TRUE(t.ok()) << t.status();
  MctDatabase& db = *t->db;
  const NodeId customer = db.TagScan(t->cust, "customer").front();
  auto clone = db.CowClone();
  auto fresh = clone->CreateFreeElement("customer");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(clone->SetAttr(*fresh, "id", "c-fresh").ok());
  ASSERT_TRUE(clone->SetAttr(customer, "id", "c-renamed").ok());
  EXPECT_EQ(&clone->store().names(), &db.store().names());

  ASSERT_TRUE(clone->SetAttr(customer, "loyalty", "gold").ok());
  EXPECT_NE(&clone->store().names(), &db.store().names());
  EXPECT_NE(clone->store().names().Lookup("loyalty"), kInvalidNameId);
  EXPECT_EQ(db.store().names().Lookup("loyalty"), kInvalidNameId);

  auto other = db.CowClone();
  ASSERT_TRUE(other->CreateFreeElement("wishlist").ok());
  EXPECT_NE(&other->store().names(), &db.store().names());
  EXPECT_EQ(db.store().names().Lookup("wishlist"), kInvalidNameId);
  EXPECT_EQ(*db.FindAttr(customer, "id"), "c0");
}

// The gauges are written from authoritative state under the manager mutex,
// so a ResetForTest racing live traffic heals on the next transition
// instead of drifting by a lost delta.
TEST(MvccRetirementTest, GaugesSelfHealAfterMetricsReset) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);
  MetricsRegistry::Global().ResetForTest();
  auto session = server->Connect();
  ASSERT_TRUE(session.ok());
  auto r = (*session)->Run(InsertTick("City Lights", "post-reset"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(MetricsRegistry::Global().gauge("mct.mvcc.live_versions")->value(),
            static_cast<int64_t>(server->mvcc().live_versions()));
  EXPECT_EQ(
      MetricsRegistry::Global().gauge("mct.mvcc.pinned_snapshots")->value(),
      server->mvcc().pinned_snapshots());
}

// ---------------------------------------------------------------------------
// 4. Writer exclusivity + admission control + session cap.
// ---------------------------------------------------------------------------

TEST(ServeAdmissionTest, DirectoryWriterLockIsExclusive) {
  FaultInjectionEnv env;
  {
    auto server = ColorServer::Open(kDir, {}, &env);
    ASSERT_TRUE(server.ok()) << server.status();
    // Second writer-capable handle on the same (env, dir): refused, for
    // ColorServer and DurableSession alike.
    auto twin = ColorServer::Open(kDir, {}, &env);
    EXPECT_FALSE(twin.ok());
    auto durable = DurableSession::Open(kDir, &env);
    EXPECT_FALSE(durable.ok());
  }
  // Lock released with the server: reopening now works.
  auto reopened = DurableSession::Open(kDir, &env);
  EXPECT_TRUE(reopened.ok()) << reopened.status();
}

TEST(ServeAdmissionTest, SessionCapAndWriterGate) {
  FaultInjectionEnv env;
  ServerOptions opts;
  opts.max_sessions = 2;
  opts.max_concurrent_writers = 1;
  auto server = OpenServer(&env, opts);

  auto s1 = server->Connect();
  auto s2 = server->Connect();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_FALSE(server->Connect().ok()) << "session cap not enforced";
  s2->reset();
  EXPECT_TRUE(server->Connect().ok()) << "closed session not released";

  // Writer gate of 1 still commits from both sessions (serialized).
  auto s3 = server->Connect();
  ASSERT_TRUE(s3.ok());
  std::thread t([&] {
    auto r = (*s1)->Run(InsertTick("All About Eve", "gate-a"));
    ASSERT_TRUE(r.ok()) << r.status();
  });
  auto r = (*s3)->Run(InsertTick("City Lights", "gate-b"));
  ASSERT_TRUE(r.ok()) << r.status();
  t.join();
  EXPECT_EQ(server->CommitHistory().size(), 2u);
}

// Client text reaches the MCX parser directly: statements nested far past
// the parser's cap are refused with InvalidArgument instead of overflowing
// the stack, and the same server keeps answering.
TEST(ServeAdmissionTest, DeeplyNestedStatementsAreRefused) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);
  auto session = server->Connect();
  ASSERT_TRUE(session.ok()) << session.status();
  constexpr int kDepth = 20000;
  const std::string parens =
      std::string(kDepth, '(') + "1" + std::string(kDepth, ')');
  std::string ctors;
  for (int i = 0; i < kDepth; ++i) ctors += "<a>";
  for (int i = 0; i < kDepth; ++i) ctors += "</a>";
  for (const std::string& text : {parens, ctors}) {
    auto r = (*session)->Run(text);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  auto read = (*session)->Run(kReads[0]);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->items.size(), 3u);
}

TEST(ServeAdmissionTest, MillionTermAndChainIsRefused) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);
  auto session = server->Connect();
  ASSERT_TRUE(session.ok()) << session.status();
  // About 10 MB of predicate; its left-deep tree used to overflow the stack
  // when torn down.
  std::string text =
      "for $m in document(\"d\")/{red}descendant::movie where 1 = 1";
  for (int i = 1; i < 1000000; ++i) text += " and 1 = 1";
  text += " return $m";
  auto r = (*session)->Run(text);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  auto read = (*session)->Run(kReads[0]);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->items.size(), 3u);
}

// Group commit batches concurrent statements into shared epochs; a failing
// statement is rejected whole without poisoning its batch-mates.
TEST(ServeAdmissionTest, FailingStatementDoesNotPoisonBatch) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);
  auto session = server->Connect();
  ASSERT_TRUE(session.ok());
  uint64_t before = server->head_epoch();

  // Updates binding zero rows apply vacuously (ok, zero count); a static
  // failure comes from an unknown color.
  auto bad = (*session)->Run(
      "for $m in document(\"d\")/{chartreuse}descendant::movie "
      "update $m { insert <tick>x</tick> into {chartreuse} }");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(server->head_epoch(), before) << "failed statement published";
  EXPECT_TRUE(server->CommitHistory().empty());

  auto good = (*session)->Run(InsertTick("All About Eve", "ok"));
  EXPECT_TRUE(good.ok()) << good.status() << " (batch poisoned?)";
  EXPECT_EQ(server->head_epoch(), before + 1);
}

// ---------------------------------------------------------------------------
// 4. Multi-tenant secure color views (DESIGN.md §16): sessions with
//    disjoint masks share one server, one snapshot chain, and one plan
//    cache — and must never observe each other's private hierarchy.
// ---------------------------------------------------------------------------

TEST(ServeMaskTest, StrictMaskedSessionRejectsForeignColor) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);  // mask_enforcement defaults to kStrict
  testfix::MovieDb ids = BuildMovieDb();  // same registration order as server

  auto red = server->Connect(ColorMask::AllowOnly(ColorSet::Of(ids.red)));
  ASSERT_TRUE(red.ok()) << red.status();
  auto own = (*red)->Run(
      "for $m in document(\"d\")/{red}descendant::movie return $m");
  ASSERT_TRUE(own.ok()) << own.status();
  EXPECT_EQ(own->items.size(), 3u);

  auto foreign = (*red)->Run(
      "for $n in document(\"d\")/{blue}descendant::actor return $n");
  ASSERT_FALSE(foreign.ok());
  EXPECT_TRUE(foreign.status().IsPermissionDenied()) << foreign.status();

  // An unmasked session on the same server is unaffected.
  auto open = server->Connect();
  ASSERT_TRUE(open.ok());
  auto all = (*open)->Run(
      "for $n in document(\"d\")/{blue}descendant::actor return $n");
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->items.size(), 2u);
}

TEST(ServeMaskTest, StrictMaskRejectsBeforeWalAppend) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);
  testfix::MovieDb ids = BuildMovieDb();
  // green is readable but not writable for this tenant.
  auto session = server->Connect(
      ColorMask(ColorSet::Of(ids.red).Union(ColorSet::Of(ids.green)),
                ColorSet::Of(ids.red)));
  ASSERT_TRUE(session.ok()) << session.status();
  const uint64_t before = server->head_epoch();

  auto bad = (*session)->Run(
      "for $a in document(\"d\")/{green}descendant::movie-award "
      "update $a { insert <tick>x</tick> into {green} }");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsPermissionDenied()) << bad.status();
  // Rejected before any side effect: nothing published, nothing in the
  // WAL-backed history (the PR 8 killed-update contract).
  EXPECT_EQ(server->head_epoch(), before);
  EXPECT_TRUE(server->CommitHistory().empty());

  // The same session's in-mask update commits normally afterwards.
  auto good = (*session)->Run(InsertTick("All About Eve", "ok"));
  EXPECT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(server->head_epoch(), before + 1);
}

TEST(ServeMaskTest, PlanCacheHitsNeverCrossMaskFingerprints) {
  FaultInjectionEnv env;
  ServerOptions opts;
  opts.mask_enforcement = mcx::AnalyzeMode::kWarn;  // admit, filter at layer 3
  auto server = OpenServer(&env, opts);
  testfix::MovieDb ids = BuildMovieDb();
  const char* kQ =
      "for $m in document(\"d\")/{red}descendant::movie return $m";

  auto open = server->Connect();
  ASSERT_TRUE(open.ok());
  auto r1 = (*open)->Run(kQ);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_EQ(r1->items.size(), 3u);
  auto r2 = (*open)->Run(kQ);  // exact hit in the unmasked (fp = 0) slice
  ASSERT_TRUE(r2.ok());
  const auto s1 = server->plan_cache().stats();
  EXPECT_GE(s1.hits, 1u);

  // A blue-only tenant running the same text must miss the unmasked slice
  // and see nothing — a cross-fingerprint hit would leak an unpruned plan.
  auto masked =
      server->Connect(ColorMask::AllowOnly(ColorSet::Of(ids.blue)));
  ASSERT_TRUE(masked.ok());
  auto r3 = (*masked)->Run(kQ);
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_EQ(r3->items.size(), 0u) << "cached plan crossed tenants";
  const auto s2 = server->plan_cache().stats();
  EXPECT_EQ(s2.misses, s1.misses + 1)
      << "masked lookup hit another tenant's slice";

  // Second masked run hits its own slice and stays empty.
  auto r4 = (*masked)->Run(kQ);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4->items.size(), 0u);
  const auto s3 = server->plan_cache().stats();
  EXPECT_EQ(s3.hits, s2.hits + 1);

  // The unmasked tenant still sees full results from its slice.
  auto r5 = (*open)->Run(kQ);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5->items.size(), 3u);
}

// Masked readers project the schema while the committer adds a new element
// type on every commit. Each reader's projection of its pinned snapshot
// equals the walk over that snapshot and holds every type committed before
// the pin — the type counts a commit privatizes never leak into, or go
// missing from, a published version. Runs under tsan with the whole file.
TEST(ServeMaskTest, MaskedReadersProjectSchemaWhileCommitsAddTypes) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);
  testfix::MovieDb ids = BuildMovieDb();
  const ColorMask red_only = ColorMask::AllowOnly(ColorSet::Of(ids.red));
  constexpr int kCommits = 10;
  std::atomic<int> committed{0};
  std::atomic<bool> writing{true};

  std::thread writer([&] {
    [&] {
      auto session = server->Connect();
      ASSERT_TRUE(session.ok()) << session.status();
      for (int k = 0; k < kCommits; ++k) {
        const std::string tag = "t" + std::to_string(k);
        auto r = (*session)->Run(
            "for $m in document(\"d\")/{red}descendant::movie "
            "update $m { insert <" + tag + ">x</" + tag + "> into {red} }");
        ASSERT_TRUE(r.ok()) << r.status();
        ASSERT_TRUE((*session)->Commit().ok());
        committed.store(k + 1);
      }
    }();
    writing.store(false);  // also after a failed assertion: readers stop
  });
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      auto session = server->Connect(red_only);
      ASSERT_TRUE(session.ok()) << session.status();
      int rounds = 0;
      while (writing.load() || rounds < 2) {
        ++rounds;
        const int known = committed.load();
        ASSERT_TRUE((*session)->Begin().ok());
        // The masked statement projects the schema for its visibility
        // analysis on the session's snapshot.
        auto r = (*session)->Run(
            "for $m in document(\"d\")/{red}descendant::movie return $m");
        ASSERT_TRUE(r.ok()) << r.status();
        ASSERT_EQ(r->items.size(), 3u);
        const MctDatabase& snap = *(*session)->snapshot_db();
        const serialize::MctSchema schema = serialize::InferSchema(snap);
        ASSERT_TRUE(testfix::ProjectionMatchesWalk(snap));
        for (int k = 0; k < known; ++k) {
          const serialize::ElementType* t =
              schema.Find("t" + std::to_string(k));
          ASSERT_NE(t, nullptr) << "t" << k << " missing at epoch "
                                << (*session)->snapshot_epoch();
          EXPECT_DOUBLE_EQ(schema.Quant(t->name, "red"), 1.0);
        }
        ASSERT_TRUE((*session)->Commit().ok());
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
}

// Chaos battery: disjoint-masked tenants churn concurrently (kWarn, so
// statements execute and rely on evaluator-layer filtering). Red tenants
// commit ticks and must see their own writes atomically; blue tenants must
// see their actors and never a single red node — and vice versa. Runs
// under the tsan preset in CI like the rest of this file.
class MaskedChaosTest : public ::testing::TestWithParam<int> {};

void RunDisjointTenantChaos(ServerOptions opts, int sessions) {
  FaultInjectionEnv env;
  opts.mask_enforcement = mcx::AnalyzeMode::kWarn;
  opts.max_concurrent_writers = 2;
  auto server = OpenServer(&env, opts);
  testfix::MovieDb ids = BuildMovieDb();
  const ColorMask red_only = ColorMask::AllowOnly(ColorSet::Of(ids.red));
  const ColorMask blue_only = ColorMask::AllowOnly(ColorSet::Of(ids.blue));

  const char* kAllMovies =
      "for $m in document(\"d\")/{red}descendant::movie "
      "update $m { insert <tick>x</tick> into {red} }";
  const char* kCountTicks =
      "for $t in document(\"d\")/{red}descendant::tick return $t";
  const char* kActorNames =
      "for $n in document(\"d\")/{blue}descendant::actor/{blue}child::name "
      "return $n";

  const int rounds = 48 / sessions + 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < sessions; ++i) {
    threads.emplace_back([&, i] {
      const bool red_tenant = i % 2 == 0;
      auto session = server->Connect(red_tenant ? red_only : blue_only);
      ASSERT_TRUE(session.ok()) << session.status();
      for (int k = 0; k < rounds; ++k) {
        ASSERT_TRUE((*session)->Begin().ok());
        // The other tenant's hierarchy is invisible, every round.
        auto foreign =
            (*session)->Run(red_tenant ? kActorNames : kCountTicks);
        ASSERT_TRUE(foreign.ok()) << foreign.status();
        ASSERT_EQ(foreign->items.size(), 0u) << "masked color leaked";
        if (red_tenant) {
          // Own hierarchy: fully visible, commit-atomic (ticks arrive in
          // multiples of 3), and read-your-writes after a commit.
          auto ticks = (*session)->Run(kCountTicks);
          ASSERT_TRUE(ticks.ok()) << ticks.status();
          ASSERT_EQ(ticks->items.size() % 3, 0u);
          auto w = (*session)->Run(kAllMovies);
          ASSERT_TRUE(w.ok()) << w.status();
          auto mine = (*session)->Run(kCountTicks);
          ASSERT_TRUE(mine.ok());
          ASSERT_GT(mine->items.size(), ticks->items.size());
        } else {
          auto actors = (*session)->Run(kActorNames);
          ASSERT_TRUE(actors.ok()) << actors.status();
          ASSERT_EQ(actors->items.size(), 2u);
        }
        ASSERT_TRUE((*session)->Commit().ok());
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST_P(MaskedChaosTest, DisjointTenantsNeverLeak) {
  RunDisjointTenantChaos(ServerOptions{}, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sessions, MaskedChaosTest, ::testing::Values(2, 8));

// Masked-tenant sweep over a sharded server: interval pruning happens
// after mask filtering (ops.cc: MaskBlocks precedes any shard logic), so
// disjoint tenants stay perfectly isolated at 4 shards under concurrent
// commit churn.
TEST(ShardedChaosTest, MaskedTenantsNeverLeakAcrossShards) {
  ServerOptions opts;
  opts.shard_count = 4;
  RunDisjointTenantChaos(opts, 8);
}

// ---------------------------------------------------------------------------
// 5. Checkpoints under load.
// ---------------------------------------------------------------------------

// ColorServer::Checkpoint serializes the published head version in place
// while reader sessions share it and a writer commits. Reopening the
// directory must recover every acknowledged commit, and replay from the
// WAL only the commits made after the last checkpoint.
TEST(ServeCheckpointTest, CheckpointUnderLoadKeepsEveryAcknowledgedCommit) {
  FaultInjectionEnv env;
  auto server = OpenServer(&env);
  const char* movies[] = {"All About Eve", "City Lights", "Sunset Boulevard"};
  std::set<std::string> acked;
  auto commit = [&](Session* session, int k, const std::string& label) {
    auto r = session->Run(InsertTick(movies[k % 3], label));
    EXPECT_TRUE(r.ok()) << r.status();
    if (r.ok()) acked.insert(label);
  };

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      auto session = server->Connect();
      ASSERT_TRUE(session.ok()) << session.status();
      for (int k = 0; !stop.load(); ++k) {
        ASSERT_TRUE((*session)->Begin().ok());
        auto r = (*session)->Run(kReads[(i + k) % 4]);
        ASSERT_TRUE(r.ok()) << r.status();
        ASSERT_TRUE((*session)->Commit().ok());
      }
    });
  }
  constexpr int kDuring = 24;
  auto writer_session = server->Connect();
  ASSERT_TRUE(writer_session.ok()) << writer_session.status();
  std::atomic<int> committed{0};
  std::thread writer([&] {
    for (int k = 0; k < kDuring; ++k) {
      commit(writer_session->get(), k, "during-" + std::to_string(k));
      committed.fetch_add(1);
    }
  });
  // Checkpoint four times while the writer is committing, then once after.
  for (int c = 1; c <= 4; ++c) {
    while (committed.load() < c * kDuring / 5) std::this_thread::yield();
    EXPECT_TRUE(server->Checkpoint().ok());
  }
  writer.join();
  ASSERT_TRUE(server->Checkpoint().ok());
  constexpr int kAfter = 5;
  for (int k = 0; k < kAfter; ++k) {
    commit(writer_session->get(), k, "after-" + std::to_string(k));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_EQ(acked.size(), static_cast<size_t>(kDuring + kAfter));
  writer_session->reset();
  server.reset();

  auto recovered = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->replayed_records, static_cast<uint64_t>(kAfter));
  mcx::Evaluator ev(recovered->db.get(), {});
  auto ticks = ev.Run(kReads[1]);
  ASSERT_TRUE(ticks.ok()) << ticks.status();
  std::set<std::string> found;
  for (const mcx::Item& it : ticks->items) {
    found.insert(recovered->db->Content(it.node));
  }
  EXPECT_EQ(found, acked);
  EXPECT_EQ(ticks->items.size(), acked.size());
}

}  // namespace
}  // namespace mct
