// Kill-point matrix over FaultInjectionEnv: for every injected crash point
// (WAL append, torn WAL tail, checkpoint temp write, checkpoint rename,
// post-rename prune, WAL reset), RecoverDatabase must converge to a database
// isomorphic to either the pre-update or the post-update state — never a
// torn intermediate.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "mct/durability.h"
#include "mct/snapshot.h"
#include "mcx/evaluator.h"
#include "serialize/exchange.h"
#include "movie_fixture.h"
#include "schema_oracle.h"
#include "serve/server.h"
#include "storage/fault_env.h"

#include <thread>
#include <vector>

namespace mct {
namespace {

using serialize::DatabasesIsomorphic;
using testfix::BuildMovieDb;

// The update statements of the matrix, applied in order. Each one changes
// observable state, so isomorphism distinguishes "before" from "after".
constexpr const char* kUpdates[] = {
    // U1: give Bette Davis a birthDate (blue insert).
    "for $a in document(\"d\")/{blue}descendant::actor"
    "[{blue}child::name = \"Bette Davis\"] "
    "update $a { insert <birthDate>1908-04-05</birthDate> into {blue} }",
    // U2: delete the votes of every movie with votes > 10 (green delete).
    "for $m in document(\"d\")/{green}descendant::movie"
    "[{green}child::votes > 10] "
    "update $m { delete {green} votes }",
    // U3: Sunset Boulevard's votes become "9" (green replace).
    "for $m in document(\"d\")/{green}descendant::movie"
    "[{green}child::name = \"Sunset Boulevard\"] "
    "update $m { replace {green}child::votes with \"9\" }",
};

/// The movie database after the first `n` updates, built in memory with a
/// plain (non-durable) evaluator — the oracle each recovery compares against.
std::unique_ptr<MctDatabase> ExpectedDb(size_t n) {
  auto f = BuildMovieDb();
  for (size_t i = 0; i < n; ++i) {
    mcx::Evaluator ev(f.db.get(), {});
    auto r = ev.Run(kUpdates[i]);
    EXPECT_TRUE(r.ok()) << r.status();
  }
  return std::move(f.db);
}

void ExpectState(MctDatabase* got, size_t n) {
  auto want = ExpectedDb(n);
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(*got, *want, &why))
      << "not the state after " << n << " updates: " << why;
  // Checkpoint load and WAL replay keep the type counts current.
  EXPECT_TRUE(testfix::ProjectionMatchesWalk(*got));
}

constexpr char kDir[] = "/db";

/// Opens a session on `env`, bootstraps the movie fixture, and applies U1,
/// leaving a checkpoint at "fixture" state plus one durable WAL record.
std::unique_ptr<DurableSession> SetupSession(FaultInjectionEnv* env) {
  auto s = DurableSession::Open(kDir, env);
  EXPECT_TRUE(s.ok()) << s.status();
  EXPECT_TRUE((*s)->Bootstrap(BuildMovieDb().db).ok());
  auto r = (*s)->Run(kUpdates[0]);
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->updated_count, 0u);
  return std::move(*s);
}

TEST(RecoveryTest, CleanReopenSeesAllUpdates) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  s.reset();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->replayed_records, 2u);
  EXPECT_FALSE(rec->wal_tail_truncated);
  ExpectState(rec->db.get(), 2);
}

TEST(RecoveryTest, CrashDuringWalAppendRecoversPreUpdateState) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  env.FailNthAppend("wal.log", 1);
  auto r = s->Run(kUpdates[1]);
  ASSERT_FALSE(r.ok());  // the commit correctly reports failure
  env.SimulateCrash();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ExpectState(rec->db.get(), 1);
}

TEST(RecoveryTest, EveryTornAppendPrefixRecoversPreOrPostState) {
  // Measure the record U2 appends by running it once with fsync disabled.
  uint64_t tail_bytes;
  {
    FaultInjectionEnv env;
    auto s = SetupSession(&env);
    ASSERT_TRUE(s->Run(kUpdates[1], 0, /*sync_each=*/false).ok());
    tail_bytes = env.UnsyncedBytes("/db/wal.log");
    ASSERT_GT(tail_bytes, 17u);
  }
  // Crash with every possible prefix of that record on disk.
  for (uint64_t keep = 0; keep <= tail_bytes; ++keep) {
    FaultInjectionEnv env;
    auto s = SetupSession(&env);
    ASSERT_TRUE(s->Run(kUpdates[1], 0, /*sync_each=*/false).ok());
    env.SimulateCrashKeepingPrefix("wal.log", keep);
    auto rec = RecoverDatabase(kDir, &env);
    ASSERT_TRUE(rec.ok()) << "keep=" << keep << ": " << rec.status();
    // A whole record replays; any torn prefix is truncated away.
    size_t want = keep == tail_bytes ? 2 : 1;
    EXPECT_EQ(rec->wal_tail_truncated, keep != 0 && keep != tail_bytes)
        << "keep=" << keep;
    ExpectState(rec->db.get(), want);
    // Recovery repaired the log: running it again is clean.
    auto again = RecoverDatabase(kDir, &env);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->wal_tail_truncated) << "keep=" << keep;
    ExpectState(again->db.get(), want);
  }
}

TEST(RecoveryTest, CrashDuringCheckpointTempWriteKeepsWalState) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  env.FailNthAppend(".tmp", 1);
  ASSERT_FALSE(s->Checkpoint().ok());
  env.SimulateCrash();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->replayed_records, 2u);  // old checkpoint + full WAL replay
  ExpectState(rec->db.get(), 2);
}

TEST(RecoveryTest, CrashDuringCheckpointRenameKeepsWalState) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  env.FailNextRename();
  ASSERT_FALSE(s->Checkpoint().ok());
  env.SimulateCrash();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->replayed_records, 2u);
  ExpectState(rec->db.get(), 2);
}

TEST(RecoveryTest, CrashAfterRenameBeforePruneUsesNewCheckpoint) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  env.FailNextRemove();  // checkpoint lands, pruning the old one fails
  ASSERT_FALSE(s->Checkpoint().ok());
  env.SimulateCrash();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  // The new checkpoint covers both records; the stale WAL is filtered by LSN.
  EXPECT_EQ(rec->replayed_records, 0u);
  ExpectState(rec->db.get(), 2);
}

TEST(RecoveryTest, CrashDuringWalResetAfterCheckpointIsFilteredByLsn) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  // The checkpoint itself succeeds; re-creating the truncated WAL fails.
  env.FailNthAppend("wal.log", 1);  // next wal.log append = the fresh magic
  ASSERT_FALSE(s->Checkpoint().ok());
  env.SimulateCrash();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->replayed_records, 0u);
  ExpectState(rec->db.get(), 2);
}

TEST(RecoveryTest, CorruptNewestCheckpointFallsBackToOlderOne) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Checkpoint().ok());  // checkpoint-000002 at state 1
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  ASSERT_TRUE(s->Checkpoint().ok());  // checkpoint-000003 at state 2
  s.reset();
  // Re-plant the older checkpoint (pruned by the newer one), then corrupt
  // the newest.
  {
    auto older = ExpectedDb(1);
    ASSERT_TRUE(
        SaveSnapshot(*older, std::string(kDir) + "/checkpoint-000002.snap",
                     &env, /*last_lsn=*/1)
            .ok());
    auto bytes = env.ReadFileToString(std::string(kDir) +
                                      "/checkpoint-000003.snap");
    ASSERT_TRUE(bytes.ok());
    std::string bad = *bytes;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
    auto f = env.NewWritableFile(std::string(kDir) + "/checkpoint-000003.snap",
                                 true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(bad).ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  MetricsRegistry::Global().ResetForTest();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(MetricsRegistry::Global()
                .counter("mct.recovery.checkpoint_rejects")
                ->value(),
            1u);
  // Fallback checkpoint has state 1; the WAL was reset at the newest
  // checkpoint, so U2 is gone — recovery honestly reports the older state.
  ExpectState(rec->db.get(), 1);
}

TEST(RecoveryTest, AllCheckpointsCorruptIsCorruptionNotSilentEmpty) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  s.reset();
  auto names = env.ListDir(kDir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    if (name.find("checkpoint-") != 0) continue;
    std::string path = std::string(kDir) + "/" + name;
    auto f = env.NewWritableFile(path, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("garbage").ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
}

TEST(RecoveryTest, MissingDirectoryRecoversToEmptyDatabase) {
  FaultInjectionEnv env;
  auto rec = RecoverDatabase("/nonexistent", &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->checkpoint_lsn, 0u);
  EXPECT_EQ(rec->next_lsn, 1u);
  MctDatabase empty;
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(*rec->db, empty, &why)) << why;
}

TEST(RecoveryTest, RecoveryIsIdempotent) {
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  env.SimulateCrash();
  auto first = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(first.ok());
  auto second = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->next_lsn, second->next_lsn);
  std::string why;
  EXPECT_TRUE(DatabasesIsomorphic(*first->db, *second->db, &why)) << why;
  ExpectState(second->db.get(), 2);
}

TEST(RecoveryTest, SessionContinuesAcrossCrashesAndReopens) {
  FaultInjectionEnv env;
  {
    auto s = SetupSession(&env);
    env.SimulateCrash();
  }
  {
    auto s = DurableSession::Open(kDir, &env);
    ASSERT_TRUE(s.ok()) << s.status();
    ExpectState((*s)->db(), 1);
    ASSERT_TRUE((*s)->Run(kUpdates[1]).ok());
    ASSERT_TRUE((*s)->Run(kUpdates[2]).ok());
    env.SimulateCrash();
  }
  auto s = DurableSession::Open(kDir, &env);
  ASSERT_TRUE(s.ok()) << s.status();
  ExpectState((*s)->db(), 3);
  // LSNs never regress across reopens.
  EXPECT_GE((*s)->next_lsn(), 4u);
}

TEST(RecoveryTest, UpdateWithTheLongestAcceptedChainReplays) {
  // The WAL logs the printed statement, which drops the parentheses that
  // split a `where` chain; whatever the parser accepted must replay. U3
  // guarded by `(c1 and ... and c<left>) and c1 and ... and c<right>`.
  auto guarded_u3 = [](int left, int right) {
    auto chain = [](int terms) {
      std::string out = "1 = 1";
      for (int i = 1; i < terms; ++i) out += " and 1 = 1";
      return out;
    };
    return "for $m in document(\"d\")/{green}descendant::movie"
           "[{green}child::name = \"Sunset Boulevard\"] where (" +
           chain(left) + ") and " + chain(right) +
           " update $m { replace {green}child::votes with \"9\" }";
  };
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  // 399 `and` nodes: over the cap, refused before anything is logged.
  EXPECT_TRUE(s->Run(guarded_u3(200, 200)).status().IsInvalidArgument());
  // 256 `and` nodes: the most a statement may hold.
  auto r = s->Run(guarded_u3(128, 129));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->updated_count, 0u);
  env.SimulateCrash();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->replayed_records, 3u);
  ExpectState(rec->db.get(), 3);
}

TEST(RecoveryTest, MetricsCountAppendsFsyncsAndReplays) {
  MetricsRegistry::Global().ResetForTest();
  FaultInjectionEnv env;
  auto s = SetupSession(&env);
  ASSERT_TRUE(s->Run(kUpdates[1]).ok());
  auto& m = MetricsRegistry::Global();
  EXPECT_EQ(m.counter("mct.wal.appends")->value(), 2u);
  // One fsync per update, plus one from Bootstrap's checkpoint syncing the
  // freshly-written WAL magic.
  EXPECT_EQ(m.counter("mct.wal.fsyncs")->value(), 3u);
  EXPECT_GT(m.counter("mct.wal.bytes")->value(), 0u);
  EXPECT_EQ(m.counter("mct.checkpoint.writes")->value(), 1u);  // bootstrap
  EXPECT_GT(m.counter("mct.checkpoint.bytes")->value(), 0u);
  env.SimulateCrash();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(m.counter("mct.recovery.count")->value(), 2u);  // Open + this
  EXPECT_EQ(m.counter("mct.recovery.replayed_records")->value(), 2u);
  EXPECT_EQ(m.counter("mct.recovery.torn_tails")->value(), 0u);
}

/// A snapshot's bytes, written through `env`.
std::string SnapshotBytes(MctDatabase& db, FaultInjectionEnv* env,
                          const std::string& path) {
  EXPECT_TRUE(SaveSnapshot(db, path, env).ok());
  auto bytes = env->ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

// DurableSession::Run and RecoverDatabase plan each statement, as the
// serving layer does, and planning changes no result: a WAL replayed by
// RecoverDatabase and the same records run planner-off on the same
// checkpoint build the same node ids and the same snapshot bytes.
TEST(RecoveryTest, PlannedReplayMatchesPlannerOffReplay) {
  Counter* planned =
      MetricsRegistry::Global().counter("mct.planner.statements");
  FaultInjectionEnv env;
  {
    auto s = DurableSession::Open(kDir, &env);
    ASSERT_TRUE(s.ok()) << s.status();
    ASSERT_TRUE((*s)->Bootstrap(BuildMovieDb().db).ok());
    for (const char* update : kUpdates) {
      const uint64_t before = planned->value();
      auto r = (*s)->Run(update);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_GT(planned->value(), before) << "ran unplanned: " << update;
    }
  }
  env.SimulateCrash();
  const uint64_t before_replay = planned->value();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_EQ(rec->replayed_records, std::size(kUpdates));
  EXPECT_GE(planned->value() - before_replay, std::size(kUpdates))
      << "replay ran unplanned";

  // The oracle: the checkpoint recovery started from, and the WAL's
  // records run planner-off.
  auto names = env.ListDir(kDir);
  ASSERT_TRUE(names.ok()) << names.status();
  std::string checkpoint;
  for (const std::string& name : *names) {
    if (name.starts_with("checkpoint-")) checkpoint = name;
  }
  ASSERT_FALSE(checkpoint.empty());
  auto oracle = OpenSnapshot(std::string(kDir) + "/" + checkpoint, &env);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto wal = ReadWal(&env, WalFilePath(kDir));
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_EQ(wal->records.size(), std::size(kUpdates));
  for (const WalRecord& record : wal->records) {
    uint32_t default_color = 0;
    std::memcpy(&default_color, record.payload.data(), sizeof(default_color));
    mcx::EvalOptions o;
    o.default_color = static_cast<ColorId>(default_color);
    ASSERT_FALSE(o.planner);
    mcx::Evaluator ev(oracle->get(), o);
    auto r = ev.Run(std::string_view(record.payload).substr(sizeof(uint32_t)));
    ASSERT_TRUE(r.ok()) << r.status();
  }

  MctDatabase& got = *rec->db;
  MctDatabase& want = **oracle;
  ASSERT_EQ(got.store().size(), want.store().size());
  ASSERT_EQ(got.num_colors(), want.num_colors());
  for (ColorId c = 0; c < got.num_colors(); ++c) {
    EXPECT_EQ(got.tree(c)->PreOrder(), want.tree(c)->PreOrder())
        << "color " << got.ColorName(c);
  }
  EXPECT_EQ(SnapshotBytes(got, &env, "/snap/planned"),
            SnapshotBytes(want, &env, "/snap/planner_off"));
  ExpectState(&got, std::size(kUpdates));
}

TEST(RecoveryTest, RealFilesystemEndToEnd) {
  std::string dir = testing::TempDir() + "/mct_recovery_e2e";
  std::filesystem::remove_all(dir);
  {
    auto s = DurableSession::Open(dir);
    ASSERT_TRUE(s.ok()) << s.status();
    ASSERT_TRUE((*s)->Bootstrap(BuildMovieDb().db).ok());
    ASSERT_TRUE((*s)->Run(kUpdates[0]).ok());
    ASSERT_TRUE((*s)->Run(kUpdates[1]).ok());
    // No clean shutdown: the session is dropped with the WAL as the only
    // record of the updates.
  }
  auto s = DurableSession::Open(dir);
  ASSERT_TRUE(s.ok()) << s.status();
  ExpectState((*s)->db(), 2);
  ASSERT_TRUE((*s)->Checkpoint().ok());
  ASSERT_TRUE((*s)->Run(kUpdates[2]).ok());
  s->reset();
  auto rec = RecoverDatabase(dir);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->replayed_records, 1u);  // only U3 is past the checkpoint
  ExpectState(rec->db.get(), 3);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash during concurrent group commit (the serving layer, DESIGN.md §14).
// The kill points target the commit path's own ordering contract: WAL
// append -> one group fsync -> publish. Acknowledged commits must survive
// any crash; unacknowledged ones may only vanish whole or as a prefix.
// ---------------------------------------------------------------------------

std::string TickInsert(const std::string& movie, const std::string& label) {
  return "for $m in document(\"d\")/{red}descendant::movie"
         "[{red}child::name = \"" +
         movie + "\"] update $m { insert <tick>" + label +
         "</tick> into {red} }";
}

/// Bootstrapped fixture plus the first `limit` committed statements.
std::unique_ptr<MctDatabase> ServerOracle(
    const std::vector<serve::CommittedStatement>& history, size_t limit) {
  auto f = BuildMovieDb();
  for (size_t i = 0; i < limit && i < history.size(); ++i) {
    mcx::EvalOptions o;
    o.default_color = history[i].default_color;
    mcx::Evaluator ev(f.db.get(), o);
    auto r = ev.Run(history[i].text);
    EXPECT_TRUE(r.ok()) << r.status();
  }
  return std::move(f.db);
}

void ExpectServerState(MctDatabase* got,
                       const std::vector<serve::CommittedStatement>& history,
                       size_t limit, const char* what) {
  auto want = ServerOracle(history, limit);
  std::string why;
  EXPECT_TRUE(serialize::DatabasesIsomorphic(*got, *want, &why))
      << what << ": " << why;
}

TEST(ServeRecoveryTest, CrashAfterConcurrentCommitsLosesNothingAcknowledged) {
  FaultInjectionEnv env;
  std::vector<serve::CommittedStatement> history;
  {
    auto server = serve::ColorServer::Open(kDir, {}, &env);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE((*server)->Bootstrap(BuildMovieDb().db).ok());

    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        auto session = (*server)->Connect();
        ASSERT_TRUE(session.ok());
        for (int k = 0; k < 6; ++k) {
          auto r = (*session)->Run(TickInsert(
              "City Lights", std::to_string(w) + "-" + std::to_string(k)));
          ASSERT_TRUE(r.ok()) << r.status();
        }
      });
    }
    for (auto& t : writers) t.join();

    // A reader pins a snapshot, the power goes out under it: its in-memory
    // version is untouched, so the open transaction stays consistent.
    auto reader = (*server)->Connect();
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE((*reader)->Begin().ok());
    auto pre = (*reader)->Run(
        "for $t in document(\"d\")/{red}descendant::tick return $t");
    ASSERT_TRUE(pre.ok());
    EXPECT_EQ(pre->items.size(), 12u);

    history = (*server)->CommitHistory();
    env.SimulateCrash();

    auto post = (*reader)->Run(
        "for $t in document(\"d\")/{red}descendant::tick return $t");
    ASSERT_TRUE(post.ok()) << post.status();
    EXPECT_EQ(post->items.size(), pre->items.size());
    ASSERT_TRUE((*reader)->Commit().ok());
  }

  // Every acknowledged commit was group-fsynced before its publish, so all
  // twelve replay.
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_EQ(history.size(), 12u);
  ExpectServerState(rec->db.get(), history, history.size(),
                    "acknowledged commits lost");
}

TEST(ServeRecoveryTest, WalAppendFailureFailsOnlyThatStatement) {
  FaultInjectionEnv env;
  auto server = serve::ColorServer::Open(kDir, {}, &env);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Bootstrap(BuildMovieDb().db).ok());
  auto session = (*server)->Connect();
  ASSERT_TRUE(session.ok());

  env.FailNthAppend("wal", 1);
  uint64_t before = (*server)->head_epoch();
  auto bad = (*session)->Run(TickInsert("All About Eve", "doomed"));
  EXPECT_FALSE(bad.ok()) << "statement acked without a WAL record";
  EXPECT_EQ((*server)->head_epoch(), before);

  auto good = (*session)->Run(TickInsert("All About Eve", "fine"));
  ASSERT_TRUE(good.ok()) << good.status();
  auto history = (*server)->CommitHistory();
  ASSERT_EQ(history.size(), 1u);

  env.SimulateCrash();
  session->reset();  // sessions must not outlive their server
  server->reset();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ExpectServerState(rec->db.get(), history, 1, "surviving commit wrong");
}

TEST(ServeRecoveryTest, GroupSyncFailurePublishesNothingAndGoesReadOnly) {
  FaultInjectionEnv env;
  auto server = serve::ColorServer::Open(kDir, {}, &env);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Bootstrap(BuildMovieDb().db).ok());
  auto session = (*server)->Connect();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Run(TickInsert("City Lights", "acked")).ok());

  env.FailNextSync();
  uint64_t before = (*server)->head_epoch();
  auto failed = (*session)->Run(TickInsert("City Lights", "lost"));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*server)->head_epoch(), before)
      << "published without durability";

  // The WAL now holds an appended record of unknown durability: the server
  // refuses further commits rather than risk replaying an unacked one...
  auto rejected = (*session)->Run(TickInsert("City Lights", "after"));
  EXPECT_FALSE(rejected.ok());
  // ...but snapshot reads still work.
  ASSERT_TRUE((*session)->Begin().ok());
  auto read = (*session)->Run(
      "for $t in document(\"d\")/{red}descendant::tick return $t");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->items.size(), 1u);
  ASSERT_TRUE((*session)->Commit().ok());

  auto history = (*server)->CommitHistory();
  env.SimulateCrash();
  session->reset();
  server->reset();
  auto rec = RecoverDatabase(kDir, &env);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ExpectServerState(rec->db.get(), history, 1,
                    "recovery disagrees with acknowledged history");
}

TEST(ServeRecoveryTest, TornUnsyncedTailRecoversToCommitPrefix) {
  // sync_commits=false acknowledges before durability (the documented
  // trade); a crash may then tear the unsynced WAL tail at any byte. The
  // all-or-prefix contract: recovery lands on SOME prefix of the history.
  FaultInjectionEnv env;
  serve::ServerOptions opts;
  opts.sync_commits = false;
  std::vector<serve::CommittedStatement> history;
  const std::string wal_path = WalFilePath(kDir);
  {
    auto server = serve::ColorServer::Open(kDir, opts, &env);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE((*server)->Bootstrap(BuildMovieDb().db).ok());
    auto session = (*server)->Connect();
    ASSERT_TRUE(session.ok());
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(
          (*session)->Run(TickInsert("Sunset Boulevard", std::to_string(k)))
              .ok());
    }
    history = (*server)->CommitHistory();
    ASSERT_EQ(history.size(), 4u);
  }
  const uint64_t tail = env.UnsyncedBytes(wal_path);
  ASSERT_GT(tail, 0u);

  // ~a dozen tear points across the tail, plus both edges; per-byte
  // coverage of torn records already lives in the WAL format tests.
  const uint64_t step = tail / 12 + 1;
  for (uint64_t keep = 0; keep <= tail; keep += step) {
    FaultInjectionEnv torn;
    {
      auto server = serve::ColorServer::Open(kDir, opts, &torn);
      ASSERT_TRUE(server.ok()) << server.status();
      ASSERT_TRUE((*server)->Bootstrap(BuildMovieDb().db).ok());
      auto session = (*server)->Connect();
      ASSERT_TRUE(session.ok());
      for (int k = 0; k < 4; ++k) {
        ASSERT_TRUE(
            (*session)->Run(TickInsert("Sunset Boulevard", std::to_string(k)))
                .ok());
      }
      torn.SimulateCrashKeepingPrefix("wal", keep);
    }
    auto rec = RecoverDatabase(kDir, &torn);
    ASSERT_TRUE(rec.ok()) << rec.status() << " keep=" << keep;
    bool matched = false;
    for (size_t n = 0; n <= history.size() && !matched; ++n) {
      auto want = ServerOracle(history, n);
      std::string why;
      matched = serialize::DatabasesIsomorphic(*rec->db, *want, &why);
    }
    EXPECT_TRUE(matched)
        << "keep=" << keep << ": recovered state is not a commit prefix";
  }
}

}  // namespace
}  // namespace mct
