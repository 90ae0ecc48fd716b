// Resource-governor battery (DESIGN.md §15): cancellation, deadlines and
// memory budgets from the primitive level up through the serve layer.
//
// Four attack angles:
//  1. primitives: CancelToken / MemoryBudget (parent chains, rollback) /
//     ResourceGovernor trip semantics, and the status-code retryability
//     contract (ResourceExhausted is the only retryable code);
//  2. embedded evaluator: governed statements are killed by cancel,
//     deadline and budget; a killed update leaves no side effects and
//     appends nothing to the WAL; a governed-but-untripped run returns
//     results identical to an ungoverned run (serial and parallel);
//  3. cancellation timing: a deliberately explosive cross-tree cartesian
//     query dies within 2x its deadline of CPU time on its thread while a
//     concurrent reader on the same server completes normally;
//  4. chaos battery ({2,8} sessions, run under the tsan and asan presets
//     in CI): randomized cancel / timeout / memory-pressure injection
//     across concurrent sessions. The server must keep committing after
//     every kill, killed updates must never reach the commit history or
//     the final state while successful ones always do, and session
//     teardown must retire every MVCC version and COW chunk (the PR 7
//     census), so governor kills leak nothing.

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cow.h"
#include "common/governor.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "mct/database.h"
#include "movie_fixture.h"
#include "serve/server.h"
#include "storage/fault_env.h"
#include "storage/wal.h"
#include "workload/runner.h"

namespace mct {
namespace {

using serve::ColorServer;
using serve::CommittedStatement;
using serve::ServerOptions;
using serve::Session;
using testfix::BuildMovieDb;
using testfix::MovieDb;
using testfix::MustCreate;
using workload::RunQuery;

constexpr char kDir[] = "/db";

// ---------------------------------------------------------------------------
// 1. Primitives.
// ---------------------------------------------------------------------------

TEST(StatusCodeTest, GovernorCodesAndRetryabilityContract) {
  Status cancelled = Status::Cancelled("c");
  Status deadline = Status::DeadlineExceeded("d");
  Status exhausted = Status::ResourceExhausted("r");
  EXPECT_TRUE(cancelled.IsCancelled());
  EXPECT_TRUE(deadline.IsDeadlineExceeded());
  EXPECT_TRUE(exhausted.IsResourceExhausted());
  EXPECT_NE(cancelled.ToString().find("Cancelled"), std::string::npos);
  EXPECT_NE(deadline.ToString().find("DeadlineExceeded"), std::string::npos);
  EXPECT_NE(exhausted.ToString().find("ResourceExhausted"),
            std::string::npos);

  // The retryability contract: ResourceExhausted is transient capacity
  // (retry with backoff may succeed); Cancelled was chosen by the caller
  // and DeadlineExceeded cannot un-expire — retrying cannot help either.
  EXPECT_TRUE(exhausted.IsRetryable());
  EXPECT_FALSE(cancelled.IsRetryable());
  EXPECT_FALSE(deadline.IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::OutOfRange("x").IsRetryable());
  EXPECT_FALSE(Status::Internal("x").IsRetryable());
}

TEST(CancelTokenTest, StickyUntilCleared) {
  CancelToken token;
  EXPECT_FALSE(token.cancel_requested());
  token.RequestCancel();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_TRUE(token.cancel_requested());  // sticky
  token.Clear();
  EXPECT_FALSE(token.cancel_requested());
}

TEST(MemoryBudgetTest, ChargesReleasesAndPeak) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600).ok());
  EXPECT_EQ(budget.used(), 600u);
  Status refused = budget.TryCharge(500);  // 1100 > 1000
  EXPECT_TRUE(refused.IsResourceExhausted());
  EXPECT_EQ(budget.used(), 600u) << "refused charge must roll back";
  budget.Release(200);
  EXPECT_EQ(budget.used(), 400u);
  EXPECT_TRUE(budget.TryCharge(500).ok());
  EXPECT_EQ(budget.used(), 900u);
  EXPECT_EQ(budget.peak(), 900u);
  budget.Release(900);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 900u) << "peak is a high watermark";
}

TEST(MemoryBudgetTest, ParentChainRefusalRollsBackChild) {
  MemoryBudget parent(1000);
  MemoryBudget child(0, &parent);  // child itself unlimited
  EXPECT_TRUE(child.TryCharge(800).ok());
  EXPECT_EQ(parent.used(), 800u);
  // Child would accept, parent refuses: nothing stays charged anywhere.
  EXPECT_TRUE(child.TryCharge(300).IsResourceExhausted());
  EXPECT_EQ(child.used(), 800u);
  EXPECT_EQ(parent.used(), 800u);
  // Destroying the child returns its outstanding bytes to the parent.
  { MemoryBudget scoped(0, &parent); ASSERT_TRUE(scoped.TryCharge(100).ok()); }
  EXPECT_EQ(parent.used(), 800u);
}

TEST(ResourceGovernorTest, TripsAreStickyAndFirstWins) {
  // Deadline already passed: the first check trips DeadlineExceeded and
  // every later check (and charge) reports the same sticky status.
  MemoryBudget budget(10);
  ResourceGovernor gov(
      nullptr,
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1),
      &budget);
  EXPECT_FALSE(gov.tripped());
  EXPECT_TRUE(gov.ShouldStop());
  EXPECT_TRUE(gov.tripped());
  EXPECT_TRUE(gov.Check().IsDeadlineExceeded());
  EXPECT_TRUE(gov.Charge(1 << 20).IsDeadlineExceeded())
      << "post-trip charges report the first violation, not a new one";
}

TEST(ResourceGovernorTest, UntrippedGovernorPassesChecksAndCharges) {
  CancelToken token;
  MemoryBudget budget(1 << 20);
  ResourceGovernor gov(&token, std::nullopt, &budget);
  EXPECT_FALSE(gov.ShouldStop());
  EXPECT_TRUE(gov.Check().ok());
  EXPECT_TRUE(gov.Charge(1024).ok());
  EXPECT_EQ(budget.used(), 1024u);
  EXPECT_FALSE(gov.tripped());
}

// ---------------------------------------------------------------------------
// 2. Embedded evaluator: governed execution end to end.
// ---------------------------------------------------------------------------

/// Movie fixture plus `n` extra tick rows (content = index) under "All
/// About Eve" — raw material for combinatorial cartesian products.
MovieDb BuildMovieDbWithTicks(int n) {
  MovieDb f = BuildMovieDb();
  for (int i = 0; i < n; ++i) {
    MustCreate(*f.db, f.red, f.movie_eve, "tick", std::to_string(i));
  }
  return f;
}

/// Cross-tree cartesian product: red ticks x blue actors x red ticks x
/// red ticks — with t ticks, t^3 * |actors| output rows, far beyond any
/// deadline or budget used below.
const char kExplosive[] =
    "for $a in document(\"d\")/{red}descendant::tick, "
    "$b in document(\"d\")/{blue}descendant::actor, "
    "$c in document(\"d\")/{red}descendant::tick, "
    "$d in document(\"d\")/{red}descendant::tick "
    "return $a";

const char kCountTicks[] =
    "for $t in document(\"d\")/{red}descendant::tick return $t";

TEST(GovernedEvalTest, PreCancelledQueryFailsWithNoWork) {
  MovieDb f = BuildMovieDbWithTicks(4);
  CancelToken token;
  token.RequestCancel();
  auto r = RunQuery(f.db.get(), kCountTicks,
                    {.default_color = f.red, .cancel_token = &token});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
}

TEST(GovernedEvalTest, MidFlightCancelKillsExplosiveQuery) {
  MovieDb f = BuildMovieDbWithTicks(300);
  CancelToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.RequestCancel();
  });
  auto r = RunQuery(f.db.get(), kExplosive,
                    {.default_color = f.red, .cancel_token = &token});
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
}

TEST(GovernedEvalTest, DeadlineKillsExplosiveQuery) {
  MovieDb f = BuildMovieDbWithTicks(300);
  auto r = RunQuery(f.db.get(), kExplosive,
                    {.default_color = f.red,
                     .deadline = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(100)});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
}

TEST(GovernedEvalTest, MemoryBudgetKillsExplosiveQuery) {
  MovieDb f = BuildMovieDbWithTicks(300);
  MemoryBudget budget(1 << 20);
  auto r = RunQuery(f.db.get(), kExplosive,
                    {.default_color = f.red, .memory_budget = &budget});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
}

TEST(GovernedEvalTest, UntrippedGovernedRunMatchesUngoverned) {
  // The governed code paths (chunked serial loops, per-morsel checks,
  // budget charges) must not change any answer. Exercise serial and
  // parallel execution with a generous deadline and budget.
  const char* queries[] = {
      kCountTicks,
      "for $g in document(\"d\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"] return $g",
      "for $a in document(\"d\")/{red}descendant::movie, "
      "$b in document(\"d\")/{blue}descendant::actor return $b",
  };
  for (int threads : {1, 2}) {
    for (const char* q : queries) {
      MovieDb f = BuildMovieDbWithTicks(50);
      CancelToken token;  // never raised
      MemoryBudget budget(256u << 20);
      auto plain = RunQuery(
          f.db.get(), q,
          {.default_color = f.red, .num_threads = threads, .morsel_size = 16},
          /*collect_values=*/true);
      ASSERT_TRUE(plain.ok()) << plain.status();
      auto governed = RunQuery(
          f.db.get(), q,
          {.default_color = f.red,
           .num_threads = threads,
           .morsel_size = 16,
           .cancel_token = &token,
           .deadline = std::chrono::steady_clock::now() +
                       std::chrono::seconds(60),
           .memory_budget = &budget},
          /*collect_values=*/true);
      ASSERT_TRUE(governed.ok()) << governed.status();
      EXPECT_EQ(governed->result_count, plain->result_count) << q;
      EXPECT_EQ(governed->values, plain->values) << q;
    }
  }
}

TEST(GovernedEvalTest, CancelledUpdateHasNoSideEffectsAndNoWalRecord) {
  MovieDb f = BuildMovieDbWithTicks(8);
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing("/w").ok());
  auto wal = WalWriter::Open(&env, "/w/wal.log", 1, true);
  ASSERT_TRUE(wal.ok()) << wal.status();

  auto count = [&] {
    auto r = RunQuery(f.db.get(), kCountTicks, {.default_color = f.red});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->result_count : 0;
  };
  const uint64_t ticks0 = count();
  const uint64_t lsn0 = (*wal)->next_lsn();

  const std::string update =
      "for $m in document(\"d\")/{red}descendant::movie"
      "[{red}child::name = \"All About Eve\"] "
      "update $m { insert <tick>governed</tick> into {red} }";

  // Killed update: no new tick, no WAL record.
  CancelToken token;
  token.RequestCancel();
  auto killed = RunQuery(
      f.db.get(), update,
      {.default_color = f.red, .wal = wal->get(), .cancel_token = &token});
  ASSERT_FALSE(killed.ok());
  EXPECT_TRUE(killed.status().IsCancelled()) << killed.status();
  EXPECT_EQ(count(), ticks0) << "cancelled update must leave no side effects";
  EXPECT_EQ((*wal)->next_lsn(), lsn0)
      << "cancelled update must append nothing to the WAL";

  // Same statement, token cleared: applies and logs exactly once.
  token.Clear();
  auto applied = RunQuery(
      f.db.get(), update,
      {.default_color = f.red, .wal = wal->get(), .cancel_token = &token});
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(count(), ticks0 + 1);
  EXPECT_GT((*wal)->next_lsn(), lsn0);
}

// ---------------------------------------------------------------------------
// 3. Serve layer: contracts and cancellation timing.
// ---------------------------------------------------------------------------

std::unique_ptr<ColorServer> OpenServer(FaultInjectionEnv* env,
                                        ServerOptions opts = {},
                                        int ticks = 0) {
  auto server = ColorServer::Open(kDir, opts, env);
  EXPECT_TRUE(server.ok()) << server.status();
  MovieDb f = BuildMovieDbWithTicks(ticks);
  Status s = (*server)->Bootstrap(std::move(f.db));
  EXPECT_TRUE(s.ok()) << s;
  return std::move(*server);
}

// CPU time the calling thread has used, in milliseconds.
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string InsertTick(const std::string& label) {
  return "for $m in document(\"d\")/{red}descendant::movie"
         "[{red}child::name = \"All About Eve\"] update $m { insert <tick>" +
         label + "</tick> into {red} }";
}

TEST(ServeGovernorTest, SessionCapIsRetryableResourceExhausted) {
  FaultInjectionEnv env;
  ServerOptions opts;
  opts.max_sessions = 1;
  auto server = OpenServer(&env, opts);
  auto s1 = server->Connect();
  ASSERT_TRUE(s1.ok());
  auto s2 = server->Connect();
  ASSERT_FALSE(s2.ok());
  // The error-code contract: capacity limits are ResourceExhausted and
  // retryable (a slot frees when a session closes) — not OutOfRange.
  EXPECT_TRUE(s2.status().IsResourceExhausted()) << s2.status();
  EXPECT_TRUE(s2.status().IsRetryable());
  EXPECT_FALSE(s2.status().IsOutOfRange());
  s1->reset();
  EXPECT_TRUE(server->Connect().ok());
}

TEST(ServeGovernorTest, StatementTimeoutKillsRunawayWithinTwiceDeadline) {
  // The cancellation-timing contract: a deliberately explosive cross-tree
  // query (cartesian over 300 ticks: ~10^7-row joins and beyond) dies
  // within 2x its statement timeout of work, while a concurrent reader
  // session on the same server completes every read normally.
  FaultInjectionEnv env;
  ServerOptions opts;
  opts.statement_timeout_ms = 400;
  auto server = OpenServer(&env, opts, /*ticks=*/300);

  std::atomic<bool> runaway_done{false};
  std::atomic<uint64_t> reads_ok{0};
  std::thread reader([&] {
    auto session = server->Connect();
    ASSERT_TRUE(session.ok());
    while (!runaway_done.load()) {
      auto r = (*session)->Run(
          "for $m in document(\"d\")/{red}descendant::movie"
          "[{red}child::name = \"City Lights\"] return $m");
      ASSERT_TRUE(r.ok()) << "reader must be unaffected: " << r.status();
      ASSERT_EQ(r->items.size(), 1u);
      reads_ok.fetch_add(1);
    }
  });

  auto session = server->Connect();
  ASSERT_TRUE(session.ok());
  // A served read runs on the caller's thread, so that thread's CPU time
  // over the call is the statement's work, however busy the host is.
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0_ms = ThreadCpuMs();
  auto r = (*session)->Run(kExplosive);
  const double cpu_ms = ThreadCpuMs() - cpu0_ms;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  runaway_done.store(true);
  reader.join();
  std::printf("runaway killed after %.0f ms wall, %.0f ms thread CPU\n",
              elapsed_ms, cpu_ms);

  ASSERT_FALSE(r.ok()) << "the runaway must not complete";
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  EXPECT_LT(cpu_ms, 2.0 * static_cast<double>(opts.statement_timeout_ms))
      << "kill latency must stay within one morsel of the deadline";
  EXPECT_GT(reads_ok.load(), 0u);

  // The session survives its killed statement.
  auto after = (*session)->Run(InsertTick("post-kill"));
  EXPECT_TRUE(after.ok()) << after.status();
}

TEST(ServeGovernorTest, BoundedQueueShedsUnderBurstAndServerKeepsCommitting) {
  FaultInjectionEnv env;
  ServerOptions opts;
  opts.max_concurrent_writers = 1;
  opts.max_queue_depth = 1;
  opts.statement_timeout_ms = 300;
  auto server = OpenServer(&env, opts, /*ticks=*/300);
  Counter* sheds =
      MetricsRegistry::Global().counter("mct.governor.queue_sheds");
  const uint64_t sheds0 = sheds->value();

  // A hog occupies the single writer slot: an update whose binding
  // evaluation is an explosive cartesian, killed by the statement deadline
  // ~300ms in — before any mutation, so it commits nothing. While it holds
  // the slot, quick inserts from 7 other sessions arrive: one may wait
  // (queue depth 1), the rest must fast-fail with a retryable
  // ResourceExhausted instead of queueing without bound.
  std::thread hog([&] {
    auto session = server->Connect();
    ASSERT_TRUE(session.ok());
    auto r = (*session)->Run(
        "for $a in document(\"d\")/{red}descendant::tick, "
        "$b in document(\"d\")/{red}descendant::tick, "
        "$c in document(\"d\")/{red}descendant::tick "
        "update $a { insert <note>hog</note> into {red} }");
    ASSERT_FALSE(r.ok()) << "the hog must not finish 300^3 binding rows";
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int kBurst = 7;
  constexpr int kOpsEach = 5;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kBurst; ++w) {
    threads.emplace_back([&, w] {
      auto session = server->Connect();
      ASSERT_TRUE(session.ok());
      for (int k = 0; k < kOpsEach; ++k) {
        auto r = (*session)->Run(
            InsertTick("b" + std::to_string(w) + "." + std::to_string(k)));
        if (r.ok()) {
          ok.fetch_add(1);
        } else if (r.status().IsResourceExhausted()) {
          ASSERT_TRUE(r.status().IsRetryable());
          shed.fetch_add(1);
        } else {
          // A waiter that outlives its own deadline in the queue is shed
          // by expiry rather than admission.
          ASSERT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  hog.join();

  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(shed.load(), 0u) << "an overloaded bounded queue must shed";
  EXPECT_EQ(sheds->value() - sheds0, shed.load())
      << "every shed is counted by mct.governor.queue_sheds";
  // Sheds (and the killed hog) left no trace: the history holds exactly
  // the served statements.
  EXPECT_EQ(server->CommitHistory().size(), ok.load());

  // The server keeps committing after the burst.
  auto session = server->Connect();
  ASSERT_TRUE(session.ok());
  auto r = (*session)->Run(InsertTick("post-burst"));
  EXPECT_TRUE(r.ok()) << r.status();
}

TEST(ServeGovernorTest, AdmissionRetriesAbsorbBurst) {
  FaultInjectionEnv env;
  ServerOptions opts;
  opts.max_concurrent_writers = 1;
  opts.max_queue_depth = 2;
  opts.admission_retries = 100;  // backoff makes eventual admission certain
  auto server = OpenServer(&env, opts);

  constexpr int kBurst = 6;
  constexpr int kOpsEach = 5;
  std::vector<std::thread> threads;
  for (int w = 0; w < kBurst; ++w) {
    threads.emplace_back([&, w] {
      auto session = server->Connect();
      ASSERT_TRUE(session.ok());
      for (int k = 0; k < kOpsEach; ++k) {
        auto r = (*session)->Run(
            InsertTick("r" + std::to_string(w) + "." + std::to_string(k)));
        ASSERT_TRUE(r.ok()) << "retries must absorb the burst: " << r.status();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(server->CommitHistory().size(),
            static_cast<size_t>(kBurst) * kOpsEach);
}

// ---------------------------------------------------------------------------
// 4. Chaos battery: randomized cancel / timeout / memory pressure across
//    {2,8} concurrent sessions, with the PR 7 MVCC leak census.
// ---------------------------------------------------------------------------

class GovernorChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(GovernorChaosTest, KillsLeakNothingAndServerKeepsCommitting) {
  const int kSessions = GetParam();
  const int kOpsPerSession = 25;

  FaultInjectionEnv env;
  ServerOptions opts;
  opts.max_concurrent_writers = 2;
  opts.max_queue_depth = 2;
  opts.admission_retries = 200;
  opts.statement_timeout_ms = 150;
  opts.statement_memory_limit = 4u << 20;
  opts.total_memory_limit = 64u << 20;
  auto server = OpenServer(&env, opts, /*ticks=*/120);

  const size_t head0 = server->mvcc().Head()->ResidentChunks();
  const int64_t live0 = CowLiveChunks();

  std::vector<std::string> committed_labels;   // per worker, merged below
  std::vector<std::string> killed_labels;
  std::mutex labels_mu;
  std::atomic<uint64_t> kills{0};

  {
    // Sessions live in a shared array so the chaos thread can aim
    // Cancel() — the one cross-thread-safe Session entry point — at
    // random victims while their owner threads keep running statements.
    std::vector<std::unique_ptr<Session>> sessions(
        static_cast<size_t>(kSessions));
    for (int i = 0; i < kSessions; ++i) {
      auto s = server->Connect();
      ASSERT_TRUE(s.ok()) << s.status();
      sessions[static_cast<size_t>(i)] = std::move(*s);
    }

    std::atomic<bool> stop_chaos{false};
    std::thread chaos([&] {
      Rng rng(0xc4a05u);
      while (!stop_chaos.load()) {
        sessions[rng.Uniform(static_cast<uint64_t>(kSessions))]->Cancel();
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.UniformInt(200, 2000)));
      }
    });

    std::vector<std::thread> workers;
    for (int w = 0; w < kSessions; ++w) {
      workers.emplace_back([&, w] {
        Session& session = *sessions[static_cast<size_t>(w)];
        Rng rng(0x5eed0 + static_cast<uint64_t>(w));
        std::vector<std::string> ok_labels;
        std::vector<std::string> bad_labels;
        for (int k = 0; k < kOpsPerSession; ++k) {
          // The chaos thread may have flagged this session between
          // statements; re-arm so this iteration's statement runs (it can
          // still be cancelled mid-flight).
          session.ClearCancel();
          const uint64_t dice = rng.Uniform(100);
          if (dice < 50) {
            // Normal read: succeeds unless chaos kills it.
            auto r = session.Run(kCountTicks);
            if (!r.ok()) {
              ASSERT_TRUE(r.status().IsCancelled() ||
                          r.status().IsDeadlineExceeded() ||
                          r.status().IsResourceExhausted())
                  << r.status();
              kills.fetch_add(1);
            }
          } else if (dice < 80) {
            // Update with a unique label; remember which side it landed on.
            std::string label =
                "w" + std::to_string(w) + "." + std::to_string(k);
            auto r = session.Run(InsertTick(label));
            if (r.ok()) {
              ok_labels.push_back(label);
            } else {
              ASSERT_TRUE(r.status().IsCancelled() ||
                          r.status().IsDeadlineExceeded() ||
                          r.status().IsResourceExhausted())
                  << r.status();
              bad_labels.push_back(label);
              kills.fetch_add(1);
            }
          } else {
            // Explosive read: the tick^3 cartesian product far exceeds
            // both the 150ms deadline and the 4MB budget, so this dies by
            // deadline, budget or a raced cancel.
            auto r = session.Run(kExplosive);
            if (!r.ok()) {
              ASSERT_TRUE(r.status().IsCancelled() ||
                          r.status().IsDeadlineExceeded() ||
                          r.status().IsResourceExhausted())
                  << r.status();
              kills.fetch_add(1);
            }
          }
        }
        // The session must still work after everything chaos did to it.
        session.ClearCancel();
        std::string final_label = "final-w" + std::to_string(w);
        for (int attempt = 0;; ++attempt) {
          auto r = session.Run(InsertTick(final_label));
          if (r.ok()) break;
          // Chaos may still race one more Cancel() in before we notice;
          // governor kills are the only acceptable failures.
          ASSERT_TRUE(r.status().IsCancelled() ||
                      r.status().IsDeadlineExceeded() ||
                      r.status().IsResourceExhausted())
              << r.status();
          ASSERT_LT(attempt, 100) << "server stopped committing";
          session.ClearCancel();
        }
        ok_labels.push_back(final_label);
        std::lock_guard<std::mutex> lock(labels_mu);
        committed_labels.insert(committed_labels.end(), ok_labels.begin(),
                                ok_labels.end());
        killed_labels.insert(killed_labels.end(), bad_labels.begin(),
                             bad_labels.end());
      });
    }
    for (auto& t : workers) t.join();
    stop_chaos.store(true);
    chaos.join();

    // Commit-history atomicity: killed updates never became commits,
    // successful updates always did (exactly once).
    std::multiset<std::string> history_labels;
    for (const CommittedStatement& c : server->CommitHistory()) {
      size_t open = c.text.find("<tick>");
      size_t close = c.text.find("</tick>");
      ASSERT_NE(open, std::string::npos);
      history_labels.insert(
          c.text.substr(open + 6, close - open - 6));
    }
    for (const std::string& label : committed_labels) {
      EXPECT_EQ(history_labels.count(label), 1u) << label;
    }
    for (const std::string& label : killed_labels) {
      EXPECT_EQ(history_labels.count(label), 0u)
          << "killed update leaked into the commit history: " << label;
    }

    // Final-state atomicity: a fresh session sees every committed label
    // in the ticks and none of the killed ones.
    auto verify = server->Connect();
    ASSERT_TRUE(verify.ok());
    auto ticks = (*verify)->Run(kCountTicks);
    ASSERT_TRUE(ticks.ok()) << ticks.status();
    std::multiset<std::string> tick_contents;
    const MctDatabase* view = (*verify)->snapshot_db();
    for (const mcx::Item& it : ticks->items) {
      if (view->store().HasContent(it.node)) {
        tick_contents.insert(view->Content(it.node));
      }
    }
    for (const std::string& label : committed_labels) {
      EXPECT_EQ(tick_contents.count(label), 1u) << label;
    }
    for (const std::string& label : killed_labels) {
      EXPECT_EQ(tick_contents.count(label), 0u)
          << "killed update mutated the database: " << label;
    }
  }  // every session (and its pin) destroyed here

  // MVCC leak census (PR 7): after all sessions drop, only the head
  // version survives, and the chunk census matches the head's own growth —
  // no version, chunk or budget leak from any governor kill.
  EXPECT_EQ(server->mvcc().live_versions(), 1u);
  EXPECT_EQ(server->mvcc().pinned_snapshots(), 0);
  const size_t head1 = server->mvcc().Head()->ResidentChunks();
  EXPECT_EQ(CowLiveChunks() - live0,
            static_cast<int64_t>(head1) - static_cast<int64_t>(head0));
}

INSTANTIATE_TEST_SUITE_P(Sessions, GovernorChaosTest, ::testing::Values(2, 8));

}  // namespace
}  // namespace mct
