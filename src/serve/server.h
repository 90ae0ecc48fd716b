// Concurrent multi-session serving with MVCC snapshot isolation
// (DESIGN.md §14).
//
// ColorServer owns one durable database directory (recovery on Open, the
// PR 3 WAL for commits, explicit checkpoints) and serves any number of
// concurrent Sessions, each on its own thread:
//
//  * reads run against an immutable epoch snapshot pinned at Begin() —
//    no locks on the data, repeatable results for the whole transaction;
//  * update statements funnel through a cross-session group committer
//    (leader/follower over a writer queue, LevelDB-style): the leader
//    clones the head version copy-on-write, applies every queued
//    statement — each through its own trial clone, so a failing statement
//    is discarded whole — appends the survivors to the WAL, makes the
//    batch durable with ONE fsync, and publishes the result as the next
//    epoch. Publish order is the commit linearization point.
//
// A session that commits an update is re-pinned to the publishing epoch,
// so it reads its own writes; sessions that only read keep their snapshot
// until Commit(). The process-wide PlanCache is shared across sessions
// with epoch-stamped entries (query/planner.h), so commits need no cache
// barrier.
//
// ColorServer methods are thread-safe; an individual Session is owned by
// one thread at a time (the normal one-connection-one-thread model).

#ifndef COLORFUL_XML_SERVE_SERVER_H_
#define COLORFUL_XML_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "common/rng.h"
#include "mct/color.h"
#include "mct/database.h"
#include "mct/durability.h"
#include "mct/mvcc.h"
#include "mcx/evaluator.h"
#include "query/planner.h"
#include "storage/wal.h"

namespace mct::serve {

struct ServerOptions {
  /// Color used by statements without explicit {color} annotations.
  ColorId default_color = 0;
  /// Admission control: at most this many sessions may be inside the
  /// commit path (queued or applying) at once; further writers block.
  int max_concurrent_writers = 4;
  /// Maximum live sessions; 0 = unlimited. Connect() fails with
  /// ResourceExhausted (retryable) beyond it.
  int max_sessions = 0;
  /// Cost-based planning + the shared epoch-stamped plan cache for reads.
  bool planner = true;
  /// Fsync the WAL once per commit group before publishing (durability
  /// before visibility). false trades durability of the newest commits
  /// for throughput — snapshot isolation itself is unaffected.
  bool sync_commits = true;
  /// Per-statement wall-clock timeout in milliseconds; 0 = none. The
  /// deadline is stamped when Run() accepts the statement, so for updates
  /// it covers queue wait too: a statement that expires while queued is
  /// shed without executing (DeadlineExceeded).
  int64_t statement_timeout_ms = 0;
  /// Per-statement memory budget in bytes (charged by operators for
  /// columnar emit buffers and join scratch); 0 = none. Statements that
  /// exceed it fail with ResourceExhausted.
  uint64_t statement_memory_limit = 0;
  /// Process-wide cap the per-statement budgets chain to; 0 = none.
  /// Concurrent statements draw down one shared pool, so overload degrades
  /// into per-statement ResourceExhausted instead of an OOM kill.
  uint64_t total_memory_limit = 0;
  /// Bounded writer admission: at most this many writers may *wait* for a
  /// commit slot; one more fast-fails with ResourceExhausted (a load shed,
  /// counted by mct.governor.queue_sheds). 0 = legacy unbounded blocking.
  int max_queue_depth = 0;
  /// Session::Run retries a retryable failure (ResourceExhausted: queue
  /// shed, memory) this many times with exponential backoff + jitter
  /// before surfacing it. 0 = fail straight through.
  int admission_retries = 0;
  /// Enforcement mode for masked sessions (secure color views, DESIGN.md
  /// §16): kStrict (default) rejects statements that name or require an
  /// invisible color with PermissionDenied before any side effect; kWarn
  /// admits them and relies on the evaluator layer to filter invisible
  /// nodes out of results. Sessions without a mask are unaffected.
  mcx::AnalyzeMode mask_enforcement = mcx::AnalyzeMode::kStrict;
  /// Intra-process interval-range shards (DESIGN.md §17), set on every
  /// published snapshot: the structural operators split a color's root
  /// interval into this many ranges where they use them. 1 (the default)
  /// disables sharding and leaves every code path byte-identical to the
  /// unsharded server.
  int shard_count = 1;
};

/// One committed update statement, in publish order. Statements grouped
/// into one batch share an epoch.
struct CommittedStatement {
  uint64_t epoch = 0;
  ColorId default_color = 0;
  std::string text;
};

class ColorServer;

/// One client connection. Begin() pins an epoch snapshot; Run() executes
/// reads against it and routes updates through the server's group
/// committer; Commit() releases the snapshot. Run() auto-begins when no
/// transaction is open. Not thread-safe; must not outlive its server.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Pins the current head epoch for subsequent reads.
  Status Begin();
  /// Ends the transaction and releases the snapshot.
  Status Commit();

  Result<mcx::QueryResult> Run(std::string_view text);
  Result<mcx::QueryResult> Run(std::string_view text, ColorId default_color);

  /// Cancels the statement this session is currently running (and any
  /// later one, until ClearCancel). Safe to call from any thread — this is
  /// the one cross-thread entry point on a Session. The victim observes
  /// the flag at its next morsel boundary and fails with Cancelled; an
  /// update cancelled mid-trial is discarded whole (trial clone), so it
  /// leaves no side effects.
  void Cancel() { cancel_.RequestCancel(); }
  /// Re-arms the session after a cancel; subsequent statements run
  /// normally.
  void ClearCancel() { cancel_.Clear(); }
  CancelToken* cancel_token() { return &cancel_; }

  /// The session's color visibility mask, fixed at Connect for the whole
  /// session lifetime (inactive for sessions opened without one). There is
  /// deliberately no setter: a mask that could widen mid-transaction would
  /// break the plan-cache fingerprint slicing and snapshot reasoning.
  const ColorMask& mask() const { return mask_; }

  /// Epoch of the pinned snapshot; 0 when no transaction is open.
  uint64_t snapshot_epoch() const { return pin_.epoch(); }
  /// The session's private view of the pinned snapshot (tests and tools
  /// render results through it); null when no transaction is open.
  const MctDatabase* snapshot_db() const { return reader_.get(); }

 private:
  friend class ColorServer;
  explicit Session(ColorServer* server) : server_(server) {}

  ColorServer* server_;
  MvccManager::Pin pin_;
  /// Private clone of the pinned snapshot: the read path mutates
  /// (lazy relabeling, RETURN constructors create free nodes), so the
  /// shared frozen version itself is never handed to an evaluator.
  std::unique_ptr<MctDatabase> reader_;
  /// Raised by Cancel() from any thread; carried into every statement this
  /// session runs (reads directly, updates through the commit queue).
  CancelToken cancel_;
  /// Backoff jitter for retryable commit failures. Seeded per session;
  /// only this session's thread draws from it.
  Rng retry_rng_{reinterpret_cast<uint64_t>(this)};
  /// Visibility mask (immutable; set by Connect(mask)). Carried into every
  /// statement this session runs, reads and commits alike.
  ColorMask mask_;
};

class ColorServer {
 public:
  /// Recovers `dir` (checkpoint + WAL replay), takes the directory writer
  /// lock, and publishes the recovered database as the seed epoch.
  static Result<std::unique_ptr<ColorServer>> Open(const std::string& dir,
                                                   ServerOptions opts = {},
                                                   FileEnv* env = nullptr);
  ~ColorServer();

  /// Replaces the database wholesale (initial load): checkpoints `db`,
  /// resets the WAL, publishes it as the next epoch. Requires no commit
  /// in flight; concurrent readers keep their old snapshots.
  Status Bootstrap(std::unique_ptr<MctDatabase> db);

  /// Opens a session. Fails with ResourceExhausted (retryable — a slot
  /// frees when any session closes) past max_sessions.
  Result<std::unique_ptr<Session>> Connect();
  /// Opens a session restricted to `mask` for its whole lifetime — the
  /// multi-tenant entry point. The mask governs reads (invisible colors
  /// bind and serialize nothing), commits (write-invisible colors are
  /// refused per ServerOptions::mask_enforcement), and plan-cache sharing
  /// (entries are sliced by mask fingerprint).
  Result<std::unique_ptr<Session>> Connect(const ColorMask& mask);

  /// Checkpoints the head snapshot and resets the WAL. Waits for in-flight
  /// commits; safe with concurrent readers and writers.
  Status Checkpoint();

  /// Every committed statement since Open/Bootstrap, in publish order.
  /// The differential-test oracle replays this against a twin database.
  std::vector<CommittedStatement> CommitHistory() const;

  uint64_t head_epoch() const { return mvcc_.head_epoch(); }
  const ServerOptions& options() const { return opts_; }
  MvccManager& mvcc() { return mvcc_; }
  query::PlanCache& plan_cache() { return plan_cache_; }

 private:
  friend class Session;

  struct CommitRequest {
    std::string text;
    ColorId default_color = 0;
    /// Governor inputs carried through the queue: the leader hands them to
    /// the trial evaluator, and a request already cancelled or expired
    /// when the leader reaches it is shed without executing.
    CancelToken* cancel = nullptr;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// The submitting session's visibility mask: the trial evaluator
    /// enforces it, so a masked tenant's update cannot touch an invisible
    /// color even though the committer runs on a shared thread.
    ColorMask mask;
    bool done = false;
    Status status = Status::OK();
    mcx::QueryResult result;
    uint64_t epoch = 0;
  };

  ColorServer(std::string dir, ServerOptions opts, FileEnv* env)
      : dir_(std::move(dir)),
        opts_(opts),
        env_(env),
        total_budget_(opts.total_memory_limit) {}

  /// Group commit entry point: enqueue, then either lead the batch or wait
  /// for a leader to carry the request. Returns the statement's result.
  /// Fast-fails with ResourceExhausted when the bounded admission queue is
  /// full (max_queue_depth > 0).
  Result<mcx::QueryResult> CommitStatement(
      std::string_view text, ColorId default_color, CancelToken* cancel,
      std::optional<std::chrono::steady_clock::time_point> deadline,
      const ColorMask& mask, uint64_t* out_epoch);
  /// Leader body: applies `batch` against a COW clone of head, syncs the
  /// WAL once, publishes. Called with commit_mu_ released (the queue front
  /// keeps leadership exclusive).
  void ApplyBatch(const std::vector<CommitRequest*>& batch);

  void ReleaseSession();

  std::string dir_;
  ServerOptions opts_;
  FileEnv* env_ = nullptr;
  DirLock lock_;
  std::unique_ptr<WalWriter> wal_;  // leader- or checkpoint-owned only
  MvccManager mvcc_;
  query::PlanCache plan_cache_;

  /// Writer queue. front() is the leader; everyone else waits on
  /// commit_cv_ until done or promoted. queue empty <=> no commit in
  /// flight (the leader's request stays at front while it applies).
  mutable std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::deque<CommitRequest*> commit_queue_;
  /// First WAL-sync failure; once set the server refuses further commits
  /// (records past the failed sync have unknown durability, so applying
  /// more on top could replay statements never acknowledged).
  Status broken_ = Status::OK();

  /// Admission gate for the commit path. admit_waiters_ counts writers
  /// blocked on a commit slot; with max_queue_depth > 0 an arrival beyond
  /// it is shed instead of queued.
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  int active_writers_ = 0;
  int admit_waiters_ = 0;

  /// Process-wide memory pool per-statement budgets chain to (limit 0 =
  /// unlimited, when total_memory_limit is unset).
  MemoryBudget total_budget_;

  mutable std::mutex history_mu_;
  std::vector<CommittedStatement> history_;

  mutable std::mutex sessions_mu_;
  int live_sessions_ = 0;
};

}  // namespace mct::serve

#endif  // COLORFUL_XML_SERVE_SERVER_H_
