#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "mcx/parser.h"

namespace mct::serve {

namespace {

/// Plan-cache entries tolerated before a recency prune (ApplyBatch).
constexpr size_t kPlanCacheCap = 4096;

Counter* ReadsCounter() {
  static Counter* c = MetricsRegistry::Global().counter("mct.serve.reads");
  return c;
}
Counter* CommitsCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("mct.serve.committed_statements");
  return c;
}
Counter* BatchesCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("mct.serve.group_commits");
  return c;
}
Counter* QueueShedsCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("mct.governor.queue_sheds");
  return c;
}
Counter* RetriesCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("mct.governor.retries");
  return c;
}

void EnsureAllLabels(MctDatabase& db) {
  for (size_t c = 0; c < db.num_colors(); ++c) {
    db.tree(static_cast<ColorId>(c))->EnsureLabels();
  }
}

}  // namespace

// ---------------------------------------------------------------- Session

Session::~Session() {
  reader_.reset();
  pin_.Release();
  server_->ReleaseSession();
}

Status Session::Begin() {
  reader_.reset();
  pin_.Release();
  pin_ = server_->mvcc_.PinHead();
  // Private clone: the evaluator mutates its database (lazy relabeling,
  // free nodes for RETURN constructors), and the pinned version is a
  // frozen snapshot shared with every other session at this epoch. The
  // clone copies one leaf pointer per 8,192 nodes of the store and of each
  // colored tree, about 1 us on scale-1 TPC-W (DESIGN.md §14), well below
  // a point read's own evaluation.
  reader_ = pin_.db()->CowClone();
  return Status::OK();
}

Status Session::Commit() {
  reader_.reset();
  pin_.Release();
  return Status::OK();
}

Result<mcx::QueryResult> Session::Run(std::string_view text) {
  return Run(text, server_->opts_.default_color);
}

Result<mcx::QueryResult> Session::Run(std::string_view text,
                                      ColorId default_color) {
  // Classification parse. Reads then re-enter through the cached-statement
  // path (an exact plan-cache hit for a previous epoch-mate skips plan,
  // not this parse); updates ship their text to the committer, which
  // parses against the commit-time head.
  auto parsed = mcx::Parse(text);
  if (!parsed.ok()) return parsed.status();

  // The statement's deadline is stamped at acceptance, so for updates it
  // covers queue wait and retries too — a statement cannot dodge its
  // timeout by sitting in the commit queue or backing off.
  const ServerOptions& sopts = server_->opts_;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (sopts.statement_timeout_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(sopts.statement_timeout_ms);
  }

  if (parsed->is_update) {
    uint64_t epoch = 0;
    Result<mcx::QueryResult> r =
        server_->CommitStatement(text, default_color, &cancel_, deadline,
                                 mask_, &epoch);
    // Retryable failures (queue shed, memory pressure) back off with
    // jitter and try again, up to admission_retries attempts; Cancelled
    // and DeadlineExceeded fail straight through (retrying cannot help).
    for (int attempt = 0;
         !r.ok() && r.status().IsRetryable() &&
         attempt < sopts.admission_retries;
         ++attempt) {
      RetriesCounter()->Inc();
      const int64_t base_us = 500ll << std::min(attempt, 8);
      const int64_t jitter_us =
          retry_rng_.UniformInt(base_us / 2, base_us + base_us / 2);
      std::this_thread::sleep_for(std::chrono::microseconds(jitter_us));
      r = server_->CommitStatement(text, default_color, &cancel_, deadline,
                                   mask_, &epoch);
    }
    if (r.ok() && pin_.valid()) {
      // Read-your-writes: the old snapshot predates the commit, so re-pin
      // at (at least) the publishing epoch.
      MCT_RETURN_IF_ERROR(Begin());
    }
    return r;
  }

  if (!pin_.valid()) MCT_RETURN_IF_ERROR(Begin());
  // Per-statement budget, drawing down the server-wide pool; outstanding
  // bytes return to the pool when the statement finishes (dtor).
  MemoryBudget stmt_budget(
      sopts.statement_memory_limit,
      sopts.total_memory_limit > 0 ? &server_->total_budget_ : nullptr);
  mcx::EvalOptions o;
  o.default_color = default_color;
  o.planner = server_->opts_.planner;
  o.plan_cache = server_->opts_.planner ? &server_->plan_cache_ : nullptr;
  o.cache_epoch = pin_.epoch();
  o.cancel_token = &cancel_;
  o.deadline = deadline;
  if (sopts.statement_memory_limit > 0 || sopts.total_memory_limit > 0) {
    o.memory_budget = &stmt_budget;
  }
  o.mask = mask_;
  o.mask_enforcement = sopts.mask_enforcement;
  mcx::Evaluator ev(reader_.get(), o);
  auto r = ev.Run(text);
  if (r.ok()) ReadsCounter()->Inc();
  return r;
}

// ------------------------------------------------------------ ColorServer

Result<std::unique_ptr<ColorServer>> ColorServer::Open(const std::string& dir,
                                                       ServerOptions opts,
                                                       FileEnv* env) {
  if (env == nullptr) env = FileEnv::Default();
  MCT_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  auto server =
      std::unique_ptr<ColorServer>(new ColorServer(dir, opts, env));
  MCT_ASSIGN_OR_RETURN(server->lock_, DirLock::Acquire(env, dir));
  MCT_ASSIGN_OR_RETURN(RecoveredDatabase rec, RecoverDatabase(dir, env));
  MCT_ASSIGN_OR_RETURN(
      server->wal_,
      WalWriter::Open(env, WalFilePath(dir), rec.next_lsn,
                      /*truncate=*/false));
  EnsureAllLabels(*rec.db);
  rec.db->SetShardCount(opts.shard_count);
  // Seed epoch = next_lsn: monotone across restarts, so a client that
  // remembers an epoch from a previous incarnation can never mistake an
  // older state for a newer one.
  server->mvcc_.Seed(
      std::shared_ptr<const MctDatabase>(std::move(rec.db)), rec.next_lsn);
  return server;
}

ColorServer::~ColorServer() = default;

Status ColorServer::Bootstrap(std::unique_ptr<MctDatabase> db) {
  std::unique_lock<std::mutex> lk(commit_mu_);
  commit_cv_.wait(lk, [&] { return commit_queue_.empty(); });
  MCT_RETURN_IF_ERROR(broken_);
  EnsureAllLabels(*db);
  db->SetShardCount(opts_.shard_count);
  MCT_RETURN_IF_ERROR(wal_->Sync());
  uint64_t covered = wal_->next_lsn() - 1;
  MCT_RETURN_IF_ERROR(CheckpointDatabase(*db, dir_, covered, env_));
  MCT_ASSIGN_OR_RETURN(wal_, WalWriter::Open(env_, WalFilePath(dir_),
                                             wal_->next_lsn(),
                                             /*truncate=*/true));
  mvcc_.Publish(std::shared_ptr<const MctDatabase>(std::move(db)));
  std::lock_guard<std::mutex> h(history_mu_);
  history_.clear();
  return Status::OK();
}

Result<std::unique_ptr<Session>> ColorServer::Connect() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (opts_.max_sessions > 0 && live_sessions_ >= opts_.max_sessions) {
    // ResourceExhausted, not OutOfRange: the limit is a transient capacity
    // condition (a slot frees when any session closes), so clients may
    // retry with backoff — the error-code contract IsRetryable() encodes.
    return Status::ResourceExhausted("session limit reached");
  }
  ++live_sessions_;
  return std::unique_ptr<Session>(new Session(this));
}

Result<std::unique_ptr<Session>> ColorServer::Connect(const ColorMask& mask) {
  MCT_ASSIGN_OR_RETURN(std::unique_ptr<Session> s, Connect());
  s->mask_ = mask;
  return s;
}

void ColorServer::ReleaseSession() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  --live_sessions_;
}

Status ColorServer::Checkpoint() {
  std::unique_lock<std::mutex> lk(commit_mu_);
  // Queue empty <=> no commit in flight (a leader's request stays at the
  // queue front while it applies), so head + WAL are mutually consistent.
  commit_cv_.wait(lk, [&] { return commit_queue_.empty(); });
  MCT_RETURN_IF_ERROR(wal_->Sync());
  uint64_t covered = wal_->next_lsn() - 1;
  // A published version is never written again, so it is serialized in
  // place while readers share it.
  MCT_RETURN_IF_ERROR(CheckpointDatabase(*mvcc_.Head(), dir_, covered, env_));
  MCT_ASSIGN_OR_RETURN(wal_, WalWriter::Open(env_, WalFilePath(dir_),
                                             wal_->next_lsn(),
                                             /*truncate=*/true));
  return Status::OK();
}

std::vector<CommittedStatement> ColorServer::CommitHistory() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return history_;
}

Result<mcx::QueryResult> ColorServer::CommitStatement(
    std::string_view text, ColorId default_color, CancelToken* cancel,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    const ColorMask& mask, uint64_t* out_epoch) {
  // Admission: bound the number of sessions inside the commit path. With
  // max_queue_depth > 0 the wait itself is bounded too: an arrival that
  // would queue behind max_queue_depth waiters is shed immediately with a
  // retryable ResourceExhausted instead of piling onto a saturated server.
  {
    std::unique_lock<std::mutex> g(admit_mu_);
    if (opts_.max_queue_depth > 0 &&
        active_writers_ >= opts_.max_concurrent_writers &&
        admit_waiters_ >= opts_.max_queue_depth) {
      QueueShedsCounter()->Inc();
      return Status::ResourceExhausted("commit admission queue full");
    }
    ++admit_waiters_;
    admit_cv_.wait(
        g, [&] { return active_writers_ < opts_.max_concurrent_writers; });
    --admit_waiters_;
    ++active_writers_;
  }

  CommitRequest req;
  req.text = std::string(text);
  req.default_color = default_color;
  req.cancel = cancel;
  req.deadline = deadline;
  req.mask = mask;

  {
    std::unique_lock<std::mutex> lk(commit_mu_);
    commit_queue_.push_back(&req);
    commit_cv_.wait(
        lk, [&] { return req.done || commit_queue_.front() == &req; });
    if (!req.done) {
      // Leader: carry every queued request in one batch. Leadership stays
      // exclusive while unlocked because &req remains the queue front.
      std::vector<CommitRequest*> batch(commit_queue_.begin(),
                                        commit_queue_.end());
      lk.unlock();
      ApplyBatch(batch);
      lk.lock();
      commit_queue_.erase(commit_queue_.begin(),
                          commit_queue_.begin() + batch.size());
      for (CommitRequest* r : batch) r->done = true;
      commit_cv_.notify_all();
    }
  }

  {
    std::lock_guard<std::mutex> g(admit_mu_);
    --active_writers_;
    admit_cv_.notify_one();
  }

  if (!req.status.ok()) return req.status;
  if (out_epoch != nullptr) *out_epoch = req.epoch;
  return std::move(req.result);
}

void ColorServer::ApplyBatch(const std::vector<CommitRequest*>& batch) {
  {
    std::lock_guard<std::mutex> lk(commit_mu_);
    if (!broken_.ok()) {
      for (CommitRequest* r : batch) r->status = broken_;
      return;
    }
  }

  std::shared_ptr<const MctDatabase> base = mvcc_.Head();
  const uint64_t base_epoch = mvcc_.head_epoch();
  std::unique_ptr<MctDatabase> pending = base->CowClone();
  std::vector<CommitRequest*> applied;
  for (CommitRequest* r : batch) {
    // Statement atomicity: apply against a trial clone of the pending
    // state; a mid-statement failure — including a governor trip — discards
    // the trial whole instead of leaving the batch half-mutated. A request
    // cancelled or expired while it sat in the queue is shed by the
    // evaluator's entry check before any work happens.
    std::unique_ptr<MctDatabase> trial = pending->CowClone();
    MemoryBudget stmt_budget(
        opts_.statement_memory_limit,
        opts_.total_memory_limit > 0 ? &total_budget_ : nullptr);
    mcx::EvalOptions o;
    o.default_color = r->default_color;
    o.planner = opts_.planner;
    // The shared cache serves the committer too: parameterized update
    // statements (distinct literals, same shape) reuse plan skeletons via
    // their normalized text. cache_epoch != 0 keeps updates from
    // blanket-invalidating the readers' entries.
    o.plan_cache = opts_.planner ? &plan_cache_ : nullptr;
    o.cache_epoch = base_epoch;
    o.wal = wal_.get();
    o.wal_sync_each = false;  // one fsync per group, below
    o.cancel_token = r->cancel;
    o.deadline = r->deadline;
    if (opts_.statement_memory_limit > 0 || opts_.total_memory_limit > 0) {
      o.memory_budget = &stmt_budget;
    }
    o.mask = r->mask;
    o.mask_enforcement = opts_.mask_enforcement;
    mcx::Evaluator ev(trial.get(), o);
    auto res = ev.Run(r->text);
    if (res.ok()) {
      pending = std::move(trial);
      r->result = std::move(*res);
      applied.push_back(r);
    } else {
      r->status = res.status();
    }
  }
  if (applied.empty()) return;

  if (opts_.sync_commits) {
    Status s = wal_->Sync();
    if (!s.ok()) {
      // Durability before visibility: nothing publishes. The WAL now holds
      // appended records of unknown durability, so the server goes
      // read-only rather than risk replaying unacknowledged statements.
      for (CommitRequest* r : batch) r->status = s;
      std::lock_guard<std::mutex> lk(commit_mu_);
      broken_ = s;
      return;
    }
  }

  // Freeze lazy label state before anyone shares the snapshot, then
  // publish — the linearization point of every statement in the batch.
  EnsureAllLabels(*pending);
  uint64_t epoch =
      mvcc_.Publish(std::shared_ptr<const MctDatabase>(std::move(pending)));
  {
    std::lock_guard<std::mutex> h(history_mu_);
    for (CommitRequest* r : applied) {
      r->epoch = epoch;
      history_.push_back({epoch, r->default_color, r->text});
    }
  }
  BatchesCounter()->Inc();
  CommitsCounter()->Inc(static_cast<uint64_t>(applied.size()));
  // Memory cap, not a correctness barrier: hot entries carry a recent
  // stamp (lookups refresh it), so pruning sheds only cold ones — e.g.
  // exact-text entries for one-off parameterized updates.
  if (plan_cache_.size() > kPlanCacheCap) {
    plan_cache_.Prune(mvcc_.oldest_live_epoch());
  }
}

}  // namespace mct::serve
