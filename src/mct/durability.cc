#include "mct/durability.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "mct/snapshot.h"

namespace mct {

namespace {

constexpr char kWalName[] = "wal.log";
constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".snap";

std::string WalPath(const std::string& dir) { return dir + "/" + kWalName; }

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + kCheckpointPrefix +
         StrFormat("%06llu", static_cast<unsigned long long>(seq)) +
         kCheckpointSuffix;
}

/// Checkpoint sequence number from an entry name, or nullopt.
std::optional<uint64_t> ParseCheckpointName(const std::string& name) {
  size_t plen = sizeof(kCheckpointPrefix) - 1;
  size_t slen = sizeof(kCheckpointSuffix) - 1;
  if (name.size() <= plen + slen) return std::nullopt;
  if (name.compare(0, plen, kCheckpointPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - slen, slen, kCheckpointSuffix) != 0) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = plen; i < name.size() - slen; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

/// Checkpoint sequence numbers in `dir`, descending (newest first). A
/// missing directory lists as empty.
Result<std::vector<uint64_t>> ListCheckpoints(const std::string& dir,
                                              FileEnv* env) {
  auto entries = env->ListDir(dir);
  if (!entries.ok()) return std::vector<uint64_t>{};
  std::vector<uint64_t> seqs;
  for (const std::string& name : *entries) {
    if (auto seq = ParseCheckpointName(name)) seqs.push_back(*seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

/// Registry behind DirLock. Leaked singletons: locks held in static
/// objects must stay releasable through shutdown.
std::mutex& DirLockMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}
std::set<std::pair<const FileEnv*, std::string>>& DirLockSet() {
  static auto* s = new std::set<std::pair<const FileEnv*, std::string>>;
  return *s;
}

}  // namespace

std::string WalFilePath(const std::string& dir) { return WalPath(dir); }

Result<DirLock> DirLock::Acquire(FileEnv* env, const std::string& dir) {
  std::lock_guard<std::mutex> lock(DirLockMutex());
  if (!DirLockSet().emplace(env, dir).second) {
    return Status::AlreadyExists("writer session already open on " + dir);
  }
  return DirLock(env, dir);
}

void DirLock::Release() {
  if (env_ == nullptr) return;
  std::lock_guard<std::mutex> lock(DirLockMutex());
  DirLockSet().erase({env_, dir_});
  env_ = nullptr;
}

Result<RecoveredDatabase> RecoverDatabase(const std::string& dir,
                                          FileEnv* env) {
  if (env == nullptr) env = FileEnv::Default();
  MetricsRegistry::Global().counter("mct.recovery.count")->Inc();

  RecoveredDatabase out;
  MCT_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListCheckpoints(dir, env));
  for (uint64_t seq : seqs) {
    uint64_t lsn = 0;
    auto db = OpenSnapshot(CheckpointPath(dir, seq), env, &lsn);
    if (db.ok()) {
      out.db = std::move(*db);
      out.checkpoint_lsn = lsn;
      break;
    }
    MetricsRegistry::Global()
        .counter("mct.recovery.checkpoint_rejects")
        ->Inc();
  }
  if (out.db == nullptr) {
    if (!seqs.empty()) {
      return Status::Corruption(
          StrFormat("no valid checkpoint among %zu in %s", seqs.size(),
                    dir.c_str()));
    }
    out.db = std::make_unique<MctDatabase>();
  }

  MCT_ASSIGN_OR_RETURN(WalContents wal, ReadWal(env, WalPath(dir)));
  if (wal.torn_tail) {
    MCT_RETURN_IF_ERROR(env->TruncateFile(WalPath(dir), wal.valid_bytes));
    out.wal_tail_truncated = true;
    MetricsRegistry::Global().counter("mct.recovery.torn_tails")->Inc();
  }
  for (const WalRecord& rec : wal.records) {
    if (rec.lsn <= out.checkpoint_lsn) continue;  // already in the checkpoint
    if (rec.type != WalRecordType::kUpdateStatement) {
      return Status::Corruption(
          StrFormat("WAL record %llu has unknown type %u",
                    static_cast<unsigned long long>(rec.lsn),
                    static_cast<unsigned>(rec.type)));
    }
    if (rec.payload.size() < sizeof(uint32_t)) {
      return Status::Corruption("WAL update record payload too short");
    }
    uint32_t default_color;
    std::memcpy(&default_color, rec.payload.data(), sizeof(default_color));
    std::string_view text(rec.payload.data() + sizeof(default_color),
                          rec.payload.size() - sizeof(default_color));
    mcx::EvalOptions opts;
    opts.default_color = default_color;
    opts.planner = true;  // as the statement was planned when it ran
    mcx::Evaluator ev(out.db.get(), opts);
    auto r = ev.Run(text);
    if (!r.ok()) {
      return Status::Corruption(
          StrFormat("WAL replay failed at lsn %llu: %s",
                    static_cast<unsigned long long>(rec.lsn),
                    r.status().ToString().c_str()));
    }
    ++out.replayed_records;
  }
  MetricsRegistry::Global()
      .counter("mct.recovery.replayed_records")
      ->Inc(out.replayed_records);
  out.next_lsn = std::max(out.checkpoint_lsn, wal.max_lsn) + 1;
  return out;
}

Status CheckpointDatabase(const MctDatabase& db, const std::string& dir,
                          uint64_t last_lsn, FileEnv* env) {
  if (env == nullptr) env = FileEnv::Default();
  MCT_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListCheckpoints(dir, env));
  uint64_t seq = seqs.empty() ? 1 : seqs.front() + 1;
  // SaveSnapshot is the atomic step: temp write + fsync + rename + dir sync.
  MCT_RETURN_IF_ERROR(SaveSnapshot(db, CheckpointPath(dir, seq), env, last_lsn));
  // Pruning is cleanup, not correctness: a crash here leaves extra files
  // that recovery skips (older checkpoints) or ignores (.tmp).
  auto entries = env->ListDir(dir);
  MCT_RETURN_IF_ERROR(entries.status());
  for (const std::string& name : *entries) {
    auto old = ParseCheckpointName(name);
    bool stray_tmp = name.size() > 4 &&
                     name.compare(name.size() - 4, 4, ".tmp") == 0;
    if ((old.has_value() && *old < seq) || stray_tmp) {
      MCT_RETURN_IF_ERROR(env->RemoveFile(dir + "/" + name));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<DurableSession>> DurableSession::Open(
    const std::string& dir, FileEnv* env) {
  if (env == nullptr) env = FileEnv::Default();
  MCT_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  auto session =
      std::unique_ptr<DurableSession>(new DurableSession(dir, env));
  MCT_ASSIGN_OR_RETURN(session->lock_, DirLock::Acquire(env, dir));
  MCT_ASSIGN_OR_RETURN(RecoveredDatabase rec, RecoverDatabase(dir, env));
  session->db_ = std::move(rec.db);
  MCT_ASSIGN_OR_RETURN(
      session->wal_,
      WalWriter::Open(env, WalPath(dir), rec.next_lsn, /*truncate=*/false));
  return session;
}

Status DurableSession::Bootstrap(std::unique_ptr<MctDatabase> db) {
  db_ = std::move(db);
  return Checkpoint();
}

Result<mcx::QueryResult> DurableSession::Run(std::string_view text,
                                             ColorId default_color,
                                             bool sync_each) {
  mcx::EvalOptions opts;
  opts.default_color = default_color;
  opts.planner = true;  // as ColorServer plans its commits
  opts.wal = wal_.get();
  opts.wal_sync_each = sync_each;
  mcx::Evaluator ev(db_.get(), opts);
  return ev.Run(text);
}

Status DurableSession::Checkpoint() {
  // Everything appended so far must be durable before the checkpoint claims
  // to cover it.
  MCT_RETURN_IF_ERROR(wal_->Sync());
  uint64_t covered = wal_->next_lsn() - 1;
  MCT_RETURN_IF_ERROR(CheckpointDatabase(*db_, dir_, covered, env_));
  // Reset the log. A crash before (or during) this reopen merely leaves old
  // records the next recovery filters out by LSN.
  MCT_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(env_, WalPath(dir_), wal_->next_lsn(),
                            /*truncate=*/true));
  return Status::OK();
}

}  // namespace mct
