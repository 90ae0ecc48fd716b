// Crash-safe durability: checkpoints + WAL replay.
//
// A durable database directory holds
//   checkpoint-<seq>.snap   checksummed full snapshots (mct/snapshot.h),
//                           each stamped with the last WAL LSN it covers
//   wal.log                 redo log of update statements (storage/wal.h)
//
// Invariants recovery relies on:
//  * checkpoints are written to a temp file, fsynced, renamed — so every
//    checkpoint-*.snap is either completely valid or detectably corrupt;
//  * WAL records are CRC'd and LSN-ordered — the log is valid up to a
//    well-defined prefix, and anything past it is a torn tail to truncate;
//  * a record with lsn <= the checkpoint's stamp is already reflected in
//    the checkpoint, so replay filters by LSN and is idempotent no matter
//    where between "checkpoint renamed" and "WAL reset" a crash landed.
//
// RecoverDatabase therefore converges: open the newest checkpoint that
// verifies, replay the WAL tail above its stamp, truncate any torn final
// record. Re-running it is a no-op, and a crash at any single point leaves
// the store recoverable to either the pre-update or post-update state.

#ifndef COLORFUL_XML_MCT_DURABILITY_H_
#define COLORFUL_XML_MCT_DURABILITY_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "mct/database.h"
#include "mcx/evaluator.h"
#include "storage/file_env.h"
#include "storage/wal.h"

namespace mct {

struct RecoveredDatabase {
  std::unique_ptr<MctDatabase> db;
  /// LSN stamp of the checkpoint recovery started from (0 = none).
  uint64_t checkpoint_lsn = 0;
  /// First LSN the reopened WAL should assign.
  uint64_t next_lsn = 1;
  uint64_t replayed_records = 0;
  bool wal_tail_truncated = false;
};

/// Rebuilds the database state of `dir`: newest valid checkpoint + WAL tail
/// replay (see file header). Corrupt newer checkpoints fall back to older
/// ones; checkpoints present but none valid, an unrecognizable WAL, or a
/// replay failure are Corruption. An empty/missing dir recovers to an empty
/// database. `env` null uses the real filesystem.
/// Path of the write-ahead log inside a database directory (shared by
/// DurableSession and the serving layer's ColorServer).
std::string WalFilePath(const std::string& dir);

Result<RecoveredDatabase> RecoverDatabase(const std::string& dir,
                                          FileEnv* env = nullptr);

/// Atomically writes a new checkpoint of `db` covering WAL records up to
/// and including `last_lsn`, then prunes older checkpoints and stray temp
/// files. The WAL itself is not touched (callers reset it separately; a
/// crash in between is covered by LSN filtering).
Status CheckpointDatabase(const MctDatabase& db, const std::string& dir,
                          uint64_t last_lsn, FileEnv* env = nullptr);

/// Process-wide writer exclusivity: at most one writer-capable handle
/// (DurableSession, or the serving layer's ColorServer) may have a given
/// (env, dir) open at a time. A second Acquire returns AlreadyExists until
/// the first lock is destroyed — turning the old "one writer session per
/// dir" comment into an enforced invariant instead of a latent assumption.
/// Keyed by env identity so independent in-memory FaultInjectionEnvs never
/// conflict. Move-only RAII.
class DirLock {
 public:
  static Result<DirLock> Acquire(FileEnv* env, const std::string& dir);

  DirLock() = default;
  DirLock(DirLock&& o) noexcept : env_(o.env_), dir_(std::move(o.dir_)) {
    o.env_ = nullptr;
  }
  DirLock& operator=(DirLock&& o) noexcept {
    if (this != &o) {
      Release();
      env_ = o.env_;
      dir_ = std::move(o.dir_);
      o.env_ = nullptr;
    }
    return *this;
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;
  ~DirLock() { Release(); }

  bool held() const { return env_ != nullptr; }

 private:
  DirLock(FileEnv* env, std::string dir) : env_(env), dir_(std::move(dir)) {}
  void Release();

  FileEnv* env_ = nullptr;
  std::string dir_;
};

/// One durably-persisted database: recovery on open, WAL-logged updates,
/// explicit checkpoints. Not thread-safe; holds the dir's writer lock for
/// its lifetime (a concurrent Open of the same (env, dir) fails with
/// AlreadyExists).
class DurableSession {
 public:
  /// Opens `dir` (creating it if missing), recovering existing state.
  static Result<std::unique_ptr<DurableSession>> Open(const std::string& dir,
                                                      FileEnv* env = nullptr);

  /// Replaces the current database with `db` and checkpoints immediately —
  /// the bootstrap step for data built out-of-band (XML load, fixtures),
  /// which bypasses the statement log.
  Status Bootstrap(std::unique_ptr<MctDatabase> db);

  /// Runs one statement; updates are WAL-logged and fsynced before this
  /// returns (set `sync_each` false to batch and call Sync() yourself).
  Result<mcx::QueryResult> Run(std::string_view text, ColorId default_color = 0,
                               bool sync_each = true);

  /// Fsyncs any batched WAL records (group commit boundary).
  Status Sync() { return wal_->Sync(); }

  /// Writes a checkpoint covering everything logged so far and resets the
  /// WAL. After this, recovery no longer needs the old log records.
  Status Checkpoint();

  MctDatabase* db() { return db_.get(); }
  uint64_t next_lsn() const { return wal_->next_lsn(); }
  const std::string& dir() const { return dir_; }

 private:
  DurableSession(std::string dir, FileEnv* env) : dir_(std::move(dir)), env_(env) {}

  std::string dir_;
  FileEnv* env_;
  DirLock lock_;
  std::unique_ptr<MctDatabase> db_;
  std::unique_ptr<WalWriter> wal_;
};

}  // namespace mct

#endif  // COLORFUL_XML_MCT_DURABILITY_H_
