// WAL record format, group fsync, torn-tail repair, the FaultInjectionEnv
// crash model, and the EINTR/short-transfer retry loops under the real
// POSIX FileEnv.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "storage/fault_env.h"
#include "storage/file_env.h"
#include "storage/io_util.h"
#include "storage/wal.h"

namespace mct {
namespace {

// ---- CRC32C ----

TEST(Crc32cTest, KnownVectors) {
  // Published Castagnoli vectors (RFC 3720 appendix / LevelDB tests).
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  char zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, 32), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendIsStreaming) {
  const std::string data = "colorful xml one hierarchy isn't enough";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = Crc32c(data.data(), split);
    uint32_t whole =
        Crc32cExtend(part, data.data() + split, data.size() - split);
    EXPECT_EQ(whole, Crc32c(data.data(), data.size())) << "split " << split;
  }
}

TEST(Crc32cTest, SingleBitFlipsChangeTheSum) {
  std::string data(256, '\x5A');
  uint32_t good = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size() * 8; i += 13) {
    std::string bad = data;
    bad[i / 8] = static_cast<char>(bad[i / 8] ^ (1 << (i % 8)));
    EXPECT_NE(Crc32c(bad.data(), bad.size()), good) << "bit " << i;
  }
}

// ---- io_util retry loops through the real POSIX FileEnv ----

struct HookGuard {
  ~HookGuard() { ClearIoSyscallHooksForTest(); }
};

TEST(IoRetryTest, FileEnvRetriesEintrAndShortTransfers) {
  FileEnv* env = FileEnv::Default();
  std::string path = testing::TempDir() + "/io_retry.bin";
  std::filesystem::remove(path);
  auto file = env->NewWritableFile(path, /*truncate_existing=*/true);
  ASSERT_TRUE(file.ok()) << file.status();

  int eintrs = 0, shorts = 0;
  HookGuard guard;
  IoSyscallHooks hooks;
  // The append's first two attempts get EINTR, then every transfer is
  // capped at 1000 bytes, so 8K each way needs many resumed calls.
  int eintr_budget = 2;
  hooks.pwrite = [&](int fd, const void* buf, size_t n, off_t off) -> ssize_t {
    if (eintr_budget > 0) {
      --eintr_budget;
      ++eintrs;
      errno = EINTR;
      return -1;
    }
    if (n > 1000) {
      ++shorts;
      n = 1000;
    }
    return ::pwrite(fd, buf, n, off);
  };
  hooks.pread = [&](int fd, void* buf, size_t n, off_t off) -> ssize_t {
    if (n > 1000) {
      ++shorts;
      n = 1000;
    }
    return ::pread(fd, buf, n, off);
  };
  SetIoSyscallHooksForTest(std::move(hooks));

  std::string data(8192, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 7);
  ASSERT_TRUE((*file)->Append(data).ok());
  ASSERT_TRUE((*file)->Close().ok());
  const int write_shorts = shorts;
  auto back = env->ReadFileToString(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, data);
  EXPECT_EQ(eintrs, 2);
  EXPECT_GT(write_shorts, 5);           // the append resumed after short writes
  EXPECT_GT(shorts - write_shorts, 5);  // and the read back after short reads

  ClearIoSyscallHooksForTest();
  std::filesystem::remove(path);
}

TEST(IoRetryTest, RealErrorsSurfaceErrnoText) {
  FileEnv* env = FileEnv::Default();
  std::string path = testing::TempDir() + "/io_err.bin";
  std::filesystem::remove(path);
  auto file = env->NewWritableFile(path, /*truncate_existing=*/true);
  ASSERT_TRUE(file.ok()) << file.status();

  HookGuard guard;
  IoSyscallHooks hooks;
  hooks.pwrite = [](int, const void*, size_t, off_t) -> ssize_t {
    errno = ENOSPC;
    return -1;
  };
  SetIoSyscallHooksForTest(std::move(hooks));
  Status s = (*file)->Append(std::string(64, 'x'));
  ASSERT_TRUE(s.IsIOError());
  EXPECT_NE(s.message().find(std::strerror(ENOSPC)), std::string::npos) << s;

  ClearIoSyscallHooksForTest();
  file->reset();
  std::filesystem::remove(path);
}

TEST(IoRetryTest, OpenErrorsIncludeErrnoText) {
  // A directory cannot be opened for writing.
  auto file = FileEnv::Default()->NewWritableFile(testing::TempDir(),
                                                  /*truncate_existing=*/false);
  ASSERT_FALSE(file.ok());
  ASSERT_TRUE(file.status().IsIOError());
  EXPECT_NE(file.status().message().find(std::strerror(EISDIR)),
            std::string::npos)
      << file.status();
}

// ---- FaultInjectionEnv crash model ----

TEST(FaultEnvTest, UnsyncedDataIsVisibleButLostOnCrash) {
  FaultInjectionEnv env;
  auto f = env.NewWritableFile("/d/x", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("durable").ok());
  ASSERT_TRUE((*f)->Sync().ok());
  ASSERT_TRUE((*f)->Append("volatile").ok());
  EXPECT_EQ(*env.ReadFileToString("/d/x"), "durablevolatile");
  EXPECT_EQ(env.UnsyncedBytes("/d/x"), 8u);
  env.SimulateCrash();
  EXPECT_EQ(*env.ReadFileToString("/d/x"), "durable");
  // The pre-crash handle is dead.
  EXPECT_TRUE((*f)->Append("zombie").IsIOError());
  EXPECT_TRUE((*f)->Sync().IsIOError());
}

TEST(FaultEnvTest, CrashKeepsRequestedPrefixOfOneFile) {
  FaultInjectionEnv env;
  auto f = env.NewWritableFile("/d/wal.log", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("base|").ok());
  ASSERT_TRUE((*f)->Sync().ok());
  ASSERT_TRUE((*f)->Append("abcdef").ok());
  env.SimulateCrashKeepingPrefix("wal", 3);
  EXPECT_EQ(*env.ReadFileToString("/d/wal.log"), "base|abc");
}

TEST(FaultEnvTest, NthAppendFaultIsOneShotAndPathFiltered) {
  FaultInjectionEnv env;
  auto wal = env.NewWritableFile("/d/wal.log", true);
  auto other = env.NewWritableFile("/d/other", true);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(other.ok());
  env.FailNthAppend("wal.log", 2);
  EXPECT_TRUE((*other)->Append("not counted").ok());
  EXPECT_TRUE((*wal)->Append("first").ok());
  EXPECT_TRUE((*wal)->Append("second").IsIOError());
  EXPECT_TRUE((*wal)->Append("third").ok());  // one-shot: disarmed
  EXPECT_EQ(*env.ReadFileToString("/d/wal.log"), "firstthird");
}

TEST(FaultEnvTest, RenameListAndRemove) {
  FaultInjectionEnv env;
  auto f = env.NewWritableFile("/d/a.tmp", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("payload").ok());
  ASSERT_TRUE((*f)->Sync().ok());
  ASSERT_TRUE(env.RenameFile("/d/a.tmp", "/d/a").ok());
  EXPECT_FALSE(*env.FileExists("/d/a.tmp"));
  EXPECT_EQ(*env.ReadFileToString("/d/a"), "payload");
  auto names = env.ListDir("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "a");
  env.FailNextRename();
  EXPECT_TRUE(env.RenameFile("/d/a", "/d/b").IsIOError());
  EXPECT_TRUE(*env.FileExists("/d/a"));  // failed rename did nothing
  env.FailNextRemove();
  EXPECT_TRUE(env.RemoveFile("/d/a").IsIOError());
  EXPECT_TRUE(env.RemoveFile("/d/a").ok());
}

// ---- WAL ----

std::string WalBytes(FaultInjectionEnv* env, const std::string& path) {
  auto r = env->ReadFileToString(path);
  EXPECT_TRUE(r.ok());
  return r.ok() ? *r : std::string();
}

TEST(WalTest, AppendSyncReadBackRoundTrip) {
  FaultInjectionEnv env;
  auto w = WalWriter::Open(&env, "/d/wal.log", 1, true);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*(*w)->Append(WalRecordType::kUpdateStatement, "alpha"), 1u);
  EXPECT_EQ(*(*w)->Append(WalRecordType::kUpdateStatement, ""), 2u);
  EXPECT_EQ(*(*w)->Append(WalRecordType::kUpdateStatement, "gamma"), 3u);
  ASSERT_TRUE((*w)->Sync().ok());

  auto contents = ReadWal(&env, "/d/wal.log");
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_FALSE(contents->torn_tail);
  EXPECT_EQ(contents->max_lsn, 3u);
  EXPECT_EQ(contents->records[0].payload, "alpha");
  EXPECT_EQ(contents->records[1].payload, "");
  EXPECT_EQ(contents->records[2].payload, "gamma");
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(contents->records[i].lsn, i + 1);
    EXPECT_EQ(contents->records[i].type, WalRecordType::kUpdateStatement);
  }
}

TEST(WalTest, PosixBackedRoundTripAndReopenAppend) {
  std::string path = testing::TempDir() + "/mct_wal_test.log";
  std::filesystem::remove(path);
  FileEnv* env = FileEnv::Default();
  {
    auto w = WalWriter::Open(env, path, 1, true);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(WalRecordType::kUpdateStatement, "one").ok());
    ASSERT_TRUE((*w)->Sync().ok());
  }
  {
    auto contents = ReadWal(env, path);
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents->records.size(), 1u);
    auto w = WalWriter::Open(env, path, contents->max_lsn + 1, false);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(WalRecordType::kUpdateStatement, "two").ok());
    ASSERT_TRUE((*w)->Sync().ok());
  }
  auto contents = ReadWal(env, path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->records[1].payload, "two");
  EXPECT_EQ(contents->records[1].lsn, 2u);
  std::filesystem::remove(path);
}

TEST(WalTest, GroupCommitIsOneFsyncPerBatch) {
  MetricsRegistry::Global().ResetForTest();
  FaultInjectionEnv env;
  auto w = WalWriter::Open(&env, "/d/wal.log", 1, true);
  ASSERT_TRUE(w.ok());
  uint64_t syncs_before = env.num_syncs();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*w)->Append(WalRecordType::kUpdateStatement, "x").ok());
  }
  ASSERT_TRUE((*w)->Sync().ok());
  EXPECT_EQ(env.num_syncs(), syncs_before + 1);
  // A clean writer does not fsync again.
  ASSERT_TRUE((*w)->Sync().ok());
  EXPECT_EQ(env.num_syncs(), syncs_before + 1);
  EXPECT_EQ(MetricsRegistry::Global().counter("mct.wal.appends")->value(),
            10u);
  EXPECT_EQ(MetricsRegistry::Global().counter("mct.wal.fsyncs")->value(), 1u);
}

TEST(WalTest, EveryTruncationPointYieldsTheValidPrefix) {
  FaultInjectionEnv env;
  auto w = WalWriter::Open(&env, "/d/wal.log", 1, true);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE((*w)->Append(WalRecordType::kUpdateStatement, "record-A").ok());
  ASSERT_TRUE(
      (*w)->Append(WalRecordType::kUpdateStatement, "record-BB").ok());
  ASSERT_TRUE((*w)->Sync().ok());
  std::string good = WalBytes(&env, "/d/wal.log");
  size_t rec_a_end = 8 + 17 + 8;  // magic + header + payload

  for (size_t len = 0; len <= good.size(); ++len) {
    FaultInjectionEnv env2;
    auto f = env2.NewWritableFile("/d/wal.log", true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(good.substr(0, len)).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    auto contents = ReadWal(&env2, "/d/wal.log");
    ASSERT_TRUE(contents.ok()) << "len " << len;
    size_t expect_records =
        len >= good.size() ? 2 : (len >= rec_a_end ? 1 : 0);
    EXPECT_EQ(contents->records.size(), expect_records) << "len " << len;
    // Torn exactly when some non-durable suffix exists past the valid
    // prefix (which is 0 while even the magic is incomplete).
    EXPECT_EQ(contents->torn_tail, contents->valid_bytes != len)
        << "len " << len;
    EXPECT_LE(contents->valid_bytes, len);
  }
}

TEST(WalTest, BitFlipsStopTheScanAtTheCorruptRecord) {
  FaultInjectionEnv env;
  auto w = WalWriter::Open(&env, "/d/wal.log", 1, true);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE((*w)->Append(WalRecordType::kUpdateStatement, "first").ok());
  ASSERT_TRUE((*w)->Append(WalRecordType::kUpdateStatement, "second").ok());
  ASSERT_TRUE((*w)->Sync().ok());
  std::string good = WalBytes(&env, "/d/wal.log");
  size_t rec2_start = 8 + 17 + 5;

  for (size_t off = rec2_start; off < good.size(); ++off) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    FaultInjectionEnv env2;
    auto f = env2.NewWritableFile("/d/wal.log", true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(bad).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    auto contents = ReadWal(&env2, "/d/wal.log");
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents->records.size(), 1u) << "flip at " << off;
    EXPECT_EQ(contents->records[0].payload, "first");
    EXPECT_TRUE(contents->torn_tail);
    EXPECT_EQ(contents->valid_bytes, rec2_start);
  }
}

TEST(WalTest, MissingEmptyAndForeignFiles) {
  FaultInjectionEnv env;
  auto missing = ReadWal(&env, "/d/nope.log");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());

  auto f = env.NewWritableFile("/d/empty.log", true);
  ASSERT_TRUE((*f)->Sync().ok());
  auto empty = ReadWal(&env, "/d/empty.log");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());
  EXPECT_FALSE(empty->torn_tail);

  auto g = env.NewWritableFile("/d/foreign.log", true);
  ASSERT_TRUE((*g)->Append("DEFINITELY NOT A WAL FILE").ok());
  ASSERT_TRUE((*g)->Sync().ok());
  auto foreign = ReadWal(&env, "/d/foreign.log");
  ASSERT_FALSE(foreign.ok());
  EXPECT_TRUE(foreign.status().IsCorruption());

  auto h = env.NewWritableFile("/d/partial.log", true);
  ASSERT_TRUE((*h)->Append("MCTW").ok());  // crash mid-magic
  ASSERT_TRUE((*h)->Sync().ok());
  auto partial = ReadWal(&env, "/d/partial.log");
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->records.empty());
  EXPECT_TRUE(partial->torn_tail);
}

TEST(WalTest, NonMonotonicLsnIsTreatedAsTail) {
  FaultInjectionEnv env;
  {
    auto w = WalWriter::Open(&env, "/d/wal.log", 5, true);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(WalRecordType::kUpdateStatement, "lsn5").ok());
    ASSERT_TRUE((*w)->Sync().ok());
  }
  {
    // A buggy reopen that reuses a lower LSN.
    auto w = WalWriter::Open(&env, "/d/wal.log", 3, false);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(WalRecordType::kUpdateStatement, "lsn3").ok());
    ASSERT_TRUE((*w)->Sync().ok());
  }
  auto contents = ReadWal(&env, "/d/wal.log");
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].lsn, 5u);
  EXPECT_TRUE(contents->torn_tail);
}

}  // namespace
}  // namespace mct
