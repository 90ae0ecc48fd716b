// Full-length positioned I/O over POSIX file descriptors.
//
// pread/pwrite may legally transfer fewer bytes than requested or fail with
// EINTR; treating either as a hard error turns routine signals into data
// corruption. PReadFull/PWriteFull loop until the full count transfers,
// retrying EINTR and resuming after short transfers, and surface the errno
// text in the returned Status when a real error occurs.
//
// Tests inject EINTR and short transfers through SetIoSyscallHooksForTest,
// which swaps the underlying syscalls for the whole process — the very same
// loops the production PosixFileEnv (FileEnv::Default()) runs are then
// exercised against the fault pattern.

#ifndef COLORFUL_XML_STORAGE_IO_UTIL_H_
#define COLORFUL_XML_STORAGE_IO_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace mct {

/// Replacement syscalls for fault injection; an empty function restores the
/// real syscall. Not thread-safe — install only from single-threaded tests.
struct IoSyscallHooks {
  std::function<ssize_t(int fd, void* buf, size_t n, off_t off)> pread;
  std::function<ssize_t(int fd, const void* buf, size_t n, off_t off)> pwrite;
};
void SetIoSyscallHooksForTest(IoSyscallHooks hooks);
void ClearIoSyscallHooksForTest();

/// IOError carrying the errno text: "<op> <target>: <strerror(err)>".
Status ErrnoStatus(const std::string& op, const std::string& target, int err);

/// Reads exactly `n` bytes at `offset`, retrying EINTR and short reads.
/// Hitting EOF before `n` bytes is an IOError (reads of allocated pages and
/// fully written files never legitimately see EOF).
Status PReadFull(int fd, char* buf, size_t n, uint64_t offset,
                 const std::string& what);

/// Writes exactly `n` bytes at `offset`, retrying EINTR and short writes.
Status PWriteFull(int fd, const char* buf, size_t n, uint64_t offset,
                  const std::string& what);

}  // namespace mct

#endif  // COLORFUL_XML_STORAGE_IO_UTIL_H_
