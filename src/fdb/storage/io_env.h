#ifndef FDB_STORAGE_IO_ENV_H_
#define FDB_STORAGE_IO_ENV_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>

namespace fdb {
namespace storage {

/// Fault-injectable syscall shim. Every write-path operation of the
/// storage layer — the snapshot writer's FileSink (base writes) and the
/// write-ahead log — goes through these wrappers instead of the raw
/// syscalls, each call tagged with a *site* name ("wal_fsync",
/// "snapshot_write", "dir_fsync", ...). In production the wrappers are
/// pass-throughs plus a per-site call counter; under test a *failpoint*
/// makes a chosen call misbehave, which is how the crash-recovery
/// harness kills the write path at arbitrary points and how the
/// failure-injection tests prove a failed Save/Checkpoint leaves the
/// previous base and its log intact.
///
/// Failpoints come from the FDB_FAILPOINT environment variable (read
/// once, at first use) or from SetFailpoints(). Spec grammar:
///
///   spec  := point (',' point)*
///   point := site ':' count [':' mode]
///   mode  := "error" (default) | "short" | "flip"
///
/// `site` names one instrumented call site, or "any" to match every
/// site (the count then indexes the global stream of shimmed calls —
/// the randomized-kill-point mechanism). `count` is 1-based: the
/// count-th matching call triggers the fault.
///
/// Modes model distinct failure shapes:
///   error  the triggering call fails with EIO, and — like a crashed
///          process or a dead disk — *every* later shimmed call fails
///          too (sticky), so no post-"crash" write can sneak to disk.
///   short  the triggering Write stores only half the requested bytes
///          (a torn write), then the environment goes sticky-dead as
///          with `error`. On non-Write calls it behaves like `error`.
///   flip   the triggering Write flips one bit mid-buffer and succeeds;
///          later calls proceed normally (silent corruption, for
///          checksum-detection tests).
///
/// Example: FDB_FAILPOINT=wal_fsync:3 fails the third WAL fsync and
/// everything after it.
class IoEnv {
 public:
  /// The process-wide instance used by all storage code.
  static IoEnv& Instance();

  /// Replaces the failpoint set ("" clears) and revives a sticky-dead
  /// environment. Also resets nothing else: call counters survive.
  void SetFailpoints(const std::string& spec);
  void ClearFailpoints() { SetFailpoints(""); }
  /// True when any failpoint is armed or the environment is dead —
  /// the fast-path check production calls take first.
  bool armed() const;

  /// Calls observed at `site` since the last ResetCounts (faulted calls
  /// included). Site "any" returns the global total.
  uint64_t Count(const std::string& site) const;
  void ResetCounts();

  /// Atomically snapshots every per-site counter (plus the global total
  /// under key "any") and, when `reset`, zeroes them in the same critical
  /// section. Unlike a Count()-then-ResetCounts() pair, no concurrent
  /// writer can slip a call between the read and the reset, so summing
  /// successive snapshots always equals the true call count.
  std::map<std::string, uint64_t> SnapshotCounts(bool reset = false);

  // --- instrumented operations; semantics mirror the raw syscalls ---------
  int Open(const char* site, const char* path, int flags, int mode);
  ssize_t Write(const char* site, int fd, const void* buf, size_t n);
  ssize_t Pwrite(const char* site, int fd, const void* buf, size_t n,
                 int64_t off);
  ssize_t Pread(const char* site, int fd, void* buf, size_t n, int64_t off);
  int Fsync(const char* site, int fd);
  int Ftruncate(const char* site, int fd, int64_t len);
  int Rename(const char* site, const char* from, const char* to);
  int Close(const char* site, int fd);

 private:
  IoEnv();
  struct Impl;
  Impl* impl_;  // immortal (IoEnv lives for the process)
};

}  // namespace storage
}  // namespace fdb

#endif  // FDB_STORAGE_IO_ENV_H_
