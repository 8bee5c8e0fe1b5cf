#ifndef FDB_EXEC_TASK_POOL_H_
#define FDB_EXEC_TASK_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "fdb/base/thread_annotations.h"

namespace fdb {
namespace exec {

/// A fork/join thread pool.
///
/// The pool owns `threads - 1` worker threads; the thread that calls
/// ParallelFor always participates as well, so `threads == 1` means no
/// workers at all and ParallelFor runs its chunks in order on the caller.
///
/// Scheduling is morsel-style: ParallelFor partitions an index range into
/// fixed-size chunks claimed off one shared atomic cursor, and queues
/// helpers on the pool's one FIFO; an idle worker pops the oldest helper
/// and joins that call's chunk loop. The partition depends only on the
/// range and the grain, never on the thread count, so any chunk-ordered
/// reduction is identical no matter how many threads execute it.
class TaskPool {
 public:
  /// A pool executing on `threads` threads total (callers + workers);
  /// values < 1 are clamped to 1.
  explicit TaskPool(int threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total execution width: worker threads + the participating caller.
  int num_threads() const { return static_cast<int>(threads_.size()) + 1; }

  /// The process-default pool used by the engine hot paths. Sized by the
  /// FDB_THREADS environment variable when set, else by
  /// std::thread::hardware_concurrency().
  static TaskPool& Default();

  /// Re-sizes the default pool (e.g. the shell's \threads command, bench
  /// sweeps). Must not be called while parallel work is in flight.
  static void SetDefaultThreads(int threads);

  /// Structured fork/join over [0, n): invokes `body(part, lo, hi)` for
  /// consecutive chunks of at most `grain` indices until the range is
  /// exhausted, on up to num_threads() threads including the caller, and
  /// returns when every chunk has finished. `part` is a dense slot in
  /// [0, num_threads()) stable for one participating thread within this
  /// call — use it to index per-worker state (arenas, scratch buffers).
  /// Chunk boundaries depend only on (n, grain), never on the thread
  /// count; on a one-thread pool the chunks run in order with part 0.
  /// The first exception thrown by any chunk is rethrown on the caller
  /// after all chunks drain. Nested calls are safe: the inner caller
  /// participates in its own range, so progress never depends on the
  /// pool having idle workers.
  ///
  /// Cancellation: the caller's current exec::CancelToken (if any) is
  /// captured and installed around every chunk execution, so cooperative
  /// limit polls inside `body` see it on whichever worker runs the
  /// chunk; once the token trips, remaining unclaimed chunks are skipped.
  void ParallelFor(int64_t n, int64_t grain,
                   const std::function<void(int part, int64_t lo, int64_t hi)>&
                       body);

 private:
  struct ForJob;

  void WorkerLoop();

  base::Mutex mu_;
  base::CondVar wake_;
  /// Helpers queued by ParallelFor, oldest first.
  std::deque<std::shared_ptr<ForJob>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace exec
}  // namespace fdb

#endif  // FDB_EXEC_TASK_POOL_H_
