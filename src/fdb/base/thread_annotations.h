#ifndef FDB_BASE_THREAD_ANNOTATIONS_H_
#define FDB_BASE_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

/// Clang Thread Safety Analysis for the whole engine.
///
/// Every mutex-guarded field and lock-requiring method in the codebase is
/// annotated with the macros below, so `clang++ -Wthread-safety -Werror`
/// (the `thread-safety` CI job) turns lock-discipline mistakes into
/// compile errors: touching a GUARDED_BY field without its mutex,
/// calling a REQUIRES method unlocked, double-acquiring, or returning
/// with a capability still held. Under GCC (which has no such analysis)
/// the macros expand to nothing and the shims compile down to the
/// standard-library primitives they wrap.
///
/// Conventions (enforced by tools/tsa_compile_fail.cc in CI):
///   - fields:   `int x_ GUARDED_BY(mu_);`
///   - methods:  `void FooLocked() REQUIRES(mu_);` — the `*Locked` suffix
///     and the annotation always travel together
///   - scopes:   `base::MutexLock lk(&mu_);` (never a bare
///     `std::lock_guard`, which the analysis cannot see through)
///   - waits:    `base::CondVar::Wait(mu_)` inside a while-loop whose
///     predicate reads only GUARDED_BY(mu_) state
///   - escape hatch: NO_THREAD_SAFETY_ANALYSIS, always with a comment
///     saying why the pattern is safe but unanalysable (e.g. writes to a
///     structure before it is published to other threads).

#if defined(__clang__)
#define FDB_TSA(x) __attribute__((x))
#else
#define FDB_TSA(x)  // no-op: GCC has no thread-safety analysis
#endif

#define CAPABILITY(x) FDB_TSA(capability(x))
#define SCOPED_CAPABILITY FDB_TSA(scoped_lockable)
#define GUARDED_BY(x) FDB_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) FDB_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) FDB_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) FDB_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) FDB_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) FDB_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) FDB_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) FDB_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) FDB_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) FDB_TSA(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) FDB_TSA(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) FDB_TSA(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  FDB_TSA(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) FDB_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) FDB_TSA(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) FDB_TSA(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) FDB_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS FDB_TSA(no_thread_safety_analysis)

namespace fdb {
namespace base {

class CondVar;

/// std::mutex with the capability annotations the analysis needs. Lock
/// sites use the scoped `MutexLock` below; `Lock`/`Unlock` exist for the
/// few early-release paths where a scope does not fit.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
#if defined(__SANITIZE_THREAD__)
  // std::mutex's destructor is trivial, so TSan never learns that this
  // address stopped being a mutex: a later one at the same address (a
  // Database on a reused stack slot) would inherit its lock-order edges
  // and make up deadlock cycles.
  ~Mutex() { __tsan_mutex_destroy(&mu_, 0); }
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for interop the analysis cannot model
  /// (condition variables reach it through CondVar instead).
  std::mutex& native() { return mu_; }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::shared_mutex with capability annotations: exclusive for writers,
/// shared for readers. `native()` serves the one movable-lock API
/// (ValueDict::FreezeRanks returns a std::shared_lock) that the scoped
/// shims cannot express.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void ReaderLock() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() RELEASE_SHARED() { mu_.unlock_shared(); }

  std::shared_mutex& native() { return mu_; }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over Mutex (the std::lock_guard replacement the
/// analysis understands).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// RAII exclusive lock over SharedMutex (writer side).
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared lock over SharedMutex (reader side).
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE_SHARED() { mu_->ReaderUnlock(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable bound to base::Mutex. Waits adopt the held lock
/// into a std::unique_lock for the duration of the block and release it
/// back, so callers keep the annotated capability across the wait. No
/// predicate overloads on purpose: the waiting loop lives in the caller,
/// where the analysis can see the guarded reads.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  /// Returns false on timeout, true when signalled.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    std::cv_status st = cv_.wait_until(lk, deadline);
    lk.release();
    return st != std::cv_status::timeout;
  }

  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& rel)
      REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + rel);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace base
}  // namespace fdb

#endif  // FDB_BASE_THREAD_ANNOTATIONS_H_
