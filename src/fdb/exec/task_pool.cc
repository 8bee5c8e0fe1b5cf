#include "fdb/exec/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "fdb/exec/cancel.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"

namespace fdb {
namespace exec {
namespace {

// A queue this deep marks the pool as saturated (the kPoolSaturation
// event's trigger).
constexpr size_t kSaturationDepth = 64;

// Pool-wide metrics (shared across Default() pool rebuilds — the registry
// outlives every pool instance).
obs::Counter& TasksRunCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "taskpool.tasks_run", "tasks",
      "pool workers that joined a ParallelFor and ran a chunk");
  return c;
}

obs::Counter& StaleHelpersCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "taskpool.stale_helpers", "tasks",
      "pool workers that joined a ParallelFor after every chunk was claimed");
  return c;
}

obs::Gauge& QueueDepthHwm() {
  static obs::Gauge& g = obs::Registry::Instance().GetGauge(
      "taskpool.queue_depth_hwm", "tasks",
      "high-water mark of the pool's queue");
  return g;
}

obs::Counter& IdleNsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "taskpool.worker_idle_ns", "ns",
      "total time workers spent asleep waiting for work");
  return c;
}

int DefaultThreadCount() {
  if (const char* env = std::getenv("FDB_THREADS")) {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex& DefaultPoolMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::unique_ptr<TaskPool>& DefaultPoolSlot() {
  static std::unique_ptr<TaskPool>* slot = new std::unique_ptr<TaskPool>();
  return *slot;
}

// Saturation event: a queue this deep means callers are outrunning the
// pool (the network-service admission layer's signal). Rate-limited to
// one event per second so a saturated burst cannot flood the ring.
void MaybeEmitSaturation(size_t depth, size_t workers) {
  if (depth < kSaturationDepth || !obs::LogEnabled()) return;
  static std::atomic<int64_t> last_emit_ns{0};
  int64_t now = obs::NowNs();
  int64_t last = last_emit_ns.load(std::memory_order_relaxed);
  if (now - last >= 1'000'000'000 &&
      last_emit_ns.compare_exchange_strong(last, now,
                                           std::memory_order_relaxed)) {
    obs::EventLog::Instance().Emit(
        obs::EventType::kPoolSaturation,
        {obs::F("queue_depth", depth), obs::F("workers", workers)});
  }
}

}  // namespace

// One ParallelFor invocation: chunks are claimed off `next_chunk`, so the
// partition is fixed by (n, grain) while the assignment of chunks to
// threads is dynamic. Helpers queued on the pool may outlive the
// ParallelFor call (waking after every chunk is claimed); the shared_ptr
// keeps the job alive for them, and they touch `body` only while running
// a claimed chunk, which the caller's completion wait covers.
struct TaskPool::ForJob {
  const std::function<void(int, int64_t, int64_t)>* body = nullptr;
  CancelToken* token = nullptr;  // caller's token, re-installed per chunk
  int64_t n = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> done_chunks{0};
  std::atomic<int> next_part{0};
  base::Mutex mu;
  base::CondVar cv;
  bool all_done GUARDED_BY(mu) = false;
  std::exception_ptr error GUARDED_BY(mu);

  // Claims and runs chunks until none is left. A pool worker (`helper`)
  // counts as one task run once it claims a chunk, and as one stale helper
  // if it wakes after every chunk is claimed. A task run's count lands
  // before its chunk completes, so the caller's completion wait sees it.
  void RunChunks(bool helper) {
    int part = -1;
    for (;;) {
      int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) {
        if (helper && part < 0) StaleHelpersCounter().Inc();
        return;
      }
      if (part < 0) {
        part = next_part.fetch_add(1, std::memory_order_relaxed);
        if (helper) TasksRunCounter().Inc();
      }
      int64_t lo = c * grain;
      int64_t hi = std::min(n, lo + grain);
      // A tripped token short-circuits remaining chunks: they are still
      // claimed and counted (the completion wait needs every chunk
      // accounted for) but their bodies never run.
      if (token == nullptr || !token->cancelled()) {
        try {
          CancelScope scope(token);
          (*body)(part, lo, hi);
        } catch (...) {
          base::MutexLock g(&mu);
          if (error == nullptr) error = std::current_exception();
        }
      }
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        base::MutexLock g(&mu);
        all_done = true;
        cv.NotifyAll();
      }
    }
  }
};

TaskPool::TaskPool(int threads) {
  int workers = std::max(1, threads) - 1;
  threads_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    base::MutexLock g(&mu_);
    stop_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

TaskPool& TaskPool::Default() {
  std::lock_guard<std::mutex> g(DefaultPoolMutex());
  std::unique_ptr<TaskPool>& slot = DefaultPoolSlot();
  if (slot == nullptr) slot = std::make_unique<TaskPool>(DefaultThreadCount());
  return *slot;
}

void TaskPool::SetDefaultThreads(int threads) {
  std::lock_guard<std::mutex> g(DefaultPoolMutex());
  // Destroys the old pool first (joining its workers), then installs the
  // resized one — callers must have no parallel work in flight.
  DefaultPoolSlot() = nullptr;
  DefaultPoolSlot() = std::make_unique<TaskPool>(threads);
}

void TaskPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<ForJob> job;
    {
      int64_t idle_t0 = -1;
      base::MutexLock lk(&mu_);
      while (!stop_ && queue_.empty()) {
        if (idle_t0 < 0 && obs::MetricsEnabled()) idle_t0 = obs::NowNs();
        wake_.Wait(mu_);
      }
      if (stop_) return;
      if (idle_t0 >= 0) {
        IdleNsCounter().Inc(static_cast<uint64_t>(obs::NowNs() - idle_t0));
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job->RunChunks(/*helper=*/true);
  }
}

void TaskPool::ParallelFor(
    int64_t n, int64_t grain,
    const std::function<void(int part, int64_t lo, int64_t hi)>& body) {
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  auto job = std::make_shared<ForJob>();
  job->body = &body;
  job->token = CurrentCancelToken();
  // Poll once before dispatch: bodies restart their poll counters per
  // chunk, so chunks shorter than one poll interval would otherwise run a
  // query whose deadline has already passed to completion.
  if (job->token != nullptr) job->token->Check();
  job->n = n;
  job->grain = grain;
  job->num_chunks = (n + grain - 1) / grain;
  int64_t helpers = std::min<int64_t>(static_cast<int64_t>(threads_.size()),
                                      job->num_chunks - 1);
  if (helpers > 0) {
    size_t depth;
    {
      base::MutexLock g(&mu_);
      queue_.insert(queue_.end(), static_cast<size_t>(helpers), job);
      depth = queue_.size();
    }
    QueueDepthHwm().UpdateMax(static_cast<int64_t>(depth));
    MaybeEmitSaturation(depth, threads_.size());
    for (int64_t i = 0; i < helpers; ++i) wake_.NotifyOne();
  }
  ForJob& j = *job;
  j.RunChunks(/*helper=*/false);
  base::MutexLock lk(&j.mu);
  while (!j.all_done) j.cv.Wait(j.mu);
  if (j.error != nullptr) std::rethrow_exception(j.error);
}

}  // namespace exec
}  // namespace fdb
