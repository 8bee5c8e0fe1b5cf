#include "fdb/exec/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fdb/obs/metrics.h"

namespace fdb {
namespace exec {
namespace {

TEST(TaskPoolTest, ParallelForCoversRangeExactlyOnce) {
  TaskPool pool(4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(kN, 7, [&](int, int64_t lo, int64_t hi) {
    int64_t s = 0;
    for (int64_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      s += i;
    }
    sum.fetch_add(s, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskPoolTest, PartSlotsAreDenseAndBounded) {
  TaskPool pool(4);
  std::mutex mu;
  std::set<int> parts;
  pool.ParallelFor(64, 1, [&](int part, int64_t, int64_t) {
    std::lock_guard<std::mutex> g(mu);
    parts.insert(part);
  });
  ASSERT_FALSE(parts.empty());
  EXPECT_GE(*parts.begin(), 0);
  EXPECT_LT(*parts.rbegin(), pool.num_threads());
  // Dense: slots are handed out 0, 1, 2, … in claim order.
  EXPECT_EQ(*parts.rbegin(), static_cast<int>(parts.size()) - 1);
}

TEST(TaskPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  auto chunks_of = [](int threads) {
    TaskPool pool(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(1000, 64, [&](int, int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> g(mu);
      chunks.emplace(lo, hi);
    });
    return chunks;
  };
  EXPECT_EQ(chunks_of(1), chunks_of(4));
}

TEST(TaskPoolTest, SingleThreadPoolRunsInline) {
  TaskPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int64_t sum = 0;
  pool.ParallelFor(100, 9, [&](int part, int64_t lo, int64_t hi) {
    EXPECT_EQ(part, 0);
    for (int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 100 * 99 / 2);
}

TEST(TaskPoolTest, ExceptionPropagatesAfterDraining) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(100, 1,
                       [&](int, int64_t lo, int64_t) {
                         ran.fetch_add(1);
                         if (lo == 42) {
                           throw std::runtime_error("chunk 42 failed");
                         }
                       }),
      std::runtime_error);
  // All chunks were still claimed and finished before the rethrow.
  EXPECT_EQ(ran.load(), 100);
}

TEST(TaskPoolTest, NestedParallelForCompletes) {
  TaskPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 1, [&](int, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // Atomic: the inner chunks run on several threads at once.
      std::atomic<int64_t> inner{0};
      pool.ParallelFor(50, 5, [&](int, int64_t l, int64_t h) {
        // The inner caller participates in its own range, so this cannot
        // deadlock even with every worker busy in the outer loop.
        for (int64_t j = l; j < h; ++j) inner.fetch_add(1);
      });
      total.fetch_add(inner.load());
    }
  });
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(TaskPoolTest, ConcurrentCallersShareOnePool) {
  // Several threads fork onto one pool at once, each call nesting one
  // level, as concurrent served sessions do: every caller's range must
  // be covered exactly once.
  TaskPool pool(3);
  constexpr int kCallers = 4;
  constexpr int64_t kOuter = 16;
  constexpr int64_t kInner = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kOuter * kInner);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kOuter, 1, [&](int, int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          pool.ParallelFor(kInner, 7, [&](int, int64_t l, int64_t h) {
            for (int64_t j = l; j < h; ++j) {
              hits[c][i * kInner + j].fetch_add(1, std::memory_order_relaxed);
            }
          });
        }
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int64_t k = 0; k < kOuter * kInner; ++k) {
      ASSERT_EQ(hits[c][k].load(), 1) << "caller " << c << " index " << k;
    }
  }
}

TEST(TaskPoolTest, TasksRunCountsOnlyHelpersThatRanAChunk) {
  // taskpool.tasks_run rises by one per pool worker that ran a body in a
  // call. A helper that wakes to find every chunk claimed adds nothing
  // there and one to taskpool.stale_helpers: the second call below queues
  // one while the only worker is busy.
  bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter& tasks =
      obs::Registry::Instance().GetCounter("taskpool.tasks_run");
  obs::Counter& stale =
      obs::Registry::Instance().GetCounter("taskpool.stale_helpers");
  uint64_t before = tasks.Value();
  uint64_t stale_before = stale.Value();
  TaskPool pool(2);  // one worker
  std::mutex mu;
  uint64_t helpers_ran = 0;  // Σ over calls of distinct non-caller threads
  // Runs one call; `body` runs in every chunk after it is noted.
  auto call = [&](const std::function<void()>& body) {
    std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> ran;
    pool.ParallelFor(2, 1, [&](int, int64_t, int64_t) {
      {
        std::lock_guard<std::mutex> g(mu);
        if (std::this_thread::get_id() != caller) {
          ran.insert(std::this_thread::get_id());
        }
      }
      body();
    });
    std::lock_guard<std::mutex> g(mu);
    helpers_ran += ran.size();
  };
  auto wait_for = [](const std::atomic<int>& v, int want) {
    while (v.load() < want) std::this_thread::yield();
  };
  // 1. Another thread's call holds both the worker and its caller.
  std::atomic<int> entered{0}, released{0};
  std::thread busy([&] {
    call([&] {
      entered.fetch_add(1);
      wait_for(released, 1);
    });
  });
  wait_for(entered, 2);
  // 2. This call's helper cannot run: the caller takes both chunks.
  call([] {});
  released.store(1);
  busy.join();
  // 3. The worker pops the stale helper, then this call's, whose chunk
  // the caller waits for.
  std::atomic<int> helper_in{0};
  std::thread::id main_id = std::this_thread::get_id();
  call([&] {
    if (std::this_thread::get_id() == main_id) {
      wait_for(helper_in, 1);
    } else {
      helper_in.store(1);
    }
  });
  EXPECT_EQ(helpers_ran, 2u);
  EXPECT_EQ(tasks.Value() - before, helpers_ran);
  EXPECT_EQ(stale.Value() - stale_before, 1u);
  obs::SetMetricsEnabled(metrics_were_on);
}

TEST(TaskPoolTest, SetDefaultThreadsResizes) {
  int before = TaskPool::Default().num_threads();
  TaskPool::SetDefaultThreads(3);
  EXPECT_EQ(TaskPool::Default().num_threads(), 3);
  TaskPool::SetDefaultThreads(before);
  EXPECT_EQ(TaskPool::Default().num_threads(), before);
}

TEST(TaskPoolTest, ChunkOrderedReductionMatchesAcrossWidths) {
  // A one-thread pool runs the same chunks in order on the caller, so a
  // chunk-ordered reduction is bit-identical at every width.
  auto run = [](int threads) {
    TaskPool::SetDefaultThreads(threads);
    std::vector<double> partial((1000 + 63) / 64);
    TaskPool::Default().ParallelFor(1000, 64, [&](int, int64_t lo,
                                                  int64_t hi) {
      double s = 0;
      for (int64_t i = lo; i < hi; ++i) s += 1.0 / (1.0 + double(i));
      partial[lo / 64] = s;
    });
    double total = 0;
    for (double p : partial) total += p;
    return total;
  };
  int before = TaskPool::Default().num_threads();
  double serial = run(1);
  double parallel = run(4);
  TaskPool::SetDefaultThreads(before);
  EXPECT_EQ(serial, parallel);  // exact: same chunks, same combine order
}

}  // namespace
}  // namespace exec
}  // namespace fdb
