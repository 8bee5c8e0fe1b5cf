// ValueDict under concurrent interning and lock-free reads: exclusive
// intern path, shared-lock lookups, lock-free code→value resolution.
// Must run clean under TSan (ci tsan job).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fdb/relational/value_dict.h"

namespace fdb {
namespace {

TEST(DictConcurrencyTest, DisjointInternsGetUniqueCodes) {
  ValueDict dict;
  constexpr int kThreads = 4, kPer = 500;
  std::vector<std::vector<uint32_t>> codes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        codes[t].push_back(
            dict.Intern("t" + std::to_string(t) + "_" + std::to_string(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::set<uint32_t> all;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPer; ++i) {
      EXPECT_TRUE(all.insert(codes[t][i]).second);
      // Round trip: the code resolves to exactly the interned string.
      EXPECT_EQ(dict.str(codes[t][i]),
                "t" + std::to_string(t) + "_" + std::to_string(i));
    }
  }
  EXPECT_EQ(dict.num_strings(), size_t{kThreads * kPer});
  // Ranks are a permutation consistent with string order.
  std::vector<uint32_t> by_rank(dict.num_strings());
  for (uint32_t c = 0; c < dict.num_strings(); ++c) {
    by_rank[dict.rank(c)] = c;
  }
  for (size_t r = 1; r < by_rank.size(); ++r) {
    EXPECT_LT(dict.str(by_rank[r - 1]), dict.str(by_rank[r]));
  }
}

TEST(DictConcurrencyTest, RacingInternsOfSameStringAgree) {
  ValueDict dict;
  constexpr int kThreads = 4, kStrings = 200;
  std::vector<std::vector<uint32_t>> codes(kThreads,
                                           std::vector<uint32_t>(kStrings));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kStrings; ++i) {
        codes[t][i] = dict.Intern("shared_" + std::to_string(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(codes[t], codes[0]);
  EXPECT_EQ(dict.num_strings(), size_t{kStrings});
}

TEST(DictConcurrencyTest, LockFreeReadsDuringAppendOnlyInterning) {
  ValueDict dict;
  // Pre-load a sorted base so later interns append in rank order and
  // published ranks never shift.
  constexpr int kBase = 1000;
  std::vector<std::string> base;
  std::vector<std::string_view> views;
  for (int i = 0; i < kBase; ++i) {
    base.push_back("a" + std::to_string(1000 + i));  // sorted
  }
  for (const std::string& s : base) views.push_back(s);
  dict.InternBulk(std::move(views));

  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint32_t c = 0; c + 1 < kBase; ++c) {
          // Established codes keep resolving and stay rank-ordered while
          // the writer interns strictly larger strings.
          if (dict.str(c) != base[c]) ok.store(false);
          if (!(dict.rank(c) < dict.rank(c + 1))) ok.store(false);
        }
        if (!dict.Find(base[0]).has_value()) ok.store(false);
      }
    });
  }
  // Writer appends past the existing maximum: rank-append-only.
  for (int i = 0; i < 2000; ++i) {
    dict.Intern("b" + std::to_string(1000 + i));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(dict.num_strings(), size_t{kBase + 2000});
}

TEST(DictConcurrencyTest, ComparisonsConsistentDuringOutOfOrderInterns) {
  // Out-of-order interns shift the ranks of all larger strings; the
  // seqlock in CompareStringRanks must keep every concurrent pairwise
  // comparison correct throughout (the commit-vs-readers race).
  ValueDict dict;
  uint32_t lo = dict.Intern("aaa");
  uint32_t hi = dict.Intern("zzz");
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (dict.CompareStringRanks(lo, hi) != std::strong_ordering::less) {
          ok.store(false);
        }
        if (dict.CompareStringRanks(hi, lo) !=
            std::strong_ordering::greater) {
          ok.store(false);
        }
      }
    });
  }
  // Descending interns between "aaa" and "zzz": every one splices into
  // the middle of the rank order and shifts everything after it.
  for (int i = 3000; i > 0; --i) {
    dict.Intern("m" + std::to_string(100000 + i));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_LT(dict.rank(lo), dict.rank(hi));
}

TEST(DictConcurrencyTest, BigIntPoolConcurrent) {
  ValueDict dict;
  constexpr int64_t kBig = int64_t{1} << 50;
  constexpr int kThreads = 4, kPer = 300;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        int64_t v = kBig + i;  // heavy overlap across threads
        uint32_t slot = dict.InternBigInt(v);
        if (dict.big_int(slot) != v) ok.store(false);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(dict.num_big_ints(), size_t{kPer});
}

TEST(DictConcurrencyTest, EncodeDecodeAcrossThreads) {
  // Encode on one thread, decode the published refs on others — the
  // pattern of a parallel build handing nodes to enumeration workers.
  ValueDict dict;
  std::vector<ValueRef> refs;
  for (int i = 0; i < 500; ++i) {
    refs.push_back(dict.Encode(Value("s" + std::to_string(1000 + i))));
  }
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        Value v = dict.Decode(refs[i]);
        if (v.as_string() != "s" + std::to_string(1000 + i)) ok.store(false);
        if (dict.Compare(refs[i], refs[i]) != std::strong_ordering::equal) {
          ok.store(false);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace fdb
