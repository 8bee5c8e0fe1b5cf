// Concurrency stress tests for the execution runtime: the enumerator's
// pinned-arena guarantee under concurrent updates driving generational
// compaction, and the Database's epoch-style versioned view map (readers
// on shared snapshots, writers — commits and AddView — building off-line
// and swapping under one lock). All of
// these must run clean under TSan (see the ci tsan job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/enumerate.h"
#include "fdb/core/update.h"
#include "fdb/engine/database.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/engine/rdb_engine.h"
#include "fdb/obs/trace.h"
#include "fdb/query/parser.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::DeleteOne;
using testing::DeleteOp;
using testing::InsertOne;
using testing::InsertOp;
using testing::Row;

Factorisation MakePathView(Database* db, const std::string& prefix,
                           int64_t rows) {
  AttrId a = db->Attr(prefix + "_a"), b = db->Attr(prefix + "_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x), Value(x * 2)});
  return FactoriseRelation(r, {a, b});
}

TEST(ConcurrentDbTest, EnumerationPinsArenaAcrossConcurrentCompaction) {
  Database db;
  Factorisation f = MakePathView(&db, "cc_pin", 3000);
  Relation expected = f.Flatten();

  // Snapshot the factorisation before the updater starts: from here on
  // the enumerator only touches its captured roots and pinned arenas.
  Enumerator e(f);
  const FactArena* arena_at_start = f.arena().get();

  std::thread updater([&] {
    // Persistent insert/delete churn; the 4x watermark fires MaybeCompact
    // inside the update path, retiring arenas the enumerator must outlive.
    for (int64_t i = 0; i < 1500; ++i) {
      InsertOne(&f, Row({100000 + i, 1}));
      DeleteOne(&f, Row({100000 + i, 1}));
    }
  });

  Relation got(e.schema());
  Tuple row(e.schema().arity());
  while (e.Next()) {
    e.Fill(&row);
    got.Add(row);
  }
  updater.join();

  // The enumeration saw exactly the construction-time version.
  EXPECT_EQ(got.rows(), expected.rows());
  // The churn actually compacted (arena generation moved on) — otherwise
  // this test exercises nothing.
  EXPECT_NE(f.arena().get(), arena_at_start);
  // And the source is still intact.
  EXPECT_TRUE(f.Validate());
  EXPECT_TRUE(testing::SameBag(f.Flatten(), expected, db.registry()));
}

TEST(ConcurrentDbTest, EpochReadersNeverBlockOnWriters) {
  Database db;
  constexpr int64_t kBase = 2000;
  constexpr int64_t kWrites = 400;
  db.AddView("V", MakePathView(&db, "cc_epoch", kBase));

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const Factorisation> v = db.ViewSnapshot("V");
        ASSERT_NE(v, nullptr);
        // Each snapshot is an internally consistent version: every
        // insert lands whole or not at all.
        int64_t n = v->CountTuples();
        ASSERT_GE(n, kBase);
        ASSERT_LE(n, kBase + kWrites);
        ASSERT_TRUE(v->Validate());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let the readers take at least one snapshot of the base version, then
  // race them against the writer.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int64_t i = 0; i < kWrites; ++i) {
    db.Commit({InsertOp("V", Row({500000 + i, 7}))});
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(db.ViewSnapshot("V")->CountTuples(), kBase + kWrites);
}

TEST(ConcurrentDbTest, SnapshotOutlivesSwapsAndCompaction) {
  Database db;
  db.AddView("V", MakePathView(&db, "cc_old", 500));
  std::shared_ptr<const Factorisation> old = db.ViewSnapshot("V");
  Relation before = old->Flatten();

  // Replace the view version many times; force compactions on the way.
  for (int64_t i = 0; i < 300; ++i) {
    db.Commit({InsertOp("V", Row({700000 + i, 1}))});
    db.Commit({DeleteOp("V", Row({700000 + i, 1}))});
  }
  db.AddView("W", MakePathView(&db, "cc_new", 10));

  // The old snapshot still reads its version, bit for bit.
  EXPECT_EQ(old->Flatten().rows(), before.rows());
  EXPECT_TRUE(old->Validate());
}

TEST(ConcurrentDbTest, ConcurrentBindAndAggregateExecution) {
  // Binding interns select-item aliases and aggregate execution interns
  // result names into the shared AttributeRegistry: both must be safe
  // (and converge on one id per name) from many query threads.
  Database db;
  AttrId x = db.Attr("cba_x"), y = db.Attr("cba_y");
  Relation r{RelSchema({x, y})};
  for (int64_t i = 0; i < 100; ++i) r.Add({Value(i % 10), Value(i)});
  db.AddRelation("T", r);
  db.AddView("TV", FactoriseRelation(r, {x, y}));

  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      FdbEngine engine(&db);
      for (int rep = 0; rep < 20; ++rep) {
        // Shared alias: all threads must resolve to one AttrId.
        FdbResult res = engine.ExecuteSql(
            "SELECT cba_x, sum(cba_y) AS shared_total FROM TV "
            "GROUP BY cba_x");
        if (res.flat.size() != 10) ok.store(false);
        // Thread-unique alias: exercises the fresh-intern path.
        engine.ExecuteSql("SELECT cba_x, sum(cba_y) AS t" +
                          std::to_string(t) + "_" + std::to_string(rep) +
                          " FROM TV GROUP BY cba_x");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(db.registry().Find("shared_total").has_value());
}

TEST(ConcurrentDbTest, QueryTimeBuildRacesOutOfOrderInterns) {
  // TrieBuilder::Prepare sorts on absolute rank keys; FreezeRanks must
  // keep a whole key batch mutually consistent while another thread
  // interns out-of-order strings (each such intern shifts the ranks of
  // every larger string, including this relation's).
  Database db;
  AttrId a = db.Attr("qtb_a"), b = db.Attr("qtb_b");
  Relation r{RelSchema({a, b})};
  for (int i = 0; i < 300; ++i) {
    r.Add({Value("qtb_k" + std::to_string(1000 + i % 40)),
           Value(int64_t{i})});
  }
  db.AddRelation("S", r);  // bulk-interns the keys in sorted order
  Relation expected = FactoriseRelation(r, {a, b}).Flatten();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Lexicographically descending: every intern splices mid-order.
    for (int i = 2000; i > 0 && !stop.load(std::memory_order_relaxed);
         --i) {
      ValueDict::Default().Intern("qta_" + std::to_string(100000 + i));
    }
  });
  for (int rep = 0; rep < 10; ++rep) {
    Factorisation f = FactoriseRelation(r, {a, b});
    ASSERT_TRUE(f.Validate());
    ASSERT_EQ(f.Flatten().rows(), expected.rows());
  }
  stop.store(true);
  writer.join();
}

TEST(ConcurrentDbTest, CommitToUnknownViewThrows) {
  Database db;
  EXPECT_THROW(db.Commit({InsertOp("nope", Row({1}))}),
               std::invalid_argument);
}

TEST(ConcurrentDbTest, ConcurrentQueriesOnSharedView) {
  // Many reader threads enumerate one published view concurrently while
  // a writer churns another name in the same database: epochs isolate
  // them completely.
  Database db;
  db.AddView("R", MakePathView(&db, "cc_q", 1000));
  db.AddView("W", MakePathView(&db, "cc_w", 100));
  Relation expected = db.ViewSnapshot("R")->Flatten();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      db.Commit({InsertOp("W", Row({900000 + i, 1}))});
      ++i;
    }
  });

  std::vector<std::thread> readers;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int rep = 0; rep < 5; ++rep) {
        std::shared_ptr<const Factorisation> v = db.ViewSnapshot("R");
        if (v->Flatten().rows() != expected.rows()) ok.store(false);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_TRUE(ok.load());
}

TEST(ConcurrentDbTest, CommitsAndAddViewShareOneWriterLock) {
  // Writers of every kind take the transaction lock: concurrent commits
  // of disjoint groups to one view must all land (none published over
  // another's read-modify-publish), while AddView re-publishes a second
  // view and readers hold snapshots across all of it.
  constexpr int kCommitters = 4;
  constexpr int64_t kGroups = 40;
  Database db;
  db.AddView("V", MakePathView(&db, "cc_fold", 200));
  AttrId a = db.Attr("cc_fold_a"), b = db.Attr("cc_fold_b");
  const Factorisation w_small = MakePathView(&db, "cc_fold_w", 10);
  const Factorisation w_large = MakePathView(&db, "cc_fold_w", 20);
  db.AddView("W", w_small);

  // Each committer owns keys [1000000 * (t + 1), +20): groups never
  // overlap, so the final view is the base plus every thread's model.
  std::vector<std::set<Tuple>> models(kCommitters);
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::vector<std::thread> committers;
  for (int t = 0; t < kCommitters; ++t) {
    committers.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) + 99);
      int64_t key_base = int64_t{1000000} * (t + 1);
      for (int64_t g = 0; g < kGroups; ++g) {
        std::vector<storage::WalOp> ops;
        int n = g % 2 == 0 ? 1 : 16;
        for (int j = 0; j < n; ++j) {
          Tuple row = Row({key_base + static_cast<int64_t>(rng() % 20),
                           static_cast<int64_t>(rng() % 3)});
          if (rng() % 3 == 0) {
            models[t].erase(row);
            ops.push_back(DeleteOp("V", std::move(row)));
          } else {
            models[t].insert(row);
            ops.push_back(InsertOp("V", std::move(row)));
          }
        }
        db.Commit(std::move(ops));
      }
    });
  }
  std::thread publisher([&] {
    for (int64_t i = 0; i < 2 || !stop.load(std::memory_order_relaxed);
         ++i) {
      db.AddView("W", i % 2 == 0 ? w_large : w_small);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // Held from the start: no later commit or compaction may touch it.
      std::shared_ptr<const Factorisation> first = db.ViewSnapshot("V");
      Relation before = first->Flatten();
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const Factorisation> v = db.ViewSnapshot("V");
        std::shared_ptr<const Factorisation> w = db.ViewSnapshot("W");
        if (!v->Validate() || v->CountTuples() < 200) ok.store(false);
        int64_t nw = w->CountTuples();
        if (nw != 10 && nw != 20) ok.store(false);
      }
      if (!first->Flatten().BagEquals(before)) ok.store(false);
    });
  }
  for (std::thread& t : committers) t.join();
  stop.store(true);
  publisher.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(ok.load());

  Relation expected{RelSchema({a, b})};
  for (int64_t x = 0; x < 200; ++x) expected.Add(Row({x, x * 2}));
  for (const std::set<Tuple>& m : models) {
    for (const Tuple& row : m) expected.Add(row);
  }
  std::shared_ptr<const Factorisation> v = db.ViewSnapshot("V");
  ASSERT_TRUE(v->Validate());
  EXPECT_TRUE(testing::SameBag(v->Flatten(), expected, db.registry()));
}

TEST(ConcurrentDbTest, CachedPlanReadersSeeOnlyPublishedVersions) {
  // Readers resume a restructuring plan from the prefix cache while a
  // writer publishes new versions: entries of retired versions are
  // dropped under them, and stale inserts race the publish. Every answer
  // must be the answer on some published version.
  constexpr int kVersions = 60;
  const std::string sql =
      "SELECT cq_b, sum(cq_a), count(*) FROM V GROUP BY cq_b";
  auto insert = [](int64_t i) {
    return std::vector<storage::WalOp>{InsertOp("V", Row({100000 + i, i % 7}))};
  };
  Database db;
  {
    AttrId a = db.Attr("cq_a"), b = db.Attr("cq_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x = 0; x < 1500; ++x) r.Add({Value(x), Value(x % 7)});
    db.AddView("V", FactoriseRelation(r, {a, b}));
  }
  // The answer on every version, from the relational engine on a copy
  // that publishes the same versions ahead of time.
  std::vector<Relation> expected;
  {
    Database ahead(db);
    RdbEngine rdb(&ahead);
    for (int64_t i = 0; i <= kVersions; ++i) {
      expected.push_back(rdb.ExecuteSql(sql).flat);
      if (i < kVersions) {
        ahead.Commit(insert(i));
      }
    }
  }
  ASSERT_GE(FdbEngine(&db).ExecuteSql(sql).plan.size(), 2u)
      << "the query must have a proper prefix to cache";

  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::atomic<int64_t> resumed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      FdbEngine engine(&db);
      while (!stop.load(std::memory_order_relaxed)) {
        // Traced, for per-op stats.
        obs::Trace trace;
        FdbOptions opt;
        opt.trace = &trace;
        FdbResult r = engine.ExecuteSql(sql, opt);
        bool published = false;
        for (const Relation& e : expected) {
          if (r.flat.BagEquals(e)) {
            published = true;
            break;
          }
        }
        if (!published) ok.store(false);
        if (!r.op_stats.empty() && r.op_stats.front().cached) {
          resumed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Let the readers cache (and hit) each version before retiring it. The
  // deadline bounds the whole test, so a cache that never hits fails the
  // check below instead of hanging.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int64_t i = 0; i < kVersions; ++i) {
    int64_t seen = resumed.load();
    while (resumed.load() == seen &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    db.Commit(insert(i));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GT(resumed.load(), 0);
  EXPECT_TRUE(FdbEngine(&db).ExecuteSql(sql).flat.BagEquals(expected.back()));
}

}  // namespace
}  // namespace fdb
