// Parallel FactoriseJoin must be indistinguishable from the serial build:
// same Flatten bytes, same singleton counts, same sharing after a swap,
// for every thread count.

#include <gtest/gtest.h>

#include "fdb/core/build.h"
#include "fdb/core/ops/swap.h"
#include "fdb/core/stats.h"
#include "fdb/exec/task_pool.h"
#include "fdb/workload/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

// Runs fn with the default pool resized to `threads`, restoring it after.
template <typename Fn>
auto WithThreads(int threads, Fn fn) {
  int before = exec::TaskPool::Default().num_threads();
  exec::TaskPool::SetDefaultThreads(threads);
  auto restore = [&] { exec::TaskPool::SetDefaultThreads(before); };
  try {
    auto out = fn();
    restore();
    return out;
  } catch (...) {
    restore();
    throw;
  }
}

// The §6 workload's join, factorised at a given thread count.
Factorisation BuildWorkload(Database* db, int threads, int scale = 1) {
  Workload w = GenerateWorkload(db, SmallParams(scale));
  return WithThreads(threads, [&] {
    return FactoriseJoin(w.ftree, {&w.orders, &w.packages, &w.items});
  });
}

TEST(ParallelBuildTest, FlattenByteIdenticalOnWorkload) {
  Database db1, db4;
  Factorisation serial = BuildWorkload(&db1, 1);
  Factorisation parallel = BuildWorkload(&db4, 4);
  ASSERT_TRUE(parallel.Validate());
  EXPECT_EQ(serial.CountSingletons(), parallel.CountSingletons());
  EXPECT_EQ(serial.CountTuples(), parallel.CountTuples());
  Relation a = serial.Flatten();
  Relation b = parallel.Flatten();
  EXPECT_EQ(a.schema().attrs(), b.schema().attrs());
  // Byte-identical: same rows in the same order.
  EXPECT_EQ(a.rows(), b.rows());
}

TEST(ParallelBuildTest, DeterministicAcrossThreadCounts) {
  Database ref_db;
  Relation ref = BuildWorkload(&ref_db, 1, 2).Flatten();
  int64_t ref_singletons = 0;
  {
    Database db;
    ref_singletons = BuildWorkload(&db, 1, 2).CountSingletons();
  }
  for (int threads : {2, 3, 4, 8}) {
    Database db;
    Factorisation f = BuildWorkload(&db, threads, 2);
    EXPECT_EQ(f.CountSingletons(), ref_singletons) << threads;
    EXPECT_EQ(f.Flatten().rows(), ref.rows()) << threads;
  }
}

TEST(ParallelBuildTest, PizzeriaStringsParallel) {
  // String-valued unions: dictionary codes are interned during Prepare
  // (before workers fork), so parallel builds see identical ranks. (The
  // pizzeria itself sits below the parallel-build row gate — it also
  // checks that tiny builds stay correct at any pool width.)
  Pizzeria serial = MakePizzeria();
  Pizzeria parallel = WithThreads(4, [] { return MakePizzeria(); });
  EXPECT_EQ(serial.view().CountSingletons(),
            parallel.view().CountSingletons());
  EXPECT_EQ(serial.view().Flatten().rows(), parallel.view().Flatten().rows());
  EXPECT_TRUE(parallel.view().Validate());
}

TEST(ParallelBuildTest, LargeStringTrieParallel) {
  // A string-keyed trie big enough to clear the parallel-build row gate:
  // the root union's candidates are string codes compared by rank.
  Database db;
  AttrId a = db.Attr("pbs_a"), b = db.Attr("pbs_b");
  Relation r{RelSchema({a, b})};
  for (int i = 0; i < 1200; ++i) {
    r.Add({Value("key" + std::to_string(10000 + i / 3)),
           Value("val" + std::to_string(10000 + i))});
  }
  db.AddRelation("S", r);  // bulk-interns the strings in sorted order
  Factorisation serial = FactoriseRelation(r, {a, b});
  Factorisation parallel =
      WithThreads(4, [&] { return FactoriseRelation(r, {a, b}); });
  EXPECT_EQ(serial.CountSingletons(), parallel.CountSingletons());
  EXPECT_EQ(serial.Flatten().rows(), parallel.Flatten().rows());
  EXPECT_TRUE(parallel.Validate());
}

TEST(ParallelBuildTest, SwapSharingPreserved) {
  // Swapping item above package shares each package's date subtree under
  // every item it holds. That sharing depends only on the built
  // structure, so a parallel build must share exactly as much.
  Database db1, db4;
  Factorisation serial = BuildWorkload(&db1, 1);
  Factorisation parallel = BuildWorkload(&db4, 4);
  int n_item = serial.tree().NodeOfAttr(*db1.registry().Find("item"));
  ApplySwap(&serial, n_item);
  WithThreads(4, [&] {
    ApplySwap(&parallel, n_item);
    return 0;
  });
  int64_t stored = ComputeFootprint(serial).singletons;
  EXPECT_LT(stored, serial.CountSingletons());
  EXPECT_EQ(ComputeFootprint(parallel).singletons, stored);
  EXPECT_EQ(serial.CountSingletons(), parallel.CountSingletons());
  EXPECT_EQ(serial.Flatten().rows(), parallel.Flatten().rows());
}

TEST(ParallelBuildTest, EmptyJoinNormalisesInParallel) {
  Database db;
  AttrId a = db.Attr("pbe_a"), b = db.Attr("pbe_b");
  Relation r{RelSchema({a})}, s{RelSchema({a, b})};
  // Big enough to clear the parallel-build row gate.
  for (int64_t i = 0; i < 300; ++i) r.Add({Value(i)});
  for (int64_t i = 1000; i < 1300; ++i) s.Add({Value(i), Value(i)});
  FTree tree;
  int na = tree.AddNode({a}, -1);
  tree.AddNode({b}, na);
  tree.AddEdge({{a}, 100.0, "R"});
  std::vector<AttrId> sab{a, b};
  std::sort(sab.begin(), sab.end());
  tree.AddEdge({sab, 100.0, "S"});
  Factorisation f = WithThreads(4, [&] {
    return FactoriseJoin(tree, {&r, &s});
  });
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.Validate());
  EXPECT_EQ(f.CountTuples(), 0);
}

TEST(ParallelBuildTest, WorkerArenasKeepResultAliveAfterBuilder) {
  // Subtrees live in adopted worker arenas; the factorisation must keep
  // them reachable through its own arena chain alone.
  Database db;
  Factorisation f = BuildWorkload(&db, 4);
  Relation before = f.Flatten();
  // Nothing else references the worker arenas now; enumerate again.
  EXPECT_EQ(f.Flatten().rows(), before.rows());
  EXPECT_GT(f.CountSingletons(), 0);
}

}  // namespace
}  // namespace fdb
