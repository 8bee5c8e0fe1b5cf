#include "fdb/core/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fdb/optimizer/cost.h"
#include "fdb/workload/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

TEST(StatsTest, PizzeriaMatchesFigure1Exactly) {
  Pizzeria p = MakePizzeria();
  std::vector<FactNodeStats> stats = ComputeFactStats(p.view());
  ASSERT_EQ(stats.size(), 5u);

  auto of = [&](int node) {
    for (const FactNodeStats& s : stats) {
      if (s.node == node) return s;
    }
    return FactNodeStats{};
  };
  // pizza: one union of 3 values.
  EXPECT_EQ(of(p.n_pizza).unions, 1);
  EXPECT_EQ(of(p.n_pizza).singletons, 3);
  // date: one union per pizza; Capricciosa has two dates.
  EXPECT_EQ(of(p.n_date).unions, 3);
  EXPECT_EQ(of(p.n_date).singletons, 4);
  EXPECT_EQ(of(p.n_date).max_union, 2);
  // customer: one union per (pizza, date): 4 unions, 5 values
  // (Hawaii/Friday has Lucia and Pietro).
  EXPECT_EQ(of(p.n_customer).unions, 4);
  EXPECT_EQ(of(p.n_customer).singletons, 5);
  // item: one union per pizza, 3+3+1 values.
  EXPECT_EQ(of(p.n_item).unions, 3);
  EXPECT_EQ(of(p.n_item).singletons, 7);
  // price: one singleton per item occurrence.
  EXPECT_EQ(of(p.n_price).unions, 7);
  EXPECT_EQ(of(p.n_price).singletons, 7);
  EXPECT_EQ(of(p.n_price).max_union, 1);

  int64_t total = 0;
  for (const FactNodeStats& s : stats) total += s.singletons;
  EXPECT_EQ(total, p.view().CountSingletons());
}

TEST(StatsTest, AverageUnionSize) {
  Pizzeria p = MakePizzeria();
  std::vector<FactNodeStats> stats = ComputeFactStats(p.view());
  for (const FactNodeStats& s : stats) {
    if (s.node == p.n_customer) {
      EXPECT_DOUBLE_EQ(s.avg_union, 1.25);
    }
  }
}

TEST(StatsTest, SizeBoundsDominateActualSingletonCounts) {
  // The asymptotic bound of [22] upper-bounds the actual union totals:
  // exp(NodeSizeBoundLog) >= observed singletons per node (weights are the
  // true relation sizes).
  Pizzeria p = MakePizzeria();
  for (const FactNodeStats& s : ComputeFactStats(p.view())) {
    double bound = std::exp(NodeSizeBoundLog(p.view().tree(), s.node));
    EXPECT_GE(bound + 1e-6, static_cast<double>(s.singletons))
        << "node " << s.node;
  }
}

TEST(StatsTest, EmptyFactorisation) {
  FTree t;
  t.AddNode({0}, -1);
  Factorisation f(t, {MakeLeaf({})});
  std::vector<FactNodeStats> stats = ComputeFactStats(f);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].singletons, 0);
  EXPECT_EQ(stats[0].unions, 1);
}

// FactoriseJoin's parallel build freezes nodes into worker arenas that
// the result's arena adopts: the footprint counts the whole chain, at
// any pool size (run it with FDB_THREADS=1 and FDB_THREADS=4).
TEST(StatsTest, ArenaBytesCountTheWholeChain) {
  Database db;
  InstallWorkload(&db, SmallParams(1));
  const Factorisation* view = db.view("R1");
  ASSERT_NE(view, nullptr);
  FactFootprint fp = ComputeFootprint(*view);
  EXPECT_EQ(fp.arena_bytes, view->arena()->chain_bytes());
  // Every stored singleton is an 8-byte ValueRef in some arena of the
  // chain.
  EXPECT_GE(fp.arena_bytes,
            fp.singletons * static_cast<int64_t>(sizeof(ValueRef)));
}

TEST(StatsTest, RenderedTableContainsLabels) {
  Pizzeria p = MakePizzeria();
  std::string table = FactStatsToString(p.view(), p.db->registry());
  EXPECT_NE(table.find("pizza"), std::string::npos);
  EXPECT_NE(table.find("price"), std::string::npos);
  EXPECT_NE(table.find("unions"), std::string::npos);
}

}  // namespace
}  // namespace fdb
