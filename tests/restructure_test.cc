#include "fdb/core/ops/restructure.h"

#include <gtest/gtest.h>

#include "fdb/core/build.h"
#include "fdb/core/ops/aggregate.h"
#include "fdb/optimizer/fplan.h"
#include "fdb/relational/rdb_ops.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;
using testing::SameSet;

TEST(RewriteAtNodeTest, RewritesEveryInstance) {
  // Drop every other value from the price unions via a custom rewriter.
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  int count = 0;
  FactArena& arena = f.ArenaForWrite();
  RewriteInFactorisation(&f, p.n_price, [&](const FactNode& n) {
    ++count;
    FactBuilder out;
    out.values.assign(n.values.begin(), n.values.end());
    return out.Finish(arena);
  });
  EXPECT_EQ(count, 7);  // one price union per item occurrence
  EXPECT_TRUE(f.Validate());
}

TEST(RewriteAtNodeTest, EmptyRewritePrunesUpwards) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  // Emptying every item union kills all branches: the relation is empty.
  RewriteInFactorisation(&f, p.n_item, [&](const FactNode&) {
    return FactArena::EmptyNode();
  });
  EXPECT_TRUE(f.empty());
}

TEST(RewriteAtNodeTest, PartialPruneKeepsSiblings) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  // Remove the value "Friday" from date unions; pizzas whose only date was
  // Friday would vanish (none here: Hawaii has only Friday!).
  FactArena& arena = f.ArenaForWrite();
  ValueRef friday = ValueDict::Default().Encode(Value("Friday"));
  RewriteInFactorisation(&f, p.n_date, [&](const FactNode& n) {
    FactBuilder out;
    int k = 1;  // date has one child (customer)
    for (int i = 0; i < n.size(); ++i) {
      if (n.values[i] == friday) continue;
      out.values.push_back(n.values[i]);
      out.children.push_back(n.child(i, k, 0));
    }
    return out.Finish(arena);
  });
  EXPECT_TRUE(f.Validate());
  // Hawaii had only Friday orders: it must be pruned entirely.
  EXPECT_EQ(f.roots()[0]->size(), 2);
  // Capricciosa keeps Monday×Mario over 3 items; Margherita keeps 1 tuple.
  EXPECT_EQ(f.CountTuples(), 4);
}

TEST(RemoveLeafTest, DropsColumnKeepsDistinctRows) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  ApplyRemoveLeaf(&f, p.n_price);
  EXPECT_TRUE(f.Validate());
  EXPECT_FALSE(f.tree().node(p.n_price).alive);
  Relation expect = Project(
      NaturalJoinAll({p.db->relation("Orders"), p.db->relation("Pizzas"),
                      p.db->relation("Items")}),
      {p.attr("pizza"), p.attr("date"), p.attr("customer"), p.attr("item")},
      /*dedup=*/true);
  EXPECT_TRUE(SameSet(f.Flatten(), expect, expect.schema().attrs(),
                      p.db->registry()));
}

TEST(RemoveLeafTest, RemoveRootLeafDropsWholeTree) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("rla"), b = reg.Intern("rlb");
  FTree t;
  t.AddNode({a}, -1);
  int nb = t.AddNode({b}, -1);
  Factorisation f(t, {MakeLeaf({Value(1), Value(2)}),
                      MakeLeaf({Value(7)})});
  ApplyRemoveLeaf(&f, nb);
  EXPECT_TRUE(f.Validate());
  EXPECT_EQ(f.roots().size(), 1u);
  EXPECT_EQ(f.CountTuples(), 2);
}

TEST(RemoveLeafTest, NonLeafThrows) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  EXPECT_THROW(ApplyRemoveLeaf(&f, p.n_item), std::invalid_argument);
}

TEST(RenameTest, RenamesAggregateOutput) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  std::vector<int> ids = ApplyAggregate(
      &f, &p.db->registry(), p.n_item, {{AggFn::kSum, p.attr("price")}});
  ApplyRename(&f, &p.db->registry(), ids[0], "pizza_price");
  AttrId renamed = *p.db->registry().Find("pizza_price");
  EXPECT_EQ(f.tree().NodeOfAttr(renamed), ids[0]);
  EXPECT_TRUE(f.OutputSchema().Contains(renamed));
}

TEST(FPlanTest, ExecutePlanRunsSequence) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  FPlan plan = {
      FOp::Select(p.n_price, CmpOp::kGt, Value(1)),
      FOp::Aggregate(p.n_item, {{AggFn::kSum, p.attr("price")}}),
      FOp::Swap(p.n_date),
  };
  std::vector<FOpStats> stats;
  ExecutePlan(&f, &p.db->registry(), plan, &stats);
  EXPECT_TRUE(f.Validate());
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].kind, FOpKind::kSelectConst);
  EXPECT_GT(stats[2].singletons_after, 0);
}

TEST(FPlanTest, PlanToStringMentionsEveryOperator) {
  Pizzeria p = MakePizzeria();
  FPlan plan = {
      FOp::Swap(1),
      FOp::Merge(1, 2),
      FOp::Absorb(0, 2),
      FOp::Select(4, CmpOp::kGe, Value(3)),
      FOp::Aggregate(3, {{AggFn::kSum, p.attr("price")}}),
      FOp::Rename(3, "total"),
  };
  std::string s = PlanToString(plan, p.db->registry());
  for (const char* token : {"swap", "merge", "absorb", "select",
                            "aggregate", "sum_price", "rename", "total"}) {
    EXPECT_NE(s.find(token), std::string::npos) << token;
  }
}

}  // namespace
}  // namespace fdb
