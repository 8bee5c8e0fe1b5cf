#include "fdb/optimizer/exhaustive.h"

#include <gtest/gtest.h>

#include "fdb/core/order.h"
#include "fdb/optimizer/cost.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

TEST(ExhaustiveTest, FindsPlanForRevenuePerCustomer) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.group = {p.attr("customer")};
  q.tasks = {{AggFn::kSum, p.attr("price")}};
  auto res = ExhaustivePlan(p.view().tree(), q);
  ASSERT_TRUE(res.has_value());
  EXPECT_FALSE(res->plan.empty());
  EXPECT_GT(res->cost, 0.0);
  EXPECT_GT(res->explored, 0);
}

TEST(ExhaustiveTest, GoalAlreadySatisfiedIsEmptyPlan) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;  // no selections, no aggregates, no order
  auto res = ExhaustivePlan(p.view().tree(), q);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->plan.empty());
  EXPECT_EQ(res->cost, 0.0);
}

TEST(ExhaustiveTest, OrderByGoalRequiresTheorem2) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.order = {p.attr("customer")};
  auto res = ExhaustivePlan(p.view().tree(), q);
  ASSERT_TRUE(res.has_value());
  // At least the two swaps pushing customer to the root.
  EXPECT_GE(res->plan.size(), 2u);
  for (const FOp& op : res->plan) EXPECT_EQ(op.kind, FOpKind::kSwap);
}

TEST(ExhaustiveTest, SelectionGoal) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.eq_selections = {{p.attr("pizza"), p.attr("customer")}};
  auto res = ExhaustivePlan(p.view().tree(), q);
  ASSERT_TRUE(res.has_value());
  bool has_selection = false;
  for (const FOp& op : res->plan) {
    if (op.kind == FOpKind::kMerge || op.kind == FOpKind::kAbsorb) {
      has_selection = true;
    }
  }
  EXPECT_TRUE(has_selection);
}

TEST(ExhaustiveTest, CostNeverExceedsGreedy) {
  // The exhaustive optimum is at most the greedy plan's cost under the
  // same metric (sum of intermediate f-tree size bounds).
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.group = {p.attr("customer")};
  q.tasks = {{AggFn::kSum, p.attr("price")}};

  auto exhaustive = ExhaustivePlan(p.view().tree(), q);
  ASSERT_TRUE(exhaustive.has_value());

  // Replay the greedy plan and price it with the same metric.
  FPlan greedy = GreedyPlan(p.view().tree(), q);
  FTree t = p.view().tree();
  AttrId next_id = FirstFreshAttr(t, q);
  double greedy_cost = 0.0;
  for (const FOp& op : greedy) {
    SimulateOp(&t, op, &next_id);
    greedy_cost += FTreeCost(t);
  }
  EXPECT_LE(exhaustive->cost, greedy_cost + 1e-6);
}

TEST(ExhaustiveTest, StateCapReturnsNullopt) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.group = {p.attr("customer")};
  q.tasks = {{AggFn::kSum, p.attr("price")}};
  auto res = ExhaustivePlan(p.view().tree(), q,
                            /*max_states=*/1);
  EXPECT_FALSE(res.has_value());
}

TEST(ExhaustiveTest, CanonicalEncodingMergesSymmetricStates) {
  // A tiny search must settle far fewer states than the naive op tree.
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.order = {p.attr("date"), p.attr("pizza")};
  auto res = ExhaustivePlan(p.view().tree(), q);
  ASSERT_TRUE(res.has_value());
  FTree t = p.view().tree();
  for (const FOp& op : res->plan) {
    ASSERT_EQ(op.kind, FOpKind::kSwap);
    t.SwapUp(op.b);
  }
  EXPECT_TRUE(SupportsOrder(
      t, {t.NodeOfAttr(p.attr("date")), t.NodeOfAttr(p.attr("pizza"))}));
}

}  // namespace
}  // namespace fdb
