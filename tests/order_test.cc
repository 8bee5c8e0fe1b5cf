#include "fdb/core/order.h"

#include <gtest/gtest.h>

#include "fdb/core/build.h"
#include "fdb/core/enumerate.h"
#include "fdb/core/ops/selection.h"
#include "fdb/core/ops/swap.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

TEST(SupportsOrderTest, Example9SupportedOrders) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  // Supported: (pizza); (pizza, date); (pizza, date, customer);
  // (pizza, item); (pizza, item, price); (pizza, date, item).
  EXPECT_TRUE(SupportsOrder(t, {p.n_pizza}));
  EXPECT_TRUE(SupportsOrder(t, {p.n_pizza, p.n_date}));
  EXPECT_TRUE(SupportsOrder(t, {p.n_pizza, p.n_date, p.n_customer}));
  EXPECT_TRUE(SupportsOrder(t, {p.n_pizza, p.n_item}));
  EXPECT_TRUE(SupportsOrder(t, {p.n_pizza, p.n_item, p.n_price}));
  EXPECT_TRUE(SupportsOrder(t, {p.n_pizza, p.n_date, p.n_item}));
  // Not supported: (pizza, customer, date); (customer, pizza).
  EXPECT_FALSE(SupportsOrder(t, {p.n_pizza, p.n_customer, p.n_date}));
  EXPECT_FALSE(SupportsOrder(t, {p.n_customer, p.n_pizza}));
  EXPECT_FALSE(SupportsOrder(t, {p.n_date}));
}

TEST(SupportsGroupingTest, Example10PermutationsSupported) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  // Grouping ignores list order: all permutations of supported order sets
  // are supported groupings.
  EXPECT_TRUE(SupportsGrouping(t, {p.n_pizza}));
  EXPECT_TRUE(SupportsGrouping(t, {p.n_date, p.n_pizza}));
  EXPECT_TRUE(SupportsGrouping(t, {p.n_customer, p.n_date, p.n_pizza}));
  EXPECT_TRUE(SupportsGrouping(t, {p.n_item, p.n_pizza, p.n_date}));
  // But a gap in the top fragment is not allowed.
  EXPECT_FALSE(SupportsGrouping(t, {p.n_customer, p.n_pizza}));
  EXPECT_FALSE(SupportsGrouping(t, {p.n_date}));
}

TEST(PlanRestructureTest, AlreadySupportedNeedsNoSwaps) {
  Pizzeria p = MakePizzeria();
  EXPECT_TRUE(
      PlanRestructure(p.view().tree(), {p.n_pizza, p.n_date}, {}).empty());
  EXPECT_TRUE(PlanRestructure(p.view().tree(), {},
                              {p.n_pizza, p.n_date, p.n_item})
                  .empty());
}

TEST(PlanRestructureTest, PushCustomerToRoot) {
  // Example 2: order (customer, pizza, item, price) is obtained by pushing
  // customer past date and pizza; the right branch is untouched.
  Pizzeria p = MakePizzeria();
  FTree t = p.view().tree();
  std::vector<int> plan = PlanRestructure(
      t, {p.n_customer, p.n_pizza, p.n_item, p.n_price}, {});
  EXPECT_EQ(plan, (std::vector<int>{p.n_customer, p.n_customer}));
  for (int b : plan) t.SwapUp(b);
  EXPECT_TRUE(SupportsOrder(
      t, {p.n_customer, p.n_pizza, p.n_item, p.n_price}));
  EXPECT_TRUE(t.SatisfiesPathConstraint());
}

TEST(PlanRestructureTest, GroupingPushesAllGroupNodesUp) {
  Pizzeria p = MakePizzeria();
  FTree t = p.view().tree();
  std::vector<int> plan =
      PlanRestructure(t, {}, {p.n_customer, p.n_item});
  for (int b : plan) t.SwapUp(b);
  EXPECT_TRUE(SupportsGrouping(t, {p.n_customer, p.n_item}));
  EXPECT_TRUE(t.SatisfiesPathConstraint());
}

TEST(PlanRestructureTest, Q13StylePartialResort) {
  // R3 = Orders factorised by (date, customer, package); re-sorting by
  // (customer, date, package) needs only one swap: the package lists
  // under (date, customer) are reused (Experiment 4).
  Pizzeria p = MakePizzeria();
  AttrId customer = p.attr("customer"), date = p.attr("date"),
         pizza = p.attr("pizza");
  Factorisation r3 =
      FactoriseRelation(*p.db->relation("Orders"), {date, customer, pizza});
  int n_date = r3.tree().NodeOfAttr(date);
  int n_customer = r3.tree().NodeOfAttr(customer);
  int n_pizza = r3.tree().NodeOfAttr(pizza);
  std::vector<int> plan = PlanRestructure(
      r3.tree(), {n_customer, n_date, n_pizza}, {});
  EXPECT_EQ(plan, std::vector<int>{n_customer});

  // Applying it yields correctly ordered enumeration.
  for (int b : plan) ApplySwap(&r3, b);
  std::vector<SortKey> keys = {{customer, SortDir::kAsc},
                               {date, SortDir::kAsc},
                               {pizza, SortDir::kAsc}};
  VisitOrder v =
      OrderedVisitSequence(r3.tree(), keys, r3.tree().TopologicalOrder());
  Relation sorted = EnumerateToRelation(r3, v.nodes, v.dirs);
  EXPECT_TRUE(sorted.IsSortedBy(keys));
  EXPECT_EQ(sorted.size(), 5);
}

TEST(PlanRestructureTest, SettledNodesNeverMove) {
  // Pushing a deep node up must not disturb already settled order nodes.
  Pizzeria p = MakePizzeria();
  FTree t = p.view().tree();
  std::vector<int> plan =
      PlanRestructure(t, {p.n_pizza, p.n_customer}, {});
  for (int b : plan) t.SwapUp(b);
  EXPECT_TRUE(SupportsOrder(t, {p.n_pizza, p.n_customer}));
  EXPECT_EQ(t.roots(), std::vector<int>{p.n_pizza});
  EXPECT_EQ(t.parent(p.n_customer), p.n_pizza);
}

TEST(OrderedVisitSequenceTest, PrefixesAreOrderNodes) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  VisitOrder v = OrderedVisitSequence(
      t, {{p.attr("pizza"), SortDir::kAsc}, {p.attr("item"), SortDir::kDesc}},
      t.TopologicalOrder());
  ASSERT_EQ(v.nodes.size(), 5u);
  EXPECT_EQ(v.nodes[0], p.n_pizza);
  EXPECT_EQ(v.nodes[1], p.n_item);
  EXPECT_EQ(v.dirs, (std::vector<SortDir>{SortDir::kAsc, SortDir::kDesc,
                                          SortDir::kAsc, SortDir::kAsc,
                                          SortDir::kAsc}));
}

TEST(OrderedVisitSequenceTest, UnsupportedOrderThrows) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  EXPECT_THROW(OrderedVisitSequence(t, {{p.attr("customer"), SortDir::kAsc}},
                                    t.TopologicalOrder()),
               std::invalid_argument);
}

// Grouped enumerations visit only the grouping nodes after the order
// nodes; an order node outside the group still comes first.
TEST(OrderedVisitSequenceTest, VisitsOnlyTheGivenNodesAfterTheOrder) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  VisitOrder v = OrderedVisitSequence(
      t, {{p.attr("pizza"), SortDir::kDesc}}, {p.n_customer, p.n_date});
  EXPECT_EQ(v.nodes, (std::vector<int>{p.n_pizza, p.n_date, p.n_customer}));
  EXPECT_EQ(v.dirs, (std::vector<SortDir>{SortDir::kDesc, SortDir::kAsc,
                                          SortDir::kAsc}));
  EXPECT_THROW(OrderedVisitSequence(t, {{AttrId{9999}, SortDir::kAsc}}, {}),
               std::logic_error);
}

// Two keys on one node (attributes equated by a selection): the first
// key sets the node's direction.
TEST(OrderedVisitSequenceTest, FirstKeyOnANodeSetsItsDirection) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  AttrId date = p.attr("date"), item = p.attr("item");
  ApplyMerge(&f, p.n_date, p.n_item);
  int n = f.tree().NodeOfAttr(date);
  ASSERT_EQ(f.tree().NodeOfAttr(item), n);
  for (SortDir first : {SortDir::kAsc, SortDir::kDesc}) {
    SortDir second = first == SortDir::kAsc ? SortDir::kDesc : SortDir::kAsc;
    VisitOrder v = OrderedVisitSequence(
        f.tree(),
        {{p.attr("pizza"), SortDir::kAsc}, {date, first}, {item, second}},
        f.tree().TopologicalOrder());
    ASSERT_EQ(v.nodes[1], n);
    EXPECT_EQ(v.dirs[1], first);
  }
}

TEST(OrderEnumerationTest, DescendingKeysAcrossRestructure) {
  // Order by (customer DESC, pizza ASC) end to end.
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  std::vector<int> plan =
      PlanRestructure(f.tree(), {p.n_customer, p.n_pizza}, {});
  for (int b : plan) ApplySwap(&f, b);
  VisitOrder v = OrderedVisitSequence(
      f.tree(),
      {{p.attr("customer"), SortDir::kDesc}, {p.attr("pizza"), SortDir::kAsc}},
      f.tree().TopologicalOrder());
  Relation r = EnumerateToRelation(f, v.nodes, v.dirs);
  EXPECT_EQ(r.size(), 13);
  EXPECT_TRUE(r.IsSortedBy({{p.attr("customer"), SortDir::kDesc},
                            {p.attr("pizza"), SortDir::kAsc}}));
}

}  // namespace
}  // namespace fdb
