// Exhaustive sweep over all 120 permutations of T1's five attributes:
// every permutation must be realisable as an enumeration order — directly
// when Theorem 2 already holds, otherwise after the partial restructuring
// plan — and the output must be lexicographically sorted accordingly.
// This is the property behind Example 2 and Experiment 4.

#include <gtest/gtest.h>

#include <algorithm>

#include "fdb/core/enumerate.h"
#include "fdb/core/order.h"
#include "fdb/core/ops/swap.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

class OrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(OrderSweep, EveryPermutationRealisable) {
  Pizzeria p = MakePizzeria();
  std::vector<std::string> names = {"pizza", "date", "customer", "item",
                                    "price"};
  std::sort(names.begin(), names.end());
  for (int i = 0; i < GetParam(); ++i) {
    ASSERT_TRUE(std::next_permutation(names.begin(), names.end()));
  }

  Factorisation f = p.view();
  std::vector<AttrId> attrs;
  std::vector<int> o_nodes;
  for (const std::string& n : names) {
    attrs.push_back(p.attr(n));
    o_nodes.push_back(f.tree().NodeOfAttr(p.attr(n)));
  }

  bool supported = SupportsOrder(f.tree(), o_nodes);
  std::vector<int> plan = PlanRestructure(f.tree(), o_nodes, {});
  if (supported) {
    EXPECT_TRUE(plan.empty())
        << "supported order must need no restructuring";
  } else {
    EXPECT_FALSE(plan.empty());
  }
  for (int b : plan) ApplySwap(&f, b);
  ASSERT_TRUE(f.Validate());
  ASSERT_TRUE(f.tree().SatisfiesPathConstraint());

  // Re-resolve nodes (ids are stable, but keep it uniform) and enumerate.
  o_nodes.clear();
  for (AttrId a : attrs) o_nodes.push_back(f.tree().NodeOfAttr(a));
  ASSERT_TRUE(SupportsOrder(f.tree(), o_nodes));

  // Alternate sort directions to also exercise descending iteration.
  std::vector<SortKey> keys;
  for (size_t i = 0; i < attrs.size(); ++i) {
    keys.push_back({attrs[i], i % 2 == 0 ? SortDir::kAsc : SortDir::kDesc});
  }
  VisitOrder v =
      OrderedVisitSequence(f.tree(), keys, f.tree().TopologicalOrder());
  ASSERT_EQ(v.nodes, o_nodes);
  Relation r = EnumerateToRelation(f, v.nodes, v.dirs);
  EXPECT_EQ(r.size(), 13);
  EXPECT_TRUE(r.IsSortedBy(keys)) << "order: " << names[0] << "," << names[1]
                                  << "," << names[2] << ",...";
}

INSTANTIATE_TEST_SUITE_P(AllPermutations, OrderSweep,
                         ::testing::Range(0, 120));

// Grouping sweep: every subset of T1's attributes is realisable as a
// grouping set after restructuring, and the group enumeration yields
// exactly the distinct combinations (Theorem 1 / Example 10).
class GroupingSweep : public ::testing::TestWithParam<int> {};

TEST_P(GroupingSweep, EverySubsetRealisable) {
  int mask = GetParam();
  if (mask == 0) GTEST_SKIP() << "empty grouping set";
  Pizzeria p = MakePizzeria();
  std::vector<std::string> names = {"pizza", "date", "customer", "item",
                                    "price"};
  Factorisation f = p.view();
  std::vector<AttrId> attrs;
  std::vector<int> g_nodes;
  for (int i = 0; i < 5; ++i) {
    if (mask & (1 << i)) {
      attrs.push_back(p.attr(names[i]));
      g_nodes.push_back(f.tree().NodeOfAttr(p.attr(names[i])));
    }
  }
  for (int b : PlanRestructure(f.tree(), {}, g_nodes)) ApplySwap(&f, b);
  g_nodes.clear();
  for (AttrId a : attrs) g_nodes.push_back(f.tree().NodeOfAttr(a));
  ASSERT_TRUE(SupportsGrouping(f.tree(), g_nodes));

  // Enumerate the groups with a count per group; totals must add to 13.
  AttrId out = p.db->registry().Intern("gs_cnt" + std::to_string(mask));
  VisitOrder v = OrderedVisitSequence(f.tree(), {}, g_nodes);
  GroupAggEnumerator e(f, v.nodes, v.dirs, {{AggFn::kCount, kInvalidAttr}},
                       {out});
  int64_t total = 0;
  int64_t groups = 0;
  Tuple row(e.schema().arity());
  while (e.Next()) {
    e.Fill(&row);
    total += row.back().as_int();
    ++groups;
  }
  EXPECT_EQ(total, 13) << "per-group counts must partition the relation";
  EXPECT_GT(groups, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSubsets, GroupingSweep, ::testing::Range(0, 32));

}  // namespace
}  // namespace fdb
