#include "fdb/optimizer/greedy.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "fdb/core/order.h"
#include "fdb/optimizer/fplan.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

// Replays a plan on an f-tree copy (no data), mirroring ExecutePlan;
// constant selections leave the tree as it is.
FTree Replay(const FTree& tree, const FPlan& plan) {
  FTree t = tree;
  AttrId next_id = FirstFreshAttr(tree, {});
  for (const FOp& op : plan) {
    if (op.kind != FOpKind::kSelectConst) SimulateOp(&t, op, &next_id);
  }
  return t;
}

// All atomic attributes left in the tree.
std::vector<AttrId> AtomicAttrs(const FTree& t) {
  std::vector<AttrId> out;
  for (int n : t.TopologicalOrder()) {
    if (!t.node(n).is_aggregate()) {
      out.insert(out.end(), t.node(n).attrs.begin(), t.node(n).attrs.end());
    }
  }
  return out;
}

// The tree with aggregate ids abstracted away: each live node's wiring,
// class or aggregate (fn, source, over) label, the roots, and each
// hyperedge's members, an aggregate id standing in as its node.
std::string Shape(const FTree& t) {
  std::ostringstream os;
  for (int n : t.TopologicalOrder()) {
    const FTreeNode& nd = t.node(n);
    os << n << " under " << nd.parent << " [";
    for (int c : nd.children) os << c << ",";
    os << "] ";
    if (nd.is_aggregate()) {
      os << AggFnName(nd.agg->fn) << "_" << nd.agg->source << "(";
      for (AttrId a : nd.agg->over) os << a << ",";
      os << ")";
    }
    for (AttrId a : nd.attrs) os << a << ",";
    os << "\n";
  }
  for (int r : t.roots()) os << "root " << r << "\n";
  for (const Hyperedge& e : t.edges()) {
    std::vector<std::string> members;
    for (AttrId a : e.attrs) {
      int n = t.NodeOfAttr(a);
      bool agg = n >= 0 && t.node(n).is_aggregate();
      members.push_back((agg ? "node " : "") + std::to_string(agg ? n : a));
    }
    std::sort(members.begin(), members.end());
    os << "edge " << e.weight << ":";
    for (const std::string& m : members) os << " " << m;
    os << "\n";
  }
  return os.str();
}

TEST(GreedyTest, SimulateOpMirrorsExecuteOp) {
  // The planners' tree-only simulation and the operators on data must
  // leave the same f-tree behind, up to the names of fresh aggregates.
  Pizzeria p = MakePizzeria();
  const FTree& input = p.view().tree();
  AttrId price = p.attr("price");
  FPlan ops = {FOp::Swap(p.n_customer),
               FOp::Aggregate(p.n_price, {{AggFn::kSum, price}}),
               FOp::Merge(p.n_customer, p.n_item),
               FOp::Absorb(p.n_pizza, p.n_customer),
               FOp::Aggregate(p.n_date, {{AggFn::kCount, kInvalidAttr}})};
  FTree sim = input;
  AttrId next_id = FirstFreshAttr(input, {});
  Factorisation f = p.view();
  AttributeRegistry& reg = p.db->registry();
  for (const FOp& op : ops) {
    SimulateOp(&sim, op, &next_id);
    ExecuteOp(&f, &reg, op);
    EXPECT_EQ(Shape(sim), Shape(f.tree())) << PlanToString({op}, reg);
  }
  std::set<AttrId> input_ids;
  for (int n = 0; n < input.num_nodes(); ++n) {
    for (AttrId a : input.node(n).AllAttrIds()) input_ids.insert(a);
  }
  for (const Hyperedge& e : input.edges()) {
    input_ids.insert(e.attrs.begin(), e.attrs.end());
  }
  std::set<AttrId> fresh;
  for (int n : sim.TopologicalOrder()) {
    if (!sim.node(n).is_aggregate()) continue;
    fresh.insert(sim.node(n).agg->id);
    EXPECT_EQ(input_ids.count(sim.node(n).agg->id), 0u);
  }
  EXPECT_EQ(fresh.size(), 2u);
}

TEST(GreedyTest, Q2RevenuePerCustomerPlanShape) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.group = {p.attr("customer")};
  q.tasks = {{AggFn::kSum, p.attr("price")}};
  FPlan plan = GreedyPlan(p.view().tree(), q);
  ASSERT_FALSE(plan.empty());
  // The first operator is the local partial aggregation of the item/price
  // subtree (no restructuring needed for it).
  EXPECT_EQ(plan[0].kind, FOpKind::kAggregate);
  EXPECT_EQ(plan[0].a, p.n_item);
  // The plan then restructures and aggregates until only customer remains.
  FTree final_tree = Replay(p.view().tree(), plan);
  EXPECT_EQ(AtomicAttrs(final_tree),
            std::vector<AttrId>{p.attr("customer")});
  EXPECT_TRUE(SupportsGrouping(
      final_tree, {final_tree.NodeOfAttr(p.attr("customer"))}));
  EXPECT_TRUE(final_tree.SatisfiesPathConstraint());
}

TEST(GreedyTest, Q1NoRestructuringNeeded) {
  // G = {pizza, date, customer} sits on a root path of T1: the plan only
  // needs the partial aggregate of the item subtree — no swaps.
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.group = {p.attr("pizza"), p.attr("date"), p.attr("customer")};
  q.tasks = {{AggFn::kSum, p.attr("price")}};
  FPlan plan = GreedyPlan(p.view().tree(), q);
  for (const FOp& op : plan) {
    EXPECT_NE(op.kind, FOpKind::kSwap) << "unexpected restructuring";
  }
  FTree final_tree = Replay(p.view().tree(), plan);
  EXPECT_EQ(AtomicAttrs(final_tree).size(), 3u);
}

TEST(GreedyTest, Q5FullAggregationConsumesEverything) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.tasks = {{AggFn::kSum, p.attr("price")}};
  FPlan plan = GreedyPlan(p.view().tree(), q);
  FTree final_tree = Replay(p.view().tree(), plan);
  EXPECT_TRUE(AtomicAttrs(final_tree).empty());
}

TEST(GreedyTest, PartialTasksDeriveByPropositionTwo) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  AttrId price = p.attr("price");
  // Over the item subtree (contains price): sum stays sum.
  std::vector<AggTask> tasks =
      PartialTasks(t, p.n_item, {{AggFn::kSum, price}});
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].fn, AggFn::kSum);
  // Over the date subtree (no price): sum decays to count.
  tasks = PartialTasks(t, p.n_date, {{AggFn::kSum, price}});
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].fn, AggFn::kCount);
  // Composite (sum, count) deduplicates the decayed copies.
  tasks = PartialTasks(t, p.n_date,
                       {{AggFn::kSum, price}, {AggFn::kCount, kInvalidAttr}});
  EXPECT_EQ(tasks.size(), 1u);
  // min decays to count outside its source subtree, stays min inside.
  tasks = PartialTasks(t, p.n_item, {{AggFn::kMin, price}});
  EXPECT_EQ(tasks[0].fn, AggFn::kMin);
}

TEST(GreedyTest, SubtreeAggregatableRespectsBlockedAttrs) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  EXPECT_TRUE(SubtreeAggregatable(t, p.n_item, {p.attr("customer")}));
  EXPECT_FALSE(SubtreeAggregatable(t, p.n_item, {p.attr("price")}));
  EXPECT_FALSE(SubtreeAggregatable(t, p.n_pizza, {p.attr("customer")}));
}

TEST(GreedyTest, ConstSelectionsComeFirst) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.const_selections = {{p.attr("price"), CmpOp::kGt, Value(1)}};
  q.group = {p.attr("customer")};
  q.tasks = {{AggFn::kSum, p.attr("price")}};
  FPlan plan = GreedyPlan(p.view().tree(), q);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan[0].kind, FOpKind::kSelectConst);
  EXPECT_EQ(plan[0].a, p.n_price);
}

TEST(GreedyTest, EqualitySelectionUsesMergeWhenSiblings) {
  // Forest of two independent trees; equality across roots → merge.
  Database db;
  AttrId a = db.Attr("gya"), b = db.Attr("gyb");
  FTree t;
  t.AddNode({a}, -1);
  t.AddNode({b}, -1);
  t.AddEdge({{a}, 4.0, "ra"});
  t.AddEdge({{b}, 4.0, "rb"});
  PlannerQuery q;
  q.eq_selections = {{a, b}};
  FPlan plan = GreedyPlan(t, q);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].kind, FOpKind::kMerge);
}

TEST(GreedyTest, EqualitySelectionUsesAbsorbOnPath) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.eq_selections = {{p.attr("pizza"), p.attr("customer")}};
  FPlan plan = GreedyPlan(p.view().tree(), q);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].kind, FOpKind::kAbsorb);
  EXPECT_EQ(plan[0].a, p.n_pizza);
  EXPECT_EQ(plan[0].b, p.n_customer);
}

TEST(GreedyTest, EqualitySelectionOnSiblingBranches) {
  // date = item: the nodes are siblings under pizza, so a merge applies
  // directly with no restructuring.
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.eq_selections = {{p.attr("date"), p.attr("item")}};
  FPlan plan = GreedyPlan(p.view().tree(), q);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].kind, FOpKind::kMerge);
}

TEST(GreedyTest, EqualityAcrossBranchesRestructuresFirst) {
  // customer = price: the nodes sit deep in different branches; the plan
  // must swap until one can merge/absorb, then perform the selection.
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.eq_selections = {{p.attr("customer"), p.attr("price")}};
  FPlan plan = GreedyPlan(p.view().tree(), q);
  bool has_swap = false, has_selection = false;
  for (const FOp& op : plan) {
    if (op.kind == FOpKind::kSwap) has_swap = true;
    if (op.kind == FOpKind::kMerge || op.kind == FOpKind::kAbsorb) {
      has_selection = true;
    }
  }
  EXPECT_TRUE(has_swap);
  EXPECT_TRUE(has_selection);
  FTree final_tree = Replay(p.view().tree(), plan);
  EXPECT_EQ(final_tree.NodeOfAttr(p.attr("customer")),
            final_tree.NodeOfAttr(p.attr("price")));
  EXPECT_TRUE(final_tree.SatisfiesPathConstraint());
}

TEST(GreedyTest, OrderByRestructuresToSupportTheorem2) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.order = {p.attr("customer"), p.attr("pizza")};
  FPlan plan = GreedyPlan(p.view().tree(), q);
  FTree final_tree = Replay(p.view().tree(), plan);
  EXPECT_TRUE(SupportsOrder(final_tree,
                            {final_tree.NodeOfAttr(p.attr("customer")),
                             final_tree.NodeOfAttr(p.attr("pizza"))}));
}

TEST(GreedyTest, EmptyQueryYieldsEmptyPlan) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  EXPECT_TRUE(GreedyPlan(p.view().tree(), q).empty());
}

TEST(GreedyTest, UnknownAttributesThrow) {
  Pizzeria p = MakePizzeria();
  PlannerQuery q;
  q.group = {static_cast<AttrId>(4321)};
  q.tasks = {{AggFn::kCount, kInvalidAttr}};
  EXPECT_THROW(GreedyPlan(p.view().tree(), q),
               std::invalid_argument);
}

}  // namespace
}  // namespace fdb
