#include "fdb/optimizer/cost.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fdb/core/build.h"
#include "fdb/workload/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

TEST(FractionalCoverTest, RootCoveredByItsRelation) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  // pizza is covered by Orders (5 rows) and Pizzas (7): cheapest is log 5.
  double bound = FractionalCoverLog(t, {p.n_pizza});
  EXPECT_NEAR(bound, std::log(5.0), 1e-6);
}

TEST(FractionalCoverTest, PathUsesOneEdgeWhenPossible) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  // The path pizza → date → customer is fully covered by Orders alone.
  double bound = FractionalCoverLog(t, {p.n_pizza, p.n_date, p.n_customer});
  EXPECT_NEAR(bound, std::log(5.0), 1e-6);
}

TEST(FractionalCoverTest, PathAcrossTwoRelations) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  // pizza → item → price needs Pizzas (or Orders for pizza) and Items.
  double bound = FractionalCoverLog(t, {p.n_pizza, p.n_item, p.n_price});
  // Items covers item & price (log 4); pizza needs Orders (log 5) or
  // Pizzas (log 7): expect log 4 + log 5.
  EXPECT_NEAR(bound, std::log(4.0) + std::log(5.0), 1e-6);
}

TEST(FractionalCoverTest, WeightsAreClampedAtTwo) {
  FTree t;
  int a = t.AddNode({0}, -1);
  t.AddEdge({{0}, 1.0, "tiny"});
  // Weight 1 would make coverage free; the clamp keeps it at log 2.
  EXPECT_NEAR(FractionalCoverLog(t, {a}), std::log(2.0), 1e-6);
}

TEST(FractionalCoverTest, UncoveredNodesAreSkipped) {
  FTree t;
  int a = t.AddNode({0}, -1);
  int b = t.AddNode({1}, a);
  t.AddEdge({{0}, 8.0, "ra"});
  // Node b has no covering edge: only a's constraint applies.
  EXPECT_NEAR(FractionalCoverLog(t, {a, b}), std::log(8.0), 1e-6);
}

TEST(NodeSizeBoundTest, DeeperNodesCostAtLeastAsMuch) {
  Pizzeria p = MakePizzeria();
  const FTree& t = p.view().tree();
  EXPECT_LE(NodeSizeBoundLog(t, p.n_pizza),
            NodeSizeBoundLog(t, p.n_date) + 1e-9);
  EXPECT_LE(NodeSizeBoundLog(t, p.n_date),
            NodeSizeBoundLog(t, p.n_customer) + 1e-9);
}

TEST(FTreeCostTest, BranchingTreeBeatsPathTree) {
  // The paper's premise: the branching tree T is asymptotically smaller
  // than a path f-tree over the same attributes/relations.
  Pizzeria p = MakePizzeria();
  const FTree& branching = p.view().tree();

  AttrId customer = p.attr("customer"), date = p.attr("date"),
         pizza = p.attr("pizza"), item = p.attr("item"),
         price = p.attr("price");
  FTree path;
  int n = path.AddNode({pizza}, -1);
  n = path.AddNode({date}, n);
  n = path.AddNode({customer}, n);
  n = path.AddNode({item}, n);
  path.AddNode({price}, n);
  for (const Hyperedge& e : branching.edges()) path.AddEdge(e);

  EXPECT_LT(FTreeCost(branching), FTreeCost(path));
}

TEST(FTreeCostTest, BoundRankingMatchesActualSizesOnWorkloadData) {
  // The cost metric is only useful if its ranking of candidate f-trees
  // agrees with the actual factorisation sizes. Build the §6 workload and
  // factorise it over three alternative trees: the branching T, the path
  // in T's depth-first order, and a badly-ordered path (customer first).
  Database db;
  Workload w = GenerateWorkload(&db, SmallParams(2));
  AttributeRegistry& reg = db.registry();
  AttrId customer = *reg.Find("customer"), date = *reg.Find("date"),
         package = *reg.Find("package"), item = *reg.Find("item"),
         price = *reg.Find("price");
  auto edges = [&](FTree* t) {
    t->AddEdge({{customer, date, package},
                static_cast<double>(w.orders.size()), "Orders"});
    t->AddEdge({{item, package}, static_cast<double>(w.packages.size()),
                "Packages"});
    t->AddEdge({{item, price}, static_cast<double>(w.items.size()),
                "Items"});
  };

  FTree branching = w.ftree;

  FTree path;  // package → date → customer → item → price
  int n = path.AddNode({package}, -1);
  n = path.AddNode({date}, n);
  n = path.AddNode({customer}, n);
  n = path.AddNode({item}, n);
  path.AddNode({price}, n);
  edges(&path);

  FTree bad;  // customer → date → package → item → price
  n = bad.AddNode({customer}, -1);
  n = bad.AddNode({date}, n);
  n = bad.AddNode({package}, n);
  n = bad.AddNode({item}, n);
  bad.AddNode({price}, n);
  edges(&bad);

  std::vector<const Relation*> rels = {&w.orders, &w.packages, &w.items};
  int64_t actual_branching =
      FactoriseJoin(branching, rels).CountSingletons();
  int64_t actual_path = FactoriseJoin(path, rels).CountSingletons();
  int64_t actual_bad = FactoriseJoin(bad, rels).CountSingletons();

  // The data agrees that the branching tree beats both path trees (the two
  // path orders are close to each other on this data, so no ordering is
  // asserted between them).
  EXPECT_LT(actual_branching, actual_path);
  EXPECT_LT(actual_branching, actual_bad);
  // And the metric predicts the same.
  EXPECT_LT(FTreeCost(branching), FTreeCost(path));
  EXPECT_LT(FTreeCost(branching), FTreeCost(bad));
  // The bound really is an upper bound on the actual sizes.
  EXPECT_GE(FTreeCost(branching),
            static_cast<double>(actual_branching));
  EXPECT_GE(FTreeCost(path), static_cast<double>(actual_path));
  EXPECT_GE(FTreeCost(bad), static_cast<double>(actual_bad));
}

TEST(FTreeCostTest, CostGrowsWithRelationSizes) {
  Pizzeria small = MakePizzeria();
  double c1 = FTreeCost(small.view().tree());

  // Same tree shape with 100× heavier Orders.
  FTree scaled;
  AttrId customer = small.attr("customer"), date = small.attr("date"),
         pizza = small.attr("pizza"), item = small.attr("item"),
         price = small.attr("price");
  int n_pizza = scaled.AddNode({pizza}, -1);
  int n_date = scaled.AddNode({date}, n_pizza);
  scaled.AddNode({customer}, n_date);
  int n_item = scaled.AddNode({item}, n_pizza);
  scaled.AddNode({price}, n_item);
  scaled.AddEdge({{customer, date, pizza}, 500.0, "Orders"});
  scaled.AddEdge({{pizza, item}, 7.0, "Pizzas"});
  scaled.AddEdge({{item, price}, 4.0, "Items"});
  EXPECT_GT(FTreeCost(scaled), c1);
}

}  // namespace
}  // namespace fdb
