#include "fdb/core/ops/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fdb/core/build.h"
#include "fdb/core/ops/swap.h"
#include "fdb/engine/database.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/exec/task_pool.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;
using testing::Row;

// Evaluates `task` with the one evaluator over the union `n` at `node`.
Value EvalAt(const FTree& t, int node, const FactNode& n,
             const AggTask& task) {
  return ProductAggEvaluator(t, {node}, task).Eval({{node, &n}});
}

// Evaluates `task` over the whole relation of a one-root factorisation.
Value EvalRoot(const Factorisation& f, const AggTask& task) {
  return EvalAt(f.tree(), f.tree().roots()[0], *f.roots()[0], task);
}

int64_t CountRoot(const Factorisation& f) {
  return EvalRoot(f, {AggFn::kCount, kInvalidAttr}).as_int();
}

TEST(ProductAggEvaluatorTest, CountWholePizzeria) {
  Pizzeria p = MakePizzeria();
  const Factorisation& f = p.view();
  EXPECT_EQ(CountRoot(f), 13);
}

TEST(ProductAggEvaluatorTest, SumPriceWholePizzeria) {
  Pizzeria p = MakePizzeria();
  const Factorisation& f = p.view();
  // Σ price over R: Capricciosa orders 2×(6+1+1)=16, Hawaii 2×(6+1+2)=18,
  // Margherita 1×6=6 → 40.
  Value v = EvalRoot(f, {AggFn::kSum, p.attr("price")});
  EXPECT_EQ(v.as_int(), 40);
}

TEST(ProductAggEvaluatorTest, MinMaxPrice) {
  Pizzeria p = MakePizzeria();
  const Factorisation& f = p.view();
  EXPECT_EQ(EvalRoot(f, {AggFn::kMin, p.attr("price")}).as_int(), 1);
  EXPECT_EQ(EvalRoot(f, {AggFn::kMax, p.attr("price")}).as_int(), 6);
}

TEST(ProductAggEvaluatorTest, MinMaxOnStringAttribute) {
  Pizzeria p = MakePizzeria();
  const Factorisation& f = p.view();
  AttrId customer = p.attr("customer");
  EXPECT_EQ(EvalRoot(f, {AggFn::kMin, customer}).as_string(), "Lucia");
  EXPECT_EQ(EvalRoot(f, {AggFn::kMax, customer}).as_string(), "Pietro");
}

TEST(ApplyAggregateTest, LocalAggregationExample1Scenario1) {
  // Query S (Example 1): replace the item/price subtree by sum(price) per
  // pizza: Capricciosa 8, Hawaii 9, Margherita 6 — f-tree T2.
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  std::vector<int> ids =
      ApplyAggregate(&f, &p.db->registry(), p.n_item,
                     {{AggFn::kSum, p.attr("price")}});
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_TRUE(f.Validate());
  EXPECT_TRUE(f.tree().SatisfiesPathConstraint());
  // The aggregate leaf sits under pizza, in item's former slot.
  EXPECT_EQ(f.tree().parent(ids[0]), p.n_pizza);
  const FactNode* root = f.roots()[0];
  ASSERT_EQ(root->size(), 3);  // Capricciosa, Hawaii, Margherita (sorted)
  int k = static_cast<int>(f.tree().children(p.n_pizza).size());
  int slot = f.tree().SlotOf(ids[0]);
  EXPECT_EQ(root->child(0, k, slot)->values[0].as_int(), 8);
  EXPECT_EQ(root->child(1, k, slot)->values[0].as_int(), 9);
  EXPECT_EQ(root->child(2, k, slot)->values[0].as_int(), 6);
}

TEST(ApplyAggregateTest, Example8RevenuePerCustomer) {
  // The full Example 1/8 pipeline for P = ̟customer;sum(price)(R):
  // γ_sumprice(item subtree); swap customer up twice; γ_count(date);
  // then the final sum over the subtree under customer gives
  // Lucia 9, Mario 22, Pietro 9.
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  AttrId price = p.attr("price");
  ApplyAggregate(&f, &p.db->registry(), p.n_item, {{AggFn::kSum, price}});
  // Push customer above date and pizza (T2 → T3).
  ApplySwap(&f, p.n_customer);
  ApplySwap(&f, p.n_customer);
  ASSERT_EQ(f.tree().roots(), std::vector<int>{p.n_customer});
  EXPECT_TRUE(f.Validate());
  // Now count the dates per (customer, pizza) (T3 → T4).
  ApplyAggregate(&f, &p.db->registry(), p.n_date,
                 {{AggFn::kCount, kInvalidAttr}});
  EXPECT_TRUE(f.Validate());
  // Finally aggregate the whole subtree under customer on the fly.
  const FactNode* root = f.roots()[0];
  ASSERT_EQ(root->size(), 3);  // Lucia, Mario, Pietro
  const FTree& t = f.tree();
  int kc = static_cast<int>(t.children(p.n_customer).size());
  ASSERT_EQ(kc, 1);  // the pizza subtree
  int pizza_node = t.children(p.n_customer)[0];
  std::vector<int64_t> revenue;
  for (int i = 0; i < root->size(); ++i) {
    Value v =
        EvalAt(t, pizza_node, *root->child(i, kc, 0), {AggFn::kSum, price});
    revenue.push_back(v.as_int());
  }
  EXPECT_EQ(revenue, (std::vector<int64_t>{9, 22, 9}));
}

TEST(ApplyAggregateTest, CountComposesOverCountExample6) {
  // Example 6: γ_count(item) on Pizzas gives counts 1/3/3 per pizza; a
  // subsequent count over (pizza, count(item)) must yield 7, not 3.
  Pizzeria p = MakePizzeria();
  AttrId pizza = p.attr("pizza"), item = p.attr("item");
  Factorisation f =
      FactoriseRelation(*p.db->relation("Pizzas"), {pizza, item});
  int n_item = f.tree().NodeOfAttr(item);
  ApplyAggregate(&f, &p.db->registry(), n_item,
                 {{AggFn::kCount, kInvalidAttr}});
  EXPECT_TRUE(f.Validate());
  EXPECT_EQ(CountRoot(f), 7);
}

TEST(ApplyAggregateTest, SumAbsorbsInnerCountProposition2) {
  // γ_sumA(U) ∘ γ_count(V) = γ_sumA(U) for V ⊆ U, A ∉ V: computing the sum
  // with and without the partial count gives the same value.
  Pizzeria p = MakePizzeria();
  AttrId price = p.attr("price");

  Factorisation direct = p.view();
  Value expect = EvalRoot(direct, {AggFn::kSum, price});

  Factorisation partial = p.view();
  ApplyAggregate(&partial, &p.db->registry(), p.n_customer,
                 {{AggFn::kCount, kInvalidAttr}});
  Value with_partial = EvalRoot(partial, {AggFn::kSum, price});
  EXPECT_EQ(expect, with_partial);
}

TEST(ApplyAggregateTest, SumComposesOverInnerSum) {
  // γ_sumA(U) ∘ γ_sumA(V) = γ_sumA(U) for V ⊆ U.
  Pizzeria p = MakePizzeria();
  AttrId price = p.attr("price");
  Factorisation f = p.view();
  ApplyAggregate(&f, &p.db->registry(), p.n_price, {{AggFn::kSum, price}});
  Value v = EvalRoot(f, {AggFn::kSum, price});
  EXPECT_EQ(v.as_int(), 40);
}

TEST(ApplyAggregateTest, MinComposesOverInnerMin) {
  Pizzeria p = MakePizzeria();
  AttrId price = p.attr("price");
  Factorisation f = p.view();
  ApplyAggregate(&f, &p.db->registry(), p.n_item, {{AggFn::kMin, price}});
  Value v = EvalRoot(f, {AggFn::kMin, price});
  EXPECT_EQ(v.as_int(), 1);
}

TEST(ApplyAggregateTest, CompositeSumCountShareOneOperator) {
  // avg = (sum, count) evaluated by one operator: two sibling leaves whose
  // `over` sets coincide; later aggregates must interpret them correctly.
  Pizzeria p = MakePizzeria();
  AttrId price = p.attr("price");
  Factorisation f = p.view();
  std::vector<int> ids = ApplyAggregate(
      &f, &p.db->registry(), p.n_item,
      {{AggFn::kSum, price}, {AggFn::kCount, kInvalidAttr}});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_TRUE(f.Validate());
  // Global sum must not double-count via the count sibling: still 40.
  Value s = EvalRoot(f, {AggFn::kSum, price});
  EXPECT_EQ(s.as_int(), 40);
  // Global count interprets the count leaf: 13 tuples.
  EXPECT_EQ(CountRoot(f), 13);
}

TEST(ApplyAggregateTest, CountOverLoneSumNodeThrows) {
  // Without a count sibling, a sum leaf loses the multiplicity of its
  // range: counting over it is an invalid composition (Prop. 2).
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  ApplyAggregate(&f, &p.db->registry(), p.n_item,
                 {{AggFn::kSum, p.attr("price")}});
  EXPECT_THROW(CountRoot(f), std::invalid_argument);
}

TEST(ApplyAggregateTest, SumOverForeignMinNodeThrows) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  ApplyAggregate(&f, &p.db->registry(), p.n_price,
                 {{AggFn::kMin, p.attr("price")}});
  EXPECT_THROW(EvalRoot(f, {AggFn::kSum, p.attr("price")}),
               std::invalid_argument);
}

TEST(ApplyAggregateTest, SumWithoutSourceThrows) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  EXPECT_THROW(
      ApplyAggregate(&f, &p.db->registry(), p.n_date,
                     {{AggFn::kSum, p.attr("price")}}),
      std::invalid_argument);
}

TEST(ApplyAggregateTest, DuplicateTasksThrow) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  EXPECT_THROW(
      ApplyAggregate(&f, &p.db->registry(), p.n_item,
                     {{AggFn::kCount, kInvalidAttr},
                      {AggFn::kCount, kInvalidAttr}}),
      std::invalid_argument);
}

TEST(ApplyAggregateTest, AggregateOnEmptyFactorisationKeepsShape) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("ea2"), b = reg.Intern("eb2");
  Relation r{RelSchema({a, b})};
  Factorisation f = FactoriseRelation(r, {a, b});
  ASSERT_TRUE(f.empty());
  int nb = f.tree().NodeOfAttr(b);
  ApplyAggregate(&f, &reg, nb, {{AggFn::kCount, kInvalidAttr}});
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.Validate());
}

TEST(ProductAggEvaluatorTest, CombinesIndependentParts) {
  Pizzeria p = MakePizzeria();
  const Factorisation& f = p.view();
  const FTree& t = f.tree();
  // Parts: the date subtree and the item subtree of the first pizza
  // (Capricciosa): count = 2 × 3 = 6, sum(price) = 8 × 2 = 16.
  const FactNode* root = f.roots()[0];
  std::vector<std::pair<int, const FactNode*>> parts = {
      {p.n_date, root->child(0, 2, 0)},
      {p.n_item, root->child(0, 2, 1)}};
  auto eval = [&](const AggTask& task) {
    return ProductAggEvaluator(t, {p.n_date, p.n_item}, task).Eval(parts);
  };
  EXPECT_EQ(eval({AggFn::kCount, kInvalidAttr}).as_int(), 6);
  EXPECT_EQ(eval({AggFn::kSum, p.attr("price")}).as_int(), 16);
  EXPECT_EQ(eval({AggFn::kMin, p.attr("price")}).as_int(), 1);
}

TEST(ProductAggEvaluatorTest, EmptyPartsCountIsOne) {
  FTree t;
  EXPECT_EQ(
      ProductAggEvaluator(t, {}, {AggFn::kCount, kInvalidAttr}).Eval({})
          .as_int(),
      1);
  EXPECT_THROW(ProductAggEvaluator(t, {}, {AggFn::kSum, 0}),
               std::invalid_argument);
}

TEST(ProductAggEvaluatorTest, EmptyOrNullPartGivesCountZeroAndNulls) {
  // A product with an empty factor is the empty relation: SQL's count 0
  // and NULL for sum/min/max, whatever the other parts hold.
  Pizzeria p = MakePizzeria();
  const Factorisation& f = p.view();
  const FTree& t = f.tree();
  int root = t.roots()[0];
  AttrId price = p.attr("price");
  for (const FactNode* empty : {FactArena::EmptyNode(),
                                static_cast<const FactNode*>(nullptr)}) {
    std::vector<std::pair<int, const FactNode*>> parts = {{root, empty}};
    EXPECT_EQ(ProductAggEvaluator(t, {root}, {AggFn::kCount, kInvalidAttr})
                  .Eval(parts)
                  .as_int(),
              0);
    for (AggFn fn : {AggFn::kSum, AggFn::kMin, AggFn::kMax}) {
      EXPECT_TRUE(
          ProductAggEvaluator(t, {root}, {fn, price}).Eval(parts).is_null());
    }
  }
  // The empty part need not be the carrier's.
  std::vector<std::pair<int, const FactNode*>> parts = {
      {p.n_date, FactArena::EmptyNode()},
      {p.n_item, f.roots()[0]->child(0, 2, 1)}};
  EXPECT_TRUE(
      ProductAggEvaluator(t, {p.n_date, p.n_item}, {AggFn::kSum, price})
          .Eval(parts)
          .is_null());
}

// Double SUMs must be bit-identical at every thread count and on either
// side of the parallel-dispatch threshold: every union is reduced with one
// fixed 256-entry association, forked or not. Checked on the evaluator
// itself and on the engine's full aggregation, which reaches it through
// the γ operator and GroupAggInto.
TEST(ProductAggEvaluatorTest, DoubleSumBitIdenticalAcrossThreadCounts) {
  auto sums_with_threads = [](int n, int threads) {
    int before = exec::TaskPool::Default().num_threads();
    exec::TaskPool::SetDefaultThreads(threads);
    Database db;
    AttrId a = db.Attr("fp_a"), b = db.Attr("fp_b");
    FTree t;
    int na = t.AddNode({a}, -1);
    t.AddNode({b}, na);
    // Irrational-ish doubles make the accumulation order visible in the
    // last bits; one leaf per top entry keeps the carrier below the root
    // (the cstar recursion path).
    std::vector<Value> top;
    std::vector<FactPtr> leaves;
    for (int i = 0; i < n; ++i) {
      top.push_back(Value(int64_t{i}));
      leaves.push_back(MakeLeaf({Value(std::sqrt(i + 1.0))}));
    }
    Factorisation f(t, {MakeNode(top, leaves)});
    double direct = EvalRoot(f, {AggFn::kSum, b}).as_double();
    db.AddView("FP", std::move(f));
    FdbResult r = FdbEngine(&db).ExecuteSql("SELECT sum(fp_b) FROM FP");
    exec::TaskPool::SetDefaultThreads(before);
    EXPECT_EQ(r.flat.size(), 1);
    return std::make_pair(direct, r.flat.rows()[0][0].as_double());
  };
  // Above the parallel threshold (2500 entries) and below it (600):
  // exact double equality, i.e. the same bits.
  for (int n : {2500, 600}) {
    auto [serial, serial_sql] = sums_with_threads(n, 1);
    auto [parallel, parallel_sql] = sums_with_threads(n, 4);
    EXPECT_EQ(serial, parallel) << n;
    EXPECT_EQ(serial_sql, parallel_sql) << n;
    EXPECT_EQ(serial, serial_sql) << n;
  }
}

TEST(ProductAggEvaluatorTest, CarrierIsAtomicOrMatchingAggregate) {
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  AttrId price = p.attr("price");
  // The atomic price node carries the sum: 40 over R.
  EXPECT_EQ(EvalRoot(f, {AggFn::kSum, price}).as_int(), 40);
  ApplyAggregate(&f, &p.db->registry(), p.n_price, {{AggFn::kSum, price}});
  // The sum leaf that replaced it carries it now.
  EXPECT_EQ(EvalRoot(f, {AggFn::kSum, price}).as_int(), 40);
  // A min task does not accept a sum node as carrier: no carrier at all.
  EXPECT_THROW(ProductAggEvaluator(f.tree(), {p.n_pizza}, {AggFn::kMin, price}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fdb
