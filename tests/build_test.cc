#include "fdb/core/build.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "fdb/relational/rdb_ops.h"
#include "fdb/workload/random_db.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;
using testing::Row;
using testing::SameSet;

TEST(FactoriseRelationTest, PathTrieGroupsByPrefix) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("a"), b = reg.Intern("b");
  Relation r{RelSchema({a, b})};
  r.Add(Row({1, 10}));
  r.Add(Row({1, 20}));
  r.Add(Row({2, 10}));
  Factorisation f = FactoriseRelation(r, {a, b});
  // Trie: <1>x(<10> u <20>) u <2>x<10> — 5 singletons.
  EXPECT_EQ(f.CountSingletons(), 5);
  EXPECT_EQ(f.CountTuples(), 3);
  EXPECT_TRUE(SameSet(f.Flatten(), r, {a, b}, reg));
  EXPECT_TRUE(f.Validate());
}

TEST(FactoriseRelationTest, ReversedOrderChangesGrouping) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("a"), b = reg.Intern("b");
  Relation r{RelSchema({a, b})};
  r.Add(Row({1, 10}));
  r.Add(Row({2, 10}));
  r.Add(Row({3, 10}));
  Factorisation f = FactoriseRelation(r, {b, a});
  // Grouped by b: <10>x(<1> u <2> u <3>) — 4 singletons.
  EXPECT_EQ(f.CountSingletons(), 4);
  EXPECT_TRUE(SameSet(f.Flatten(), r, {a, b}, reg));
}

TEST(FactoriseRelationTest, EmptyRelation) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("a"), b = reg.Intern("b");
  Relation r{RelSchema({a, b})};
  Factorisation f = FactoriseRelation(r, {a, b});
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.Validate());
}

TEST(FactoriseRelationTest, WrongOrderSizeThrows) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("a"), b = reg.Intern("b");
  Relation r{RelSchema({a, b})};
  EXPECT_THROW(FactoriseRelation(r, {a}), std::invalid_argument);
}

TEST(FactoriseJoinTest, PizzeriaMatchesFigure1) {
  Pizzeria p = MakePizzeria();
  EXPECT_EQ(p.view().CountSingletons(), 26);
  EXPECT_TRUE(p.view().Validate());
}

TEST(FactoriseJoinTest, DanglingTuplesArePruned) {
  // A package with no items must not appear (its branch would be empty).
  AttributeRegistry reg;
  AttrId a = reg.Intern("ja"), b = reg.Intern("jb"), c = reg.Intern("jc");
  Relation r1{RelSchema({a, b})};
  r1.Add(Row({1, 10}));
  r1.Add(Row({2, 20}));  // b=20 has no partner in r2
  Relation r2{RelSchema({b, c})};
  r2.Add(Row({10, 100}));
  FTree t;
  int nb = t.AddNode({b}, -1);
  t.AddNode({a}, nb);
  t.AddNode({c}, nb);
  t.AddEdge({{a, b}, 2.0, "r1"});
  t.AddEdge({{b, c}, 1.0, "r2"});
  Factorisation f = FactoriseJoin(t, {&r1, &r2});
  EXPECT_EQ(f.CountTuples(), 1);
  Relation join = NaturalJoin(r1, r2);
  EXPECT_TRUE(SameSet(f.Flatten(), join, {a, b, c}, reg));
  EXPECT_TRUE(f.Validate());
}

TEST(FactoriseJoinTest, EmptyJoinResult) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("ka"), b = reg.Intern("kb"), c = reg.Intern("kc");
  Relation r1{RelSchema({a, b})};
  r1.Add(Row({1, 10}));
  Relation r2{RelSchema({b, c})};
  r2.Add(Row({99, 100}));
  FTree t;
  int nb = t.AddNode({b}, -1);
  t.AddNode({a}, nb);
  t.AddNode({c}, nb);
  t.AddEdge({{a, b}, 1.0, "r1"});
  t.AddEdge({{b, c}, 1.0, "r2"});
  Factorisation f = FactoriseJoin(t, {&r1, &r2});
  EXPECT_TRUE(f.empty());
}

TEST(FactoriseJoinTest, EquivalenceClassAcrossRelations) {
  // Attributes a (in r1) and x (in r2) placed in one class: equated.
  AttributeRegistry reg;
  AttrId a = reg.Intern("ea"), b = reg.Intern("eb");
  AttrId x = reg.Intern("ex"), y = reg.Intern("ey");
  Relation r1{RelSchema({a, b})};
  r1.Add(Row({1, 10}));
  r1.Add(Row({2, 20}));
  Relation r2{RelSchema({x, y})};
  r2.Add(Row({1, 111}));
  r2.Add(Row({3, 333}));
  FTree t;
  int top = t.AddNode({a, x}, -1);
  t.AddNode({b}, top);
  t.AddNode({y}, top);
  t.AddEdge({{a, b}, 2.0, "r1"});
  t.AddEdge({{x, y}, 2.0, "r2"});
  Factorisation f = FactoriseJoin(t, {&r1, &r2});
  // Only a = x = 1 survives.
  EXPECT_EQ(f.CountTuples(), 1);
  Relation flat = f.Flatten();
  // The class contributes both attribute columns with the shared value.
  EXPECT_EQ(flat.schema().arity(), 4);
  EXPECT_EQ(flat.rows()[0][0].as_int(), 1);
}

TEST(FactoriseJoinTest, IntraRelationClassFiltersUnequalRows) {
  // Both attributes of r sit in the same class: acts as σ_{a=b}.
  AttributeRegistry reg;
  AttrId a = reg.Intern("fa"), b = reg.Intern("fb");
  Relation r{RelSchema({a, b})};
  r.Add(Row({1, 1}));
  r.Add(Row({1, 2}));
  r.Add(Row({3, 3}));
  FTree t;
  t.AddNode({a, b}, -1);
  t.AddEdge({{a, b}, 3.0, "r"});
  Factorisation f = FactoriseJoin(t, {&r});
  EXPECT_EQ(f.CountTuples(), 2);
}

TEST(FactoriseJoinTest, AttributesNotOnOnePathThrow) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("ga"), b = reg.Intern("gb"), c = reg.Intern("gc");
  Relation r{RelSchema({a, b, c})};
  r.Add(Row({1, 2, 3}));
  FTree t;
  int na = t.AddNode({a}, -1);
  t.AddNode({b}, na);
  t.AddNode({c}, na);  // b and c are siblings: r's attrs not on one path
  t.AddEdge({{a, b, c}, 1.0, "r"});
  EXPECT_THROW(FactoriseJoin(t, {&r}), std::invalid_argument);
}

TEST(FactoriseJoinTest, MissingAttributeThrows) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("ha"), b = reg.Intern("hb");
  Relation r{RelSchema({a, b})};
  r.Add(Row({1, 2}));
  FTree t;
  t.AddNode({a}, -1);
  EXPECT_THROW(FactoriseJoin(t, {&r}), std::invalid_argument);
}

TEST(FactoriseJoinTest, UncoveredNodeThrows) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("ia"), b = reg.Intern("ib");
  Relation r{RelSchema({a})};
  r.Add(Row({1}));
  FTree t;
  int na = t.AddNode({a}, -1);
  t.AddNode({b}, na);  // no relation covers b
  t.AddEdge({{a}, 1.0, "r"});
  EXPECT_THROW(FactoriseJoin(t, {&r}), std::invalid_argument);
}

// --- sorted-input memo ---------------------------------------------------

// Structural equality: the same union sizes, value refs (bit for bit) and
// child wiring, node by node.
::testing::AssertionResult SameNodes(FactPtr a, FactPtr b) {
  if (a->values.size() != b->values.size() ||
      a->children.size() != b->children.size()) {
    return ::testing::AssertionFailure() << "union shapes differ";
  }
  for (size_t i = 0; i < a->values.size(); ++i) {
    if (a->values[i].bits() != b->values[i].bits()) {
      return ::testing::AssertionFailure()
             << "value " << i << " differs: " << a->values[i] << " vs "
             << b->values[i];
    }
  }
  for (size_t c = 0; c < a->children.size(); ++c) {
    ::testing::AssertionResult r = SameNodes(a->children[c], b->children[c]);
    if (!r) return r;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameFactorisation(const Factorisation& a,
                                             const Factorisation& b) {
  if (a.roots().size() != b.roots().size()) {
    return ::testing::AssertionFailure() << "root counts differ";
  }
  for (size_t r = 0; r < a.roots().size(); ++r) {
    ::testing::AssertionResult res = SameNodes(a.roots()[r], b.roots()[r]);
    if (!res) return res;
  }
  return ::testing::AssertionSuccess();
}

// A value drawn from a mixed pool: small ints, doubles, big integers
// (pooled refs) and strings, all of one column's domain.
Value MixedValue(std::mt19937_64& rng, int domain) {
  int k = static_cast<int>(rng() % domain);
  switch (rng() % 4) {
    case 0:
      return Value(int64_t{k});
    case 1:
      return Value(k + 0.5);
    case 2:
      return Value((int64_t{1} << 50) + k);
    default:
      return Value("memo_s" + std::to_string(k));
  }
}

// R(a, b, b2, c) and S(c, d) over c → {b,b2} → a, c → d: b and b2 share
// a class, so R's build filters rows where they differ.
struct MemoJoin {
  AttributeRegistry reg;
  AttrId a, b, b2, c, d;
  Relation r, s;
  FTree tree;

  explicit MemoJoin(uint64_t seed) {
    a = reg.Intern("ma");
    b = reg.Intern("mb");
    b2 = reg.Intern("mb2");
    c = reg.Intern("mc");
    d = reg.Intern("md");
    std::mt19937_64 rng(seed);
    r = Relation{RelSchema({a, b, b2, c})};
    for (int i = 0; i < 80; ++i) {
      Value vb = MixedValue(rng, 5);
      Value vb2 = rng() % 3 == 0 ? MixedValue(rng, 5) : vb;
      r.Add({MixedValue(rng, 6), vb, vb2, MixedValue(rng, 4)});
    }
    s = Relation{RelSchema({c, d})};
    for (int i = 0; i < 30; ++i) s.Add({MixedValue(rng, 4), MixedValue(rng, 6)});
    int nc = tree.AddNode({c}, -1);
    int nb = tree.AddNode({b, b2}, nc);
    tree.AddNode({a}, nb);
    tree.AddNode({d}, nc);
    tree.AddEdge({{a, b, b2, c}, 80.0, "R"});
    tree.AddEdge({{c, d}, 30.0, "S"});
  }

  Factorisation Build(int* reused) const {
    return FactoriseJoin(tree, {&r, &s}, reused);
  }
  // The same join over memo-less copies of the rows.
  Factorisation BuildFresh() const {
    Relation r0(r.schema(), r.rows()), s0(s.schema(), s.rows());
    int reused = -1;
    Factorisation f = FactoriseJoin(tree, {&r0, &s0}, &reused);
    EXPECT_EQ(reused, 0);
    return f;
  }
  Relation Join() const { return NaturalJoin(SelectAttrEq(r, b, b2), s); }
};

TEST(SortedInputMemoTest, HitAndMissBuildIdenticalFactorisations) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    MemoJoin m(seed);
    int reused = -1;
    Factorisation miss = m.Build(&reused);
    EXPECT_EQ(reused, 0) << seed;
    EXPECT_EQ(m.r.num_sorted_inputs(), 1u);
    EXPECT_EQ(m.s.num_sorted_inputs(), 1u);
    Factorisation hit = m.Build(&reused);
    EXPECT_EQ(reused, 2) << seed;
    EXPECT_TRUE(hit.Validate());
    EXPECT_TRUE(SameFactorisation(miss, hit)) << seed;
    EXPECT_TRUE(SameFactorisation(m.BuildFresh(), hit)) << seed;
    EXPECT_TRUE(SameSet(hit.Flatten(), m.Join(), {m.a, m.b, m.c, m.d}, m.reg))
        << seed;
  }
}

TEST(SortedInputMemoTest, EachPathOrderHasItsOwnEntryUpToTheBound) {
  AttributeRegistry reg;
  std::vector<AttrId> attrs = {reg.Intern("oa"), reg.Intern("ob"),
                               reg.Intern("oc")};
  Relation r{RelSchema(attrs)};
  for (int64_t i = 0; i < 40; ++i) r.Add(Row({i % 3, i % 5, i % 7}));
  // Five of the six path orders: the first is evicted by the fifth.
  std::vector<std::vector<AttrId>> orders;
  std::vector<AttrId> order = attrs;
  do {
    orders.push_back(order);
  } while (std::next_permutation(order.begin(), order.end()) &&
           orders.size() < 5);
  for (const std::vector<AttrId>& o : orders) FactoriseRelation(r, o);
  EXPECT_EQ(r.num_sorted_inputs(), Relation::kMaxSortedInputs);
  // The most recent four still hit; the evicted first order misses.
  int reused = -1;
  auto build = [&](const std::vector<AttrId>& o) {
    FTree t;
    int parent = -1;
    for (AttrId x : o) parent = t.AddNode({x}, parent);
    t.AddEdge({attrs, 40.0, "R"});
    Factorisation f = FactoriseJoin(t, {&r}, &reused);
    EXPECT_TRUE(SameSet(f.Flatten(), r, attrs, reg));
  };
  build(orders[4]);
  EXPECT_EQ(reused, 1);
  build(orders[0]);
  EXPECT_EQ(reused, 0);
  EXPECT_EQ(r.num_sorted_inputs(), Relation::kMaxSortedInputs);
}

TEST(SortedInputMemoTest, EveryMutatorDropsTheMemo) {
  MemoJoin m(7);
  Tuple extra = {Value("memo_new"), Value(int64_t{1}), Value(int64_t{1}),
                 m.s.rows()[0][0]};
  // Each mutation must be seen by the next build, which sorts afresh and
  // matches a build over memo-less copies.
  auto rebuild = [&m](const char* what) {
    int reused = -1;
    Factorisation f = m.Build(&reused);
    EXPECT_EQ(reused, 1) << what;  // S still hits, R sorted afresh
    EXPECT_TRUE(SameFactorisation(m.BuildFresh(), f)) << what;
    EXPECT_TRUE(SameSet(f.Flatten(), m.Join(), {m.a, m.b, m.c, m.d}, m.reg))
        << what;
  };
  m.Build(nullptr);

  m.r.Add(extra);
  EXPECT_EQ(m.r.num_sorted_inputs(), 0u);
  rebuild("Add");

  m.r.SortBy({{m.c, SortDir::kDesc}});
  EXPECT_EQ(m.r.num_sorted_inputs(), 0u);
  rebuild("SortBy");

  m.r.Add(extra);  // a duplicate for SortAndDedup to remove
  m.Build(nullptr);
  m.r.SortAndDedup();
  EXPECT_EQ(m.r.num_sorted_inputs(), 0u);
  rebuild("SortAndDedup");

  m.r.mutable_rows().pop_back();
  EXPECT_EQ(m.r.num_sorted_inputs(), 0u);
  rebuild("mutable_rows");

  MemoJoin other(8);
  ASSERT_EQ(m.r.num_sorted_inputs(), 1u);
  m.r = other.r;  // copy assignment from a relation with no memo
  EXPECT_EQ(m.r.num_sorted_inputs(), 0u);
  rebuild("copy assignment");
  m.r = Relation(other.r.schema(), {other.r.rows()[0]});  // move assignment
  EXPECT_EQ(m.r.num_sorted_inputs(), 0u);
  rebuild("move assignment");
}

TEST(SortedInputMemoTest, CopiesShareEntriesAndMutateApart) {
  MemoJoin m(3);
  m.Build(nullptr);
  Relation copy = m.r;
  EXPECT_EQ(copy.num_sorted_inputs(), 1u);
  copy.Add({Value(int64_t{99}), Value(int64_t{1}), Value(int64_t{1}),
            m.s.rows()[0][0]});
  EXPECT_EQ(copy.num_sorted_inputs(), 0u);
  EXPECT_EQ(m.r.num_sorted_inputs(), 1u);  // the source keeps its entry
  Relation moved = std::move(m.r);
  EXPECT_EQ(moved.num_sorted_inputs(), 1u);
}

TEST(SortedInputMemoTest, HeldColumnsOutliveTheMutationThatDropsThem) {
  MemoJoin m(5);
  m.Build(nullptr);
  Relation::SortedColumnsKey key = {{3}, {1, 2}, {0}};  // c, {b, b2}, a
  std::shared_ptr<const Relation::SortedColumns> held =
      m.r.FindSortedInput(key);
  ASSERT_NE(held, nullptr);
  std::vector<std::vector<ValueRef>> before = *held;
  m.r.Add({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{2}),
           Value(int64_t{3})});
  m.r.mutable_rows().clear();
  EXPECT_EQ(m.r.FindSortedInput(key), nullptr);
  // The build that held the entry still reads the columns it was given.
  EXPECT_EQ(*held, before);
  EXPECT_TRUE(std::is_sorted((*held)[0].begin(), (*held)[0].end()));
}

// Differential property: the factorised join over a chain f-tree equals the
// relational natural join, across random databases.
class TrieJoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(TrieJoinProperty, MatchesRelationalJoin) {
  Database db;
  RandomDbSpec spec;
  spec.seed = static_cast<uint64_t>(GetParam());
  spec.num_relations = 2 + GetParam() % 2;
  spec.rows = 20 + GetParam() % 17;
  spec.domain = 4 + GetParam() % 4;
  RandomDb rdb = GenerateChainDb(&db, "t" + std::to_string(GetParam()),
                                 spec);
  std::vector<const Relation*> rels;
  for (const std::string& name : rdb.relation_names) {
    rels.push_back(db.relation(name));
  }
  FTree tree = ChooseFTree(rels);
  ASSERT_TRUE(tree.SatisfiesPathConstraint());
  Factorisation f = FactoriseJoin(tree, rels);
  EXPECT_TRUE(f.Validate());
  Relation join = NaturalJoinAll(rels);
  std::vector<AttrId> cols;
  for (const std::string& a : rdb.attr_names) {
    cols.push_back(*db.registry().Find(a));
  }
  EXPECT_TRUE(testing::SameSet(f.Flatten(), join, cols, db.registry()));
  // Succinctness: never more singletons than 1 + tuples × arity.
  EXPECT_LE(f.CountSingletons(),
            1 + join.size() * join.schema().arity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieJoinProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace fdb
