#ifndef FDB_TESTS_TEST_UTIL_H_
#define FDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/factorisation.h"
#include "fdb/core/ops/swap.h"
#include "fdb/core/stats.h"
#include "fdb/core/update.h"
#include "fdb/engine/database.h"
#include "fdb/relational/rdb_ops.h"

namespace fdb {
namespace testing {

/// A directory private to this test process: created on first use under
/// ::testing::TempDir() with a unique name (mkdtemp) and removed with its
/// contents at exit. Tests write their files here, so files one run
/// leaves behind (or another test binary writes concurrently) are never
/// read by another run.
inline const std::string& ProcessTempDir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string tmpl =
          (std::filesystem::path(::testing::TempDir()) / "fdb_test_XXXXXX")
              .string();
      if (mkdtemp(tmpl.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed for " + tmpl);
      }
      path = std::move(tmpl);
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// The running example of the paper (Figure 1): the pizzeria database and
/// the factorised view R = Orders ⋈ Pizzas ⋈ Items over the f-tree T1
/// (pizza → {date → customer, item → price}).
struct Pizzeria {
  std::unique_ptr<Database> db;
  // Node ids of T1 inside the view's tree.
  int n_pizza, n_date, n_customer, n_item, n_price;

  const Factorisation& view() const { return *db->view("R"); }
  AttrId attr(const std::string& name) {
    return *db->registry().Find(name);
  }
};

inline Pizzeria MakePizzeria() {
  Pizzeria p;
  p.db = std::make_unique<Database>();
  AttributeRegistry& reg = p.db->registry();
  AttrId customer = reg.Intern("customer");
  AttrId date = reg.Intern("date");
  AttrId pizza = reg.Intern("pizza");
  AttrId item = reg.Intern("item");
  AttrId price = reg.Intern("price");

  Relation orders{RelSchema({customer, date, pizza})};
  orders.Add({Value("Mario"), Value("Monday"), Value("Capricciosa")});
  orders.Add({Value("Mario"), Value("Tuesday"), Value("Margherita")});
  orders.Add({Value("Pietro"), Value("Friday"), Value("Hawaii")});
  orders.Add({Value("Lucia"), Value("Friday"), Value("Hawaii")});
  orders.Add({Value("Mario"), Value("Friday"), Value("Capricciosa")});

  Relation pizzas{RelSchema({pizza, item})};
  pizzas.Add({Value("Margherita"), Value("base")});
  pizzas.Add({Value("Capricciosa"), Value("base")});
  pizzas.Add({Value("Capricciosa"), Value("ham")});
  pizzas.Add({Value("Capricciosa"), Value("mushrooms")});
  pizzas.Add({Value("Hawaii"), Value("base")});
  pizzas.Add({Value("Hawaii"), Value("ham")});
  pizzas.Add({Value("Hawaii"), Value("pineapple")});

  Relation items{RelSchema({item, price})};
  items.Add({Value("base"), Value(int64_t{6})});
  items.Add({Value("ham"), Value(int64_t{1})});
  items.Add({Value("mushrooms"), Value(int64_t{1})});
  items.Add({Value("pineapple"), Value(int64_t{2})});

  FTree t1;
  p.n_pizza = t1.AddNode({pizza}, -1);
  p.n_date = t1.AddNode({date}, p.n_pizza);
  p.n_customer = t1.AddNode({customer}, p.n_date);
  p.n_item = t1.AddNode({item}, p.n_pizza);
  p.n_price = t1.AddNode({price}, p.n_item);
  t1.AddEdge({{customer, date, pizza}, 5.0, "Orders"});
  t1.AddEdge({{pizza, item}, 7.0, "Pizzas"});
  t1.AddEdge({{item, price}, 4.0, "Items"});

  Factorisation r = FactoriseJoin(t1, {&orders, &pizzas, &items});
  p.db->AddRelation("Orders", std::move(orders));
  p.db->AddRelation("Pizzas", std::move(pizzas));
  p.db->AddRelation("Items", std::move(items));
  p.db->AddView("R", std::move(r));
  return p;
}

/// Compares two relations as sets after projecting both to `cols`
/// (column-order independent), with a readable failure message.
inline ::testing::AssertionResult SameSet(const Relation& a,
                                          const Relation& b,
                                          const std::vector<AttrId>& cols,
                                          const AttributeRegistry& reg) {
  Relation pa = Project(a, cols, /*dedup=*/true);
  Relation pb = Project(b, cols, /*dedup=*/true);
  if (pa.SetEquals(pb)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "relations differ:\n"
         << pa.ToString(reg) << "vs\n"
         << pb.ToString(reg);
}

/// Bag comparison on identical schemas with a readable failure message.
inline ::testing::AssertionResult SameBag(const Relation& a,
                                          const Relation& b,
                                          const AttributeRegistry& reg) {
  if (a.BagEquals(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "relations differ:\n"
         << a.ToString(reg) << "vs\n"
         << b.ToString(reg);
}

inline Tuple Row(std::vector<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value(v));
  return t;
}

/// A flat relation over attributes `attrs` (interned in `db`'s registry)
/// holding `rows` of int64 values.
inline Relation MakeRelation(Database* db,
                             const std::vector<std::string>& attrs,
                             const std::vector<std::vector<int64_t>>& rows) {
  std::vector<AttrId> ids;
  for (const std::string& a : attrs) ids.push_back(db->Attr(a));
  Relation rel{RelSchema(std::move(ids))};
  for (const auto& row : rows) rel.Add(Row(row));
  return rel;
}

/// A factorisation whose nodes are shared, made by the engine's own swap
/// operator. R(a, b) ⋈ S(a, c), with three a-values that each join
/// b ∈ {10, 20} and c ∈ {7, 8, 9}, is factorised over a → {b, c} and then
/// swapped on b, giving b → a → c. ApplySwap puts each E_a (the c-union
/// of one a) under every b that a joins, so the DAG holds 2 + 2·3 + 2·3·3
/// = 26 logical singletons and stores 2 + 2·3 + 3·3 = 17. With the b-root
/// `r`, `r->child(0, 1, 0)->child(i, 1, 0)` and
/// `r->child(1, 1, 0)->child(i, 1, 0)` are one node for each i. The
/// attributes are `prefix`_a, _b and _c, interned in `db`'s registry.
inline Factorisation MakeSwapDag(Database* db, const std::string& prefix) {
  AttrId a = db->Attr(prefix + "_a"), b = db->Attr(prefix + "_b"),
         c = db->Attr(prefix + "_c");
  Relation r{RelSchema({a, b})}, s{RelSchema({a, c})};
  for (int64_t x : {1, 2, 3}) {
    for (int64_t y : {10, 20}) r.Add(Row({x, y}));
    for (int64_t z : {7, 8, 9}) s.Add(Row({x, z}));
  }
  FTree tree;
  int na = tree.AddNode({a}, -1);
  int nb = tree.AddNode({b}, na);
  tree.AddNode({c}, na);
  tree.AddEdge({{a, b}, 6.0, "R"});
  tree.AddEdge({{a, c}, 9.0, "S"});
  Factorisation f = FactoriseJoin(tree, {&r, &s});
  ApplySwap(&f, nb);
  EXPECT_LT(ComputeFootprint(f).singletons, f.CountSingletons())
      << "the swap shared no node";
  return f;
}

/// Inserts `tuple` into an unpublished path view as a one-op ApplyBatch.
inline void InsertOne(Factorisation* f, const Tuple& tuple) {
  ApplyBatch(f, {BatchOp{true, tuple}});
}

/// Deletes `tuple` from an unpublished path view as a one-op ApplyBatch.
inline void DeleteOne(Factorisation* f, const Tuple& tuple) {
  ApplyBatch(f, {BatchOp{false, tuple}});
}

/// A commit op inserting `tuple` into view `view`.
inline storage::WalOp InsertOp(const std::string& view, Tuple tuple) {
  return storage::WalOp{storage::WalOp::kInsert, view, std::move(tuple)};
}

/// A commit op deleting `tuple` from view `view`.
inline storage::WalOp DeleteOp(const std::string& view, Tuple tuple) {
  return storage::WalOp{storage::WalOp::kDelete, view, std::move(tuple)};
}

}  // namespace testing
}  // namespace fdb

#endif  // FDB_TESTS_TEST_UTIL_H_
