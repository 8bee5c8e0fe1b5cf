// Edge cases and robustness of both engines: degenerate inputs, limits,
// selections that empty everything, ties, single-relation queries, views
// with equivalence classes, and the factorised-output variants.

#include <gtest/gtest.h>

#include "fdb/core/compress.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/engine/rdb_engine.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;
using testing::Row;
using testing::SameBag;

void ExpectAgree(Database* db, const std::string& sql) {
  FdbEngine fdb(db);
  RdbEngine rdb(db);
  EXPECT_TRUE(
      SameBag(fdb.ExecuteSql(sql).flat, rdb.ExecuteSql(sql).flat,
              db->registry()))
      << sql;
}

TEST(EngineEdgeTest, LimitZero) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  EXPECT_EQ(fdb.ExecuteSql("SELECT * FROM R LIMIT 0").flat.size(), 0);
  EXPECT_EQ(fdb.ExecuteSql("SELECT customer, sum(price) FROM R GROUP BY "
                           "customer LIMIT 0")
                .flat.size(),
            0);
}

TEST(EngineEdgeTest, LimitLargerThanResult) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  EXPECT_EQ(fdb.ExecuteSql("SELECT * FROM R LIMIT 9999").flat.size(), 13);
}

TEST(EngineEdgeTest, SingleRelationQueries) {
  Pizzeria p = MakePizzeria();
  ExpectAgree(p.db.get(), "SELECT * FROM Items");
  ExpectAgree(p.db.get(), "SELECT item FROM Items WHERE price > 1");
  ExpectAgree(p.db.get(), "SELECT max(price), min(item) FROM Items");
  ExpectAgree(p.db.get(),
              "SELECT price, count(*) FROM Items GROUP BY price");
}

TEST(EngineEdgeTest, SelectionEmptiesEverything) {
  Pizzeria p = MakePizzeria();
  ExpectAgree(p.db.get(),
              "SELECT pizza, count(*) FROM R WHERE price > 1000 GROUP BY "
              "pizza");
  ExpectAgree(p.db.get(), "SELECT * FROM R WHERE customer = 'Nobody'");
  ExpectAgree(p.db.get(),
              "SELECT count(*), sum(price), min(price), max(price) FROM R "
              "WHERE price > 1000");
}

TEST(EngineEdgeTest, ContradictorySelections) {
  Pizzeria p = MakePizzeria();
  ExpectAgree(p.db.get(),
              "SELECT * FROM R WHERE price > 3 AND price < 2");
}

TEST(EngineEdgeTest, RedundantSelections) {
  Pizzeria p = MakePizzeria();
  ExpectAgree(p.db.get(),
              "SELECT * FROM R WHERE price >= 1 AND price >= 1 AND "
              "pizza <> 'Nope'");
}

TEST(EngineEdgeTest, OrderByWithHeavyTies) {
  // All prices tie within groups; enumeration order must still be stable
  // and bag-equal across engines.
  Database db;
  Relation r = db.MakeRelation({"ta", "tb"},
                               {{1, 5}, {2, 5}, {3, 5}, {4, 5}, {5, 5}});
  db.AddRelation("T", std::move(r));
  ExpectAgree(&db, "SELECT * FROM T ORDER BY tb, ta");
  FdbEngine fdb(&db);
  FdbResult res = fdb.ExecuteSql("SELECT * FROM T ORDER BY tb DESC, ta");
  EXPECT_TRUE(res.flat.IsSortedBy({{*db.registry().Find("tb"),
                                    SortDir::kDesc},
                                   {*db.registry().Find("ta"),
                                    SortDir::kAsc}}));
}

TEST(EngineEdgeTest, DistinctOnDuplicateHeavyData) {
  Database db;
  std::vector<std::vector<int64_t>> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({i % 3, i % 2});
  Relation r = db.MakeRelation({"da", "db_"}, rows);
  db.AddRelation("D", std::move(r));
  ExpectAgree(&db, "SELECT DISTINCT da FROM D");
  ExpectAgree(&db, "SELECT DISTINCT da, db_ FROM D ORDER BY db_ DESC, da");
}

TEST(EngineEdgeTest, GroupByEquatedAttributes) {
  // Group by an attribute that was merged with another by a selection.
  Pizzeria p = MakePizzeria();
  ExpectAgree(p.db.get(),
              "SELECT customer, count(*) FROM R WHERE customer = date "
              "GROUP BY customer");
}

TEST(EngineEdgeTest, HavingRemovesAllGroups) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, sum(price) AS rev FROM R GROUP BY customer "
      "HAVING rev > 10000");
  EXPECT_TRUE(r.flat.empty());
  ExpectAgree(p.db.get(),
              "SELECT customer, sum(price) AS rev FROM R GROUP BY customer "
              "HAVING rev > 10000");
}

TEST(EngineEdgeTest, HavingOnAvg) {
  Pizzeria p = MakePizzeria();
  ExpectAgree(p.db.get(),
              "SELECT pizza, avg(price) FROM R GROUP BY pizza HAVING "
              "avg(price) < 3");
}

TEST(EngineEdgeTest, HavingPlusLimitAppliesAfterFilter) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  // Two customers pass (revenue 9 each is false; > 5 passes all three);
  // with LIMIT 2 only the first two by customer order remain.
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, sum(price) AS rev FROM R GROUP BY customer "
      "HAVING rev > 5 LIMIT 2");
  ASSERT_EQ(r.flat.size(), 2);
  EXPECT_EQ(r.flat.rows()[0][0].as_string(), "Lucia");
  EXPECT_EQ(r.flat.rows()[1][0].as_string(), "Mario");
}

TEST(EngineEdgeTest, FactorisedOutputOfDistinctProjection) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbOptions fo;
  fo.factorised_output = true;
  FdbResult r = fdb.ExecuteSql("SELECT DISTINCT pizza, date FROM R", fo);
  ASSERT_TRUE(r.factorised.has_value());
  EXPECT_TRUE(r.factorised->Validate());
  EXPECT_EQ(r.factorised->CountTuples(), 4);
  // Only pizza and date survive in the output schema.
  EXPECT_EQ(r.factorised->OutputSchema().arity(), 2);
}

TEST(EngineEdgeTest, CompressedFactorisedOutput) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbOptions fo;
  fo.factorised_output = true;
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, pizza, sum(price) FROM R GROUP BY customer, pizza",
      fo);
  ASSERT_TRUE(r.factorised.has_value());
  CompressInPlace(&*r.factorised);
  // Compression shares subexpressions: the logical singleton count the
  // engine reported is unchanged, and the stored one is no larger.
  EXPECT_EQ(r.result_singletons, r.factorised->CountSingletons());
  EXPECT_LE(CountStoredSingletons(*r.factorised), r.result_singletons);
}

TEST(EngineEdgeTest, RepeatedExecutionIsDeterministic) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  std::string sql =
      "SELECT customer, sum(price) AS rev FROM R GROUP BY customer";
  Relation first = fdb.ExecuteSql(sql).flat;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(first.BagEquals(fdb.ExecuteSql(sql).flat));
  }
}

TEST(EngineEdgeTest, ViewIsNotMutatedByQueries) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  int64_t before = p.db->view("R")->CountSingletons();
  fdb.ExecuteSql(
      "SELECT customer, sum(price) FROM R WHERE price > 1 GROUP BY "
      "customer ORDER BY customer DESC");
  EXPECT_EQ(p.db->view("R")->CountSingletons(), before);
  EXPECT_TRUE(p.db->view("R")->Validate());
}

TEST(EngineEdgeTest, GlobalAggregateWithHaving) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  // HAVING over a global aggregate keeps or drops the single row.
  FdbResult keep = fdb.ExecuteSql(
      "SELECT sum(price) AS s FROM R GROUP BY pizza HAVING s > 100");
  EXPECT_TRUE(keep.flat.empty());
  ExpectAgree(p.db.get(),
              "SELECT pizza, sum(price) AS s FROM R GROUP BY pizza "
              "HAVING s >= 8");
}

TEST(EngineEdgeTest, MinMaxOverStringsEndToEnd) {
  Pizzeria p = MakePizzeria();
  ExpectAgree(p.db.get(),
              "SELECT pizza, min(customer), max(customer) FROM R "
              "GROUP BY pizza");
}

TEST(EngineEdgeTest, CrossProductOfDisconnectedRelations) {
  // FROM r, s with no shared attributes: the f-tree is a forest of two
  // trees and the factorisation is their product (Def. 1).
  Database db;
  db.AddRelation("X", db.MakeRelation({"xa"}, {{1}, {2}, {3}}));
  db.AddRelation("Y", db.MakeRelation({"ya", "yb"}, {{7, 70}, {8, 80}}));
  ExpectAgree(&db, "SELECT * FROM X, Y");
  ExpectAgree(&db, "SELECT count(*) FROM X, Y");
  ExpectAgree(&db, "SELECT xa, sum(yb) FROM X, Y GROUP BY xa");
  FdbEngine fdb(&db);
  FdbResult r = fdb.ExecuteSql("SELECT count(*) FROM X, Y");
  EXPECT_EQ(r.flat.rows()[0][0].as_int(), 6);
  // The factorised product stores 3 + 4 singletons, not 6 × 3.
  FdbOptions fo;
  fo.factorised_output = true;
  FdbResult f = fdb.ExecuteSql("SELECT * FROM X, Y", fo);
  ASSERT_TRUE(f.factorised.has_value());
  EXPECT_EQ(f.factorised->CountSingletons(), 7);
}

TEST(EngineEdgeTest, CrossProductWithSelectionBridgingTrees) {
  // An equality selection across the two independent trees merges their
  // roots (the merge operator on forest roots).
  Database db;
  db.AddRelation("X2", db.MakeRelation({"x2a"}, {{1}, {2}, {3}}));
  db.AddRelation("Y2", db.MakeRelation({"y2a", "y2b"},
                                       {{2, 20}, {3, 30}, {4, 40}}));
  ExpectAgree(&db, "SELECT * FROM X2, Y2 WHERE x2a = y2a");
  ExpectAgree(&db,
              "SELECT x2a, sum(y2b) FROM X2, Y2 WHERE x2a = y2a GROUP BY "
              "x2a");
}

TEST(EngineEdgeTest, MixedTypeAggregates) {
  Database db;
  Relation r{RelSchema({db.Attr("mk"), db.Attr("mv")})};
  r.Add({Value(1), Value(2.5)});
  r.Add({Value(1), Value(2)});
  r.Add({Value(2), Value(1.25)});
  db.AddRelation("M", std::move(r));
  ExpectAgree(&db, "SELECT mk, sum(mv), avg(mv) FROM M GROUP BY mk");
  FdbEngine fdb(&db);
  FdbResult res =
      fdb.ExecuteSql("SELECT mk, sum(mv) FROM M GROUP BY mk");
  EXPECT_DOUBLE_EQ(res.flat.rows()[0][1].numeric(), 4.5);
}

}  // namespace
}  // namespace fdb
