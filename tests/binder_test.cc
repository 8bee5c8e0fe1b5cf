#include "fdb/query/binder.h"

#include <gtest/gtest.h>

#include "fdb/core/build.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/engine/rdb_engine.h"
#include "fdb/query/parser.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

TEST(BinderTest, ResolvesRelationsAndColumns) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(ParseSql("SELECT customer FROM Orders"), p.db.get());
  EXPECT_EQ(q.from, std::vector<std::string>{"Orders"});
  ASSERT_EQ(q.outputs.size(), 1u);
  EXPECT_EQ(q.outputs[0].attr, p.attr("customer"));
  EXPECT_TRUE(q.distinct_projection);  // plain projection has set semantics
  EXPECT_FALSE(q.has_aggregates());
}

TEST(BinderTest, ViewsResolveToo) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(ParseSql("SELECT * FROM R"), p.db.get());
  EXPECT_TRUE(q.select_star);
  EXPECT_EQ(q.outputs.size(), 5u);
}

TEST(BinderTest, UnknownRelationThrows) {
  Pizzeria p = MakePizzeria();
  EXPECT_THROW(Bind(ParseSql("SELECT * FROM Nope"), p.db.get()),
               std::invalid_argument);
}

TEST(BinderTest, WritesAndTransactionsAreNotQueries) {
  Pizzeria p = MakePizzeria();
  for (const char* sql : {"INSERT INTO R VALUES (1, 2)",
                          "DELETE FROM R VALUES (1, 2)", "BEGIN", "COMMIT",
                          "ROLLBACK"}) {
    EXPECT_THROW(Bind(ParseSql(sql), p.db.get()), std::invalid_argument)
        << sql;
  }
  EXPECT_THROW(FdbEngine(p.db.get()).ExecuteSql("INSERT INTO V VALUES (1, 2)"),
               std::invalid_argument);
  EXPECT_THROW(RdbEngine(p.db.get()).ExecuteSql("INSERT INTO V VALUES (1, 2)"),
               std::invalid_argument);
}

TEST(BinderTest, UnknownColumnThrows) {
  Pizzeria p = MakePizzeria();
  EXPECT_THROW(Bind(ParseSql("SELECT nope FROM Orders"), p.db.get()),
               std::invalid_argument);
}

TEST(BinderTest, ColumnFromOtherRelationThrows) {
  Pizzeria p = MakePizzeria();
  // price exists in the registry but not in Orders.
  EXPECT_THROW(Bind(ParseSql("SELECT price FROM Orders"), p.db.get()),
               std::invalid_argument);
}

TEST(BinderTest, WhereSplitsEqualityAndConstant) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(
      ParseSql("SELECT * FROM R WHERE customer = date AND price > 3"),
      p.db.get());
  ASSERT_EQ(q.eq_selections.size(), 1u);
  EXPECT_EQ(q.eq_selections[0].first, p.attr("customer"));
  ASSERT_EQ(q.const_selections.size(), 1u);
  EXPECT_EQ(std::get<1>(q.const_selections[0]), CmpOp::kGt);
}

TEST(BinderTest, SelfEqualityIsDropped) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(
      ParseSql("SELECT * FROM R WHERE customer = customer"), p.db.get());
  EXPECT_TRUE(q.eq_selections.empty());
}

TEST(BinderTest, AttributeInequalityThrows) {
  Pizzeria p = MakePizzeria();
  EXPECT_THROW(
      Bind(ParseSql("SELECT * FROM R WHERE customer < date"), p.db.get()),
      std::invalid_argument);
}

TEST(BinderTest, AggregatesAndGrouping) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(
      ParseSql("SELECT customer, sum(price) AS revenue FROM R "
               "GROUP BY customer"),
      p.db.get());
  EXPECT_TRUE(q.has_aggregates());
  ASSERT_EQ(q.tasks.size(), 1u);
  EXPECT_EQ(q.tasks[0].fn, AggFn::kSum);
  EXPECT_EQ(q.tasks[0].source, p.attr("price"));
  EXPECT_EQ(q.group, std::vector<AttrId>{p.attr("customer")});
  EXPECT_EQ(q.task_ids[0], *p.db->registry().Find("revenue"));
}

TEST(BinderTest, NonGroupedColumnThrows) {
  Pizzeria p = MakePizzeria();
  EXPECT_THROW(
      Bind(ParseSql("SELECT date, sum(price) FROM R GROUP BY customer"),
           p.db.get()),
      std::invalid_argument);
}

TEST(BinderTest, AvgExpandsToSumAndCount) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(
      ParseSql("SELECT avg(price) FROM R GROUP BY customer"), p.db.get());
  ASSERT_EQ(q.tasks.size(), 2u);
  EXPECT_EQ(q.tasks[0].fn, AggFn::kSum);
  EXPECT_EQ(q.tasks[1].fn, AggFn::kCount);
  ASSERT_EQ(q.outputs.size(), 1u);
  EXPECT_EQ(q.outputs[0].kind, OutputColumn::Kind::kAvg);
}

TEST(BinderTest, DuplicateAggregatesShareOneTask) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(
      ParseSql("SELECT sum(price), avg(price), count(*) FROM R "
               "GROUP BY customer"),
      p.db.get());
  // sum(price) and count(*) are shared with avg's expansion.
  EXPECT_EQ(q.tasks.size(), 2u);
  EXPECT_EQ(q.outputs.size(), 3u);
}

TEST(BinderTest, GroupByWithoutAggregatesIsDistinctProjection) {
  Pizzeria p = MakePizzeria();
  BoundQuery q =
      Bind(ParseSql("SELECT customer FROM R GROUP BY customer"), p.db.get());
  EXPECT_FALSE(q.has_aggregates());
  EXPECT_TRUE(q.distinct_projection);
}

TEST(BinderTest, HavingBindsAliasTaskAndGroupColumn) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(
      ParseSql("SELECT customer, sum(price) AS revenue FROM R GROUP BY "
               "customer HAVING revenue > 10 AND customer <> 'Mario' AND "
               "count(*) >= 1"),
      p.db.get());
  ASSERT_EQ(q.having.size(), 3u);
  EXPECT_EQ(q.having[0].kind, BoundHaving::Kind::kTask);
  EXPECT_EQ(q.having[1].kind, BoundHaving::Kind::kGroupCol);
  EXPECT_EQ(q.having[2].kind, BoundHaving::Kind::kTask);
  // The count(*) task was added for HAVING only: 2 tasks + count.
  EXPECT_EQ(q.tasks.size(), 2u);
}

TEST(BinderTest, HavingWithoutGroupingThrows) {
  Pizzeria p = MakePizzeria();
  EXPECT_THROW(
      Bind(ParseSql("SELECT customer FROM Orders HAVING customer = 'x'"),
           p.db.get()),
      std::invalid_argument);
}

TEST(BinderTest, OrderByOutputColumnsOnly) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(
      ParseSql("SELECT customer, sum(price) AS revenue FROM R GROUP BY "
               "customer ORDER BY revenue DESC"),
      p.db.get());
  ASSERT_EQ(q.order_by.size(), 1u);
  EXPECT_EQ(q.order_by[0].attr, *p.db->registry().Find("revenue"));
  EXPECT_EQ(q.order_by[0].dir, SortDir::kDesc);
}

TEST(BinderTest, OrderByNonOutputThrows) {
  Pizzeria p = MakePizzeria();
  EXPECT_THROW(
      Bind(ParseSql("SELECT customer FROM Orders ORDER BY date"),
           p.db.get()),
      std::invalid_argument);
}

TEST(BinderTest, SelectStarOrderByAnyColumn) {
  Pizzeria p = MakePizzeria();
  BoundQuery q =
      Bind(ParseSql("SELECT * FROM Orders ORDER BY date"), p.db.get());
  EXPECT_EQ(q.order_by.size(), 1u);
}

TEST(BinderTest, OutputStageComputesAvgAndHaving) {
  Pizzeria p = MakePizzeria();
  BoundQuery q = Bind(
      ParseSql("SELECT customer, avg(price) AS ap FROM R GROUP BY customer "
               "HAVING count(*) > 2"),
      p.db.get());
  // Raw relation: customer, sum, count columns (task_ids order).
  std::vector<AttrId> attrs = {p.attr("customer")};
  for (AttrId id : q.task_ids) attrs.push_back(id);
  Relation raw{RelSchema(attrs)};
  raw.Add({Value("A"), Value(10), Value(4)});   // avg 2.5, kept
  raw.Add({Value("B"), Value(10), Value(2)});   // filtered by having
  RelationSink sink;
  OutputStage stage(q, &sink);
  stage.Begin(raw.schema());
  EXPECT_TRUE(stage.Add(raw.rows()[0]));
  EXPECT_FALSE(stage.Add(raw.rows()[1]));
  const Relation& out = sink.relation();
  EXPECT_EQ(out.schema().attrs(),
            (std::vector<AttrId>{p.attr("customer"), q.outputs[1].attr}));
  ASSERT_EQ(out.size(), 1);
  EXPECT_EQ(out.rows()[0][0].as_string(), "A");
  EXPECT_DOUBLE_EQ(out.rows()[0][1].as_double(), 2.5);
}

// An enumeration's limit over the output stage counts the rows the stage
// keeps, so HAVING-dropped rows do not use up the limit.
TEST(BinderTest, OutputStageRespectsLimit) {
  Pizzeria p = MakePizzeria();
  for (const char* having : {"", " HAVING count(*) > 1"}) {
    SCOPED_TRACE(having);
    BoundQuery q = Bind(
        ParseSql(std::string("SELECT customer, count(*) FROM R GROUP BY "
                             "customer") + having),
        p.db.get());
    std::vector<AttrId> attrs = {p.attr("customer"), q.task_ids[0]};
    Relation raw{RelSchema(attrs)};
    raw.Add({Value("A"), Value(1)});
    raw.Add({Value("B"), Value(2)});
    raw.Add({Value("C"), Value(3)});
    Factorisation f = FactoriseRelation(raw, attrs);
    RelationSink sink;
    OutputStage stage(q, &sink);
    EXPECT_EQ(EnumerateInto(f, f.tree().TopologicalOrder(),
                            {SortDir::kAsc, SortDir::kAsc}, 2, {}, &stage),
              2);
    const Relation& out = sink.relation();
    ASSERT_EQ(out.size(), 2);
    EXPECT_EQ(out.rows()[0][0].as_string(), *having ? "B" : "A");
    EXPECT_EQ(out.rows()[1][0].as_string(), *having ? "C" : "B");
  }
}

}  // namespace
}  // namespace fdb
