#include "fdb/query/parser.h"

#include <gtest/gtest.h>

namespace fdb {
namespace {

TEST(ParserTest, MinimalSelectStar) {
  ParsedQuery q = ParseSql("SELECT * FROM R");
  EXPECT_TRUE(q.select_star);
  EXPECT_EQ(q.from, std::vector<std::string>{"R"});
  EXPECT_TRUE(q.where.empty());
  EXPECT_FALSE(q.limit.has_value());
}

TEST(ParserTest, ColumnsAndAliases) {
  ParsedQuery q = ParseSql("SELECT a, b AS bee FROM R");
  ASSERT_EQ(q.items.size(), 2u);
  EXPECT_EQ(q.items[0].column, "a");
  EXPECT_FALSE(q.items[0].agg.has_value());
  EXPECT_EQ(q.items[1].alias, "bee");
}

TEST(ParserTest, AggregatesAllFunctions) {
  ParsedQuery q = ParseSql(
      "SELECT count(*), sum(x), min(y), max(z), avg(w) FROM R");
  ASSERT_EQ(q.items.size(), 5u);
  EXPECT_EQ(*q.items[0].agg, ParseAggFn::kCount);
  EXPECT_TRUE(q.items[0].column.empty());
  EXPECT_EQ(*q.items[1].agg, ParseAggFn::kSum);
  EXPECT_EQ(q.items[1].column, "x");
  EXPECT_EQ(*q.items[2].agg, ParseAggFn::kMin);
  EXPECT_EQ(*q.items[3].agg, ParseAggFn::kMax);
  EXPECT_EQ(*q.items[4].agg, ParseAggFn::kAvg);
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  ParsedQuery q = ParseSql(
      "select Sum(price) as revenue from R group by customer");
  EXPECT_EQ(*q.items[0].agg, ParseAggFn::kSum);
  EXPECT_EQ(q.items[0].alias, "revenue");
  EXPECT_EQ(q.group_by, std::vector<std::string>{"customer"});
}

TEST(ParserTest, MultipleFromRelations) {
  ParsedQuery q = ParseSql("SELECT * FROM Orders, Packages, Items");
  EXPECT_EQ(q.from.size(), 3u);
  EXPECT_EQ(q.from[2], "Items");
}

TEST(ParserTest, WhereConjunctions) {
  ParsedQuery q = ParseSql(
      "SELECT * FROM R WHERE a = b AND c > 5 AND d = 'x' AND e <= 2.5");
  ASSERT_EQ(q.where.size(), 4u);
  EXPECT_TRUE(q.where[0].rhs_is_attr);
  EXPECT_EQ(q.where[0].rhs_attr, "b");
  EXPECT_EQ(q.where[1].op, CmpOp::kGt);
  EXPECT_EQ(q.where[1].rhs_const.as_int(), 5);
  EXPECT_EQ(q.where[2].rhs_const.as_string(), "x");
  EXPECT_DOUBLE_EQ(q.where[3].rhs_const.as_double(), 2.5);
}

TEST(ParserTest, AllComparisonOperators) {
  ParsedQuery q = ParseSql(
      "SELECT * FROM R WHERE a = 1 AND b <> 2 AND c != 3 AND d < 4 AND "
      "e <= 5 AND f > 6 AND g >= 7");
  ASSERT_EQ(q.where.size(), 7u);
  EXPECT_EQ(q.where[1].op, CmpOp::kNe);
  EXPECT_EQ(q.where[2].op, CmpOp::kNe);
  EXPECT_EQ(q.where[3].op, CmpOp::kLt);
  EXPECT_EQ(q.where[6].op, CmpOp::kGe);
}

TEST(ParserTest, NegativeNumbers) {
  ParsedQuery q = ParseSql("SELECT * FROM R WHERE a = -5");
  EXPECT_EQ(q.where[0].rhs_const.as_int(), -5);
}

TEST(ParserTest, GroupByHavingOrderByLimit) {
  ParsedQuery q = ParseSql(
      "SELECT customer, sum(price) AS revenue FROM R "
      "WHERE price > 0 GROUP BY customer HAVING sum(price) >= 10 "
      "AND count(*) > 1 ORDER BY revenue DESC, customer LIMIT 10");
  EXPECT_EQ(q.group_by, std::vector<std::string>{"customer"});
  ASSERT_EQ(q.having.size(), 2u);
  EXPECT_EQ(*q.having[0].agg, ParseAggFn::kSum);
  EXPECT_EQ(q.having[0].op, CmpOp::kGe);
  EXPECT_EQ(*q.having[1].agg, ParseAggFn::kCount);
  ASSERT_EQ(q.order_by.size(), 2u);
  EXPECT_EQ(q.order_by[0].column, "revenue");
  EXPECT_EQ(q.order_by[0].dir, SortDir::kDesc);
  EXPECT_EQ(q.order_by[1].dir, SortDir::kAsc);
  EXPECT_EQ(*q.limit, 10);
}

TEST(ParserTest, HavingAliasForm) {
  ParsedQuery q =
      ParseSql("SELECT sum(x) AS s FROM R GROUP BY g HAVING s > 3");
  ASSERT_EQ(q.having.size(), 1u);
  EXPECT_FALSE(q.having[0].agg.has_value());
  EXPECT_EQ(q.having[0].column, "s");
}

TEST(ParserTest, DistinctFlag) {
  ParsedQuery q = ParseSql("SELECT DISTINCT a, b FROM R");
  EXPECT_TRUE(q.distinct);
  EXPECT_EQ(q.items.size(), 2u);
}

TEST(ParserTest, OrderByAscExplicit) {
  ParsedQuery q = ParseSql("SELECT * FROM R ORDER BY a ASC, b DESC");
  EXPECT_EQ(q.order_by[0].dir, SortDir::kAsc);
  EXPECT_EQ(q.order_by[1].dir, SortDir::kDesc);
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_NO_THROW(ParseSql("SELECT * FROM R;"));
}

TEST(ParserTest, ToSqlRoundTripReparses) {
  std::string sql =
      "SELECT customer, sum(price) AS revenue FROM Orders, Items WHERE "
      "price > 1 GROUP BY customer HAVING count(*) > 2 ORDER BY revenue "
      "DESC LIMIT 5";
  ParsedQuery q1 = ParseSql(sql);
  ParsedQuery q2 = ParseSql(ToSql(q1));
  EXPECT_EQ(ToSql(q1), ToSql(q2));
}

TEST(ParserTest, ErrorMissingFrom) {
  EXPECT_THROW(ParseSql("SELECT a"), std::invalid_argument);
}

TEST(ParserTest, ErrorUnterminatedString) {
  EXPECT_THROW(ParseSql("SELECT * FROM R WHERE a = 'oops"),
               std::invalid_argument);
}

TEST(ParserTest, ErrorTrailingGarbage) {
  EXPECT_THROW(ParseSql("SELECT * FROM R garbage here"),
               std::invalid_argument);
}

TEST(ParserTest, ErrorStarArgumentOnSum) {
  EXPECT_THROW(ParseSql("SELECT sum(*) FROM R"), std::invalid_argument);
}

TEST(ParserTest, ErrorMissingParen) {
  EXPECT_THROW(ParseSql("SELECT sum(a FROM R"), std::invalid_argument);
}

TEST(ParserTest, ErrorLimitNotInteger) {
  EXPECT_THROW(ParseSql("SELECT * FROM R LIMIT x"), std::invalid_argument);
  EXPECT_THROW(ParseSql("SELECT * FROM R LIMIT 2.5"), std::invalid_argument);
}

TEST(ParserTest, ErrorHavingAgainstAttribute) {
  EXPECT_THROW(ParseSql("SELECT sum(a) FROM R GROUP BY g HAVING sum(a) > b"),
               std::invalid_argument);
}

TEST(ParserTest, ErrorMessageIncludesPosition) {
  try {
    ParseSql("SELECT * FROM R WHERE ???");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("position"), std::string::npos);
  }
}

// --- literals ---------------------------------------------------------------

TEST(ParserTest, LiteralForms) {
  ParsedQuery q = ParseSql(
      "SELECT * FROM R WHERE a = +3 AND b = 1e3 AND c = -2.5E-1 AND d = .5 "
      "AND e = 'it''s'");
  ASSERT_EQ(q.where.size(), 5u);
  EXPECT_EQ(q.where[0].rhs_const.as_int(), 3);
  EXPECT_DOUBLE_EQ(q.where[1].rhs_const.as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(q.where[2].rhs_const.as_double(), -0.25);
  EXPECT_DOUBLE_EQ(q.where[3].rhs_const.as_double(), 0.5);
  EXPECT_EQ(q.where[4].rhs_const.as_string(), "it's");
}

// A malformed or oversized number is rejected whole, with its position,
// never cut short or left to a later stoll.
TEST(ParserTest, BadNumbersAreParseErrors) {
  for (const char* sql :
       {"SELECT * FROM R1 WHERE price = 1.2.3",
        "SELECT * FROM R1 WHERE price = 99999999999999999999",
        "SELECT * FROM R1 WHERE price = 12abc",
        "SELECT * FROM R1 WHERE price = 1e",
        "SELECT * FROM R1 WHERE price = 1e999",
        "INSERT INTO V VALUES (1.2.3, 1)",
        "INSERT INTO V VALUES (1, 99999999999999999999)"}) {
    try {
      ParseSql(sql);
      ADD_FAILURE() << "parsed: " << sql;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("position"), std::string::npos)
          << e.what();
    }
  }
  try {
    ParseSql("SELECT * FROM R1 WHERE price = 1.2.3");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("position 31: malformed number "
                                         "'1.2.3'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParserTest, ToSqlRoundTripsEscapedStrings) {
  ParsedQuery q = ParseSql("SELECT * FROM R WHERE a = 'x''y'");
  EXPECT_EQ(ParseSql(ToSql(q)).where[0].rhs_const.as_string(), "x'y");
}

// --- writes and transactions ------------------------------------------------

TEST(ParserTest, InsertWithEveryLiteralKind) {
  ParsedQuery q = ParseSql("INSERT INTO V VALUES (1, 2.5, 'a''b', NULL);");
  EXPECT_EQ(q.kind, StmtKind::kInsert);
  EXPECT_EQ(q.target, "V");
  ASSERT_EQ(q.values.size(), 4u);
  EXPECT_EQ(q.values[0].as_int(), 1);
  EXPECT_EQ(q.values[1].as_double(), 2.5);
  EXPECT_EQ(q.values[2].as_string(), "a'b");
  EXPECT_TRUE(q.values[3].is_null());
}

TEST(ParserTest, DeleteWithLowerCaseKeywords) {
  ParsedQuery q = ParseSql("delete from V values (7, 8)");
  EXPECT_EQ(q.kind, StmtKind::kDelete);
  EXPECT_EQ(q.target, "V");
  ASSERT_EQ(q.values.size(), 2u);
  EXPECT_EQ(q.values[1].as_int(), 8);
}

TEST(ParserTest, TransactionStatementsAndNonWrites) {
  EXPECT_EQ(ParseSql("BEGIN").kind, StmtKind::kBegin);
  EXPECT_EQ(ParseSql("begin;").kind, StmtKind::kBegin);
  EXPECT_EQ(ParseSql("commit").kind, StmtKind::kCommit);
  EXPECT_EQ(ParseSql("ROLLBACK").kind, StmtKind::kRollback);
  EXPECT_EQ(ParseSql("SELECT va FROM V").kind, StmtKind::kSelect);
  EXPECT_THROW(ParseSql("BEGIN now"), std::invalid_argument);
}

TEST(ParserTest, MalformedWritesAreParseErrors) {
  EXPECT_THROW(ParseSql("INSERT INTO V"), std::invalid_argument);
  EXPECT_THROW(ParseSql("INSERT INTO V VALUES (1"), std::invalid_argument);
  EXPECT_THROW(ParseSql("INSERT INTO V VALUES (1) trailing"),
               std::invalid_argument);
  EXPECT_THROW(ParseSql("INSERT INTO V VALUES ()"), std::invalid_argument);
  EXPECT_THROW(ParseSql("INSERT INTO V VALUES (x)"), std::invalid_argument);
  EXPECT_THROW(ParseSql("DELETE V VALUES (1)"), std::invalid_argument);
}

}  // namespace
}  // namespace fdb
