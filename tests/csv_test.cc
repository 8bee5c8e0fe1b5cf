#include "fdb/engine/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "test_util.h"

namespace fdb {
namespace {

TEST(CsvTest, ReadsHeaderAndTypedRows) {
  Database db;
  std::istringstream in(
      "customer,price,note\n"
      "1,2.5,hello\n"
      "2,3,world\n");
  Relation r = ReadCsv(in, &db);
  EXPECT_EQ(r.schema().arity(), 3);
  EXPECT_EQ(db.registry().Name(r.schema().attr(0)), "customer");
  ASSERT_EQ(r.size(), 2);
  EXPECT_TRUE(r.rows()[0][0].is_int());
  EXPECT_TRUE(r.rows()[0][1].is_double());
  EXPECT_DOUBLE_EQ(r.rows()[0][1].as_double(), 2.5);
  EXPECT_EQ(r.rows()[1][2].as_string(), "world");
}

TEST(CsvTest, TrimsWhitespaceAndSkipsBlankLines) {
  Database db;
  std::istringstream in("a, b\n 1 , x \n\n2,y\n");
  Relation r = ReadCsv(in, &db);
  ASSERT_EQ(r.size(), 2);
  EXPECT_EQ(r.rows()[0][0].as_int(), 1);
  EXPECT_EQ(r.rows()[0][1].as_string(), "x");
}

TEST(CsvTest, NullCells) {
  Database db;
  std::istringstream in("a,b\nNULL,1\n2,\n");
  Relation r = ReadCsv(in, &db);
  EXPECT_TRUE(r.rows()[0][0].is_null());
  EXPECT_TRUE(r.rows()[1][1].is_null());
}

TEST(CsvTest, NegativeAndLargeNumbers) {
  Database db;
  std::istringstream in("a\n-42\n123456789012\n-1.5\n");
  Relation r = ReadCsv(in, &db);
  EXPECT_EQ(r.rows()[0][0].as_int(), -42);
  EXPECT_EQ(r.rows()[1][0].as_int(), 123456789012LL);
  EXPECT_DOUBLE_EQ(r.rows()[2][0].as_double(), -1.5);
}

TEST(CsvTest, RaggedRowThrows) {
  Database db;
  std::istringstream in("a,b\n1\n");
  EXPECT_THROW(ReadCsv(in, &db), std::invalid_argument);
}

TEST(CsvTest, MissingHeaderThrows) {
  Database db;
  std::istringstream in("");
  EXPECT_THROW(ReadCsv(in, &db), std::invalid_argument);
}

TEST(CsvTest, RoundTripThroughWrite) {
  Database db;
  std::istringstream in("x,y\n1,foo\n2,bar\n");
  Relation r = ReadCsv(in, &db);
  std::ostringstream out;
  WriteCsv(r, db.registry(), out);
  std::istringstream back(out.str());
  Relation r2 = ReadCsv(back, &db);
  EXPECT_TRUE(r.BagEquals(r2));
}

TEST(CsvTest, FileRoundTrip) {
  Database db;
  std::istringstream in("k,v\n7,seven\n8,eight\n");
  Relation r = ReadCsv(in, &db);
  std::string path = testing::ProcessTempDir() + "/fdb_csv_test.csv";
  SaveCsvRelation(r, db.registry(), path);
  LoadCsvRelation(&db, "loaded", path);
  ASSERT_NE(db.relation("loaded"), nullptr);
  EXPECT_TRUE(db.relation("loaded")->BagEquals(r));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileThrows) {
  Database db;
  EXPECT_THROW(LoadCsvRelation(&db, "x", "/nonexistent/nope.csv"),
               std::invalid_argument);
}

}  // namespace
}  // namespace fdb
