#include "fdb/engine/fdb_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "fdb/core/build.h"
#include "fdb/engine/rdb_engine.h"
#include "fdb/obs/metrics.h"
#include "fdb/obs/trace.h"
#include "fdb/query/parser.h"
#include "fdb/relational/rdb_ops.h"
#include "fdb/workload/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;
using testing::SameBag;

// Runs the same SQL through both engines and expects identical output
// relations (bag-equal; FDB's order, if any, is checked separately).
void ExpectEnginesAgree(Pizzeria& p, const std::string& sql,
                        const FdbOptions& fopt = {},
                        const RdbOptions& ropt = {}) {
  FdbEngine fdb(p.db.get());
  RdbEngine rdb(p.db.get());
  FdbResult fr = fdb.ExecuteSql(sql, fopt);
  RdbResult rr = rdb.ExecuteSql(sql, ropt);
  EXPECT_TRUE(SameBag(fr.flat, rr.flat, p.db->registry())) << sql;
}

TEST(EngineTest, RevenuePerCustomerOnView) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, sum(price) AS revenue FROM R GROUP BY customer");
  ASSERT_EQ(r.flat.size(), 3);
  EXPECT_EQ(r.flat.rows()[0][0].as_string(), "Lucia");
  EXPECT_EQ(r.flat.rows()[0][1].as_int(), 9);
  EXPECT_EQ(r.flat.rows()[1][1].as_int(), 22);
  EXPECT_EQ(r.flat.rows()[2][1].as_int(), 9);
}

TEST(EngineTest, EnginesAgreeOnAggregates) {
  Pizzeria p = MakePizzeria();
  ExpectEnginesAgree(p,
                     "SELECT pizza, date, customer, sum(price) FROM R "
                     "GROUP BY pizza, date, customer");
  ExpectEnginesAgree(p, "SELECT customer, sum(price) FROM R GROUP BY "
                        "customer");
  ExpectEnginesAgree(p, "SELECT date, pizza, sum(price) FROM R GROUP BY "
                        "date, pizza");
  ExpectEnginesAgree(p, "SELECT pizza, sum(price) FROM R GROUP BY pizza");
  ExpectEnginesAgree(p, "SELECT sum(price) FROM R");
}

TEST(EngineTest, EnginesAgreeOnFlatInputJoin) {
  Pizzeria p = MakePizzeria();
  ExpectEnginesAgree(
      p, "SELECT customer, sum(price) FROM Orders, Pizzas, Items "
         "GROUP BY customer");
}

TEST(EngineTest, CountMinMaxAvg) {
  Pizzeria p = MakePizzeria();
  ExpectEnginesAgree(p, "SELECT pizza, count(*) FROM R GROUP BY pizza");
  ExpectEnginesAgree(p, "SELECT pizza, min(price), max(price) FROM R "
                        "GROUP BY pizza");
  ExpectEnginesAgree(p, "SELECT customer, avg(price) FROM R GROUP BY "
                        "customer");
  ExpectEnginesAgree(p, "SELECT count(*) FROM R");
  ExpectEnginesAgree(p, "SELECT min(customer) FROM R");
}

TEST(EngineTest, OrderByGroupColumn) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, sum(price) AS revenue FROM R GROUP BY customer "
      "ORDER BY customer DESC");
  ASSERT_EQ(r.flat.size(), 3);
  EXPECT_EQ(r.flat.rows()[0][0].as_string(), "Pietro");
  EXPECT_EQ(r.flat.rows()[2][0].as_string(), "Lucia");
  ExpectEnginesAgree(p,
                     "SELECT customer, sum(price) AS revenue FROM R GROUP "
                     "BY customer ORDER BY customer DESC");
}

TEST(EngineTest, OrderByAggregateAlias) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, sum(price) AS revenue FROM R GROUP BY customer "
      "ORDER BY revenue DESC, customer");
  ASSERT_EQ(r.flat.size(), 3);
  EXPECT_EQ(r.flat.rows()[0][1].as_int(), 22);   // Mario first
  EXPECT_EQ(r.flat.rows()[1][0].as_string(), "Lucia");  // tie broken by name
  EXPECT_EQ(r.flat.rows()[2][0].as_string(), "Pietro");
}

TEST(EngineTest, ConstantSelections) {
  Pizzeria p = MakePizzeria();
  ExpectEnginesAgree(p,
                     "SELECT customer, sum(price) FROM R WHERE price > 1 "
                     "GROUP BY customer");
  ExpectEnginesAgree(p,
                     "SELECT pizza, count(*) FROM R WHERE customer = "
                     "'Mario' GROUP BY pizza");
  ExpectEnginesAgree(p, "SELECT * FROM R WHERE pizza = 'Hawaii'");
}

TEST(EngineTest, EqualitySelectionAcrossBranches) {
  Pizzeria p = MakePizzeria();
  // Joins date with item: empty on this data but must not crash either
  // engine and must agree.
  ExpectEnginesAgree(p, "SELECT * FROM R WHERE date = item");
}

TEST(EngineTest, SelectStarAndProjection) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbResult all = fdb.ExecuteSql("SELECT * FROM R");
  EXPECT_EQ(all.flat.size(), 13);
  // Plain projections have set semantics in both engines.
  ExpectEnginesAgree(p, "SELECT customer FROM R");
  ExpectEnginesAgree(p, "SELECT DISTINCT pizza, item FROM R");
}

TEST(EngineTest, HavingFiltersGroups) {
  Pizzeria p = MakePizzeria();
  ExpectEnginesAgree(p,
                     "SELECT customer, sum(price) AS revenue FROM R GROUP "
                     "BY customer HAVING revenue > 10");
  FdbEngine fdb(p.db.get());
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, sum(price) AS revenue FROM R GROUP BY customer "
      "HAVING revenue > 10");
  ASSERT_EQ(r.flat.size(), 1);
  EXPECT_EQ(r.flat.rows()[0][0].as_string(), "Mario");
}

// Grouped rows stream through one output stage (HAVING, avg, SELECT
// order) under the enumeration's LIMIT, which counts the rows HAVING
// keeps: ordered on a group column, the enumeration stops at the k-th
// kept group. Every RDB grouping strategy must give the same rows in the
// same order.
TEST(EngineTest, HavingAvgAndLimitAgreeWithEveryRdbGrouping) {
  Pizzeria p = MakePizzeria();
  RdbOptions sort, hash, eager;
  hash.grouping = RdbOptions::Grouping::kHash;
  eager.eager = true;
  const std::vector<std::string> queries = {
      // HAVING drops the first group in order (Margherita, count 1).
      "SELECT pizza, count(*) AS c FROM R GROUP BY pizza HAVING c > 1 "
      "ORDER BY pizza DESC LIMIT 1",
      // HAVING drops the middle group (Mario, revenue 22).
      "SELECT customer, sum(price) AS revenue FROM R GROUP BY customer "
      "HAVING revenue < 20 ORDER BY customer LIMIT 2",
      "SELECT customer, avg(price) AS ap FROM R GROUP BY customer "
      "HAVING avg(price) > 3 ORDER BY customer",
      "SELECT DISTINCT pizza, item FROM R ORDER BY pizza DESC, item LIMIT 4",
      // An aggregate alias order whose LIMIT cuts inside five tied counts
      // (SELECT leaves the group columns out, so the tied rows are equal).
      "SELECT count(*) AS c FROM R GROUP BY date, item ORDER BY c LIMIT 3",
      // An AVG alias is no task column, yet must order the result too.
      "SELECT customer, avg(price) AS ap FROM R GROUP BY customer "
      "ORDER BY ap DESC, customer LIMIT 2",
  };
  FdbEngine fdb(p.db.get());
  RdbEngine rdb(p.db.get());
  for (const std::string& sql : queries) {
    for (const RdbOptions* ropt : {&sort, &hash, &eager}) {
      ExpectEnginesAgree(p, sql, {}, *ropt);
      Relation f = fdb.ExecuteSql(sql).flat;
      Relation r = rdb.ExecuteSql(sql, *ropt).flat;
      EXPECT_EQ(f.schema().attrs(), r.schema().attrs()) << sql;
      EXPECT_EQ(f.rows(), r.rows()) << sql;
    }
  }
  EXPECT_EQ(fdb.ExecuteSql(queries[0]).flat.rows(),
            (std::vector<Tuple>{{Value("Hawaii"), Value(int64_t{6})}}));
  EXPECT_EQ(fdb.ExecuteSql(queries[1]).flat.size(), 2);
  EXPECT_EQ(fdb.ExecuteSql(queries[2]).flat.size(), 1);
  EXPECT_EQ(fdb.ExecuteSql(queries[3]).flat.size(), 4);
  EXPECT_EQ(fdb.ExecuteSql(queries[4]).flat.rows(),
            (std::vector<Tuple>(3, {Value(int64_t{1})})));
  Relation ap = fdb.ExecuteSql(queries[5]).flat;
  ASSERT_EQ(ap.size(), 2);
  EXPECT_EQ(ap.rows()[0][0], Value("Mario"));
  EXPECT_EQ(ap.rows()[1][0], Value("Lucia"));
}

// Ordered results over the generated workload equal every RDB grouping's
// as a bag, and in order on the ORDER BY columns (rows that tie on them
// may come in any order).
TEST(EngineTest, OrderedResultsAgreeWithEveryRdbGrouping) {
  Database db;
  InstallWorkload(&db, SmallParams(1));
  RdbOptions sort, hash, eager;
  hash.grouping = RdbOptions::Grouping::kHash;
  eager.eager = true;
  const std::vector<std::string> queries = {
      // Tied counts (customers with 72 orders each) within the LIMIT.
      "SELECT count(*) AS c FROM R1 GROUP BY customer ORDER BY c LIMIT 8",
      // item = date makes one node of both keys; the first key on it
      // sets its direction.
      "SELECT * FROM R1 WHERE item = date ORDER BY item ASC, date DESC",
      "SELECT * FROM R1 WHERE item = date ORDER BY item ASC, date DESC "
      "LIMIT 3",
      "SELECT * FROM R1 WHERE item = date ORDER BY item DESC, date ASC",
  };
  FdbEngine fdb(&db);
  RdbEngine rdb(&db);
  for (const std::string& sql : queries) {
    std::vector<AttrId> keys;
    for (const SortKey& k : Bind(ParseSql(sql), &db).order_by) {
      keys.push_back(k.attr);
    }
    Relation f = fdb.ExecuteSql(sql).flat;
    EXPECT_GT(f.size(), 1) << sql;
    for (const RdbOptions* ropt : {&sort, &hash, &eager}) {
      Relation r = rdb.ExecuteSql(sql, *ropt).flat;
      EXPECT_TRUE(SameBag(f, r, db.registry())) << sql;
      EXPECT_EQ(Project(f, keys, /*dedup=*/false).rows(),
                Project(r, keys, /*dedup=*/false).rows())
          << sql;
    }
  }
}

TEST(EngineTest, LimitOnOrderedEnumeration) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbResult r = fdb.ExecuteSql("SELECT * FROM R ORDER BY pizza LIMIT 3");
  EXPECT_EQ(r.flat.size(), 3);
  ExpectEnginesAgree(p, "SELECT * FROM R ORDER BY pizza, date, customer, "
                        "item, price LIMIT 3");
}

TEST(EngineTest, OrderedEnumerationIsSorted) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbResult r = fdb.ExecuteSql(
      "SELECT * FROM R ORDER BY customer, pizza DESC");
  EXPECT_TRUE(r.flat.IsSortedBy({{p.attr("customer"), SortDir::kAsc},
                                 {p.attr("pizza"), SortDir::kDesc}}));
  EXPECT_EQ(r.flat.size(), 13);
}

TEST(EngineTest, FactorisedOutputModeReportsSingletons) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbOptions opt;
  opt.factorised_output = true;
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, sum(price) FROM R GROUP BY customer", opt);
  ASSERT_TRUE(r.factorised.has_value());
  EXPECT_GT(r.result_singletons, 0);
  EXPECT_LT(r.result_singletons, 26);
  EXPECT_TRUE(r.factorised->Validate());
}

TEST(EngineTest, ExhaustivePlannerAgreesWithGreedy) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbOptions ex;
  ex.planner = FdbOptions::Planner::kExhaustive;
  FdbResult greedy = fdb.ExecuteSql(
      "SELECT customer, sum(price) FROM R GROUP BY customer");
  FdbResult exhaustive = fdb.ExecuteSql(
      "SELECT customer, sum(price) FROM R GROUP BY customer", ex);
  EXPECT_TRUE(exhaustive.used_exhaustive);
  EXPECT_TRUE(
      SameBag(greedy.flat, exhaustive.flat, p.db->registry()));
}

TEST(EngineTest, RdbHashAndSortGroupingAgree) {
  Pizzeria p = MakePizzeria();
  RdbEngine rdb(p.db.get());
  RdbOptions hash;
  hash.grouping = RdbOptions::Grouping::kHash;
  RdbResult rs = rdb.ExecuteSql(
      "SELECT pizza, sum(price) FROM R GROUP BY pizza");
  RdbResult rh = rdb.ExecuteSql(
      "SELECT pizza, sum(price) FROM R GROUP BY pizza", hash);
  EXPECT_TRUE(SameBag(rs.flat, rh.flat, p.db->registry()));
}

TEST(EngineTest, RdbEagerPlanAgrees) {
  Pizzeria p = MakePizzeria();
  RdbEngine rdb(p.db.get());
  RdbOptions eager;
  eager.eager = true;
  RdbResult naive = rdb.ExecuteSql(
      "SELECT customer, sum(price) FROM Orders, Pizzas, Items GROUP BY "
      "customer");
  RdbResult opt = rdb.ExecuteSql(
      "SELECT customer, sum(price) FROM Orders, Pizzas, Items GROUP BY "
      "customer",
      eager);
  EXPECT_TRUE(SameBag(naive.flat, opt.flat, p.db->registry()));
}

TEST(EngineTest, EmptyResultQueries) {
  Pizzeria p = MakePizzeria();
  ExpectEnginesAgree(p,
                     "SELECT customer, sum(price) FROM R WHERE price > 100 "
                     "GROUP BY customer");
  ExpectEnginesAgree(p, "SELECT count(*) FROM R WHERE price > 100");
}

TEST(EngineTest, UnknownRelationThrows) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  EXPECT_THROW(fdb.ExecuteSql("SELECT * FROM Nope"), std::invalid_argument);
}

TEST(EngineTest, ViewJoinedWithRelationThrows) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  EXPECT_THROW(fdb.ExecuteSql("SELECT * FROM R, Orders"),
               std::invalid_argument);
}

TEST(EngineTest, StatsArePopulatedOnTracedRuns) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  obs::Trace trace;
  FdbOptions opt;
  opt.trace = &trace;
  FdbResult r = fdb.ExecuteSql(
      "SELECT customer, sum(price) FROM R GROUP BY customer", opt);
  EXPECT_FALSE(r.plan.empty());
  EXPECT_EQ(r.op_stats.size(), r.plan.size());
  EXPECT_GE(r.plan_seconds, 0.0);
  EXPECT_GT(r.result_singletons, 0);
  // Without a trace, the walk is skipped entirely.
  FdbResult quiet = fdb.ExecuteSql(
      "SELECT customer, sum(price) FROM R GROUP BY customer");
  EXPECT_TRUE(quiet.op_stats.empty());
}

// EXPLAIN ANALYZE golden shape: the trace exists, the report names every
// phase in order, carries the factorisation size stats, and the query
// itself still executes and returns its rows.
TEST(EngineTest, ExplainAnalyzeShape) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  FdbResult r = fdb.ExecuteSql(
      "EXPLAIN ANALYZE SELECT customer, sum(price) AS revenue FROM R "
      "GROUP BY customer");
  ASSERT_NE(r.trace, nullptr);
  ASSERT_EQ(r.flat.size(), 3);  // the query ran, not just the explain

  std::string report = obs::ExplainReport(*r.trace);
  // Phases appear in execution order.
  std::vector<std::string> phases = {"parse",    "bind", "input",
                                     "footprint", "optimise", "ops",
                                     "aggregate"};
  size_t pos = 0;
  for (const std::string& phase : phases) {
    size_t at = report.find(phase + ":", pos);
    ASSERT_NE(at, std::string::npos) << "missing phase '" << phase
                                     << "' in:\n" << report;
    pos = at;
  }
  // Factorisation stats on the footprint span (the paper's size gap).
  EXPECT_NE(report.find("unions="), std::string::npos) << report;
  EXPECT_NE(report.find("singletons="), std::string::npos) << report;
  EXPECT_NE(report.find("flat_values="), std::string::npos) << report;
  EXPECT_NE(report.find("compression="), std::string::npos) << report;
  EXPECT_NE(report.find("rows=3"), std::string::npos) << report;
  EXPECT_NE(report.find("cached_ops="), std::string::npos) << report;
  // Per-op child spans were reconstructed from the operator stats.
  EXPECT_EQ(r.op_stats.size(), r.plan.size());

  // The Chrome exporter emits a well-formed trace-event envelope.
  std::string chrome = r.trace->ToChromeJson();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);

  // Plain queries carry no trace.
  FdbResult quiet = fdb.ExecuteSql(
      "SELECT customer, sum(price) FROM R GROUP BY customer");
  EXPECT_EQ(quiet.trace, nullptr);
}

TEST(EngineTest, ExplainAnalyzeRdb) {
  Pizzeria p = MakePizzeria();
  RdbEngine rdb(p.db.get());
  RdbResult r = rdb.ExecuteSql(
      "EXPLAIN ANALYZE SELECT customer, sum(price) FROM R GROUP BY "
      "customer");
  ASSERT_NE(r.trace, nullptr);
  EXPECT_EQ(r.flat.size(), 3);
  std::string report = obs::ExplainReport(*r.trace);
  EXPECT_NE(report.find("materialise-inputs:"), std::string::npos) << report;
  EXPECT_NE(report.find("join:"), std::string::npos) << report;
  EXPECT_NE(report.find("aggregate:"), std::string::npos) << report;
}


// --- f-plan prefix cache --------------------------------------------------

// The §6 aggregate queries Q1-Q9 over view R1: Figure 3's group-bys and
// their ordered variants.
const std::vector<std::string>& AggQueries() {
  static const std::vector<std::string> q = {
      "SELECT package, date, customer, sum(price) FROM R1 "
      "GROUP BY package, date, customer",
      "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY customer",
      "SELECT date, package, sum(price) FROM R1 GROUP BY date, package",
      "SELECT package, sum(price) FROM R1 GROUP BY package",
      "SELECT sum(price) FROM R1",
      "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY customer "
      "ORDER BY customer",
      "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY customer "
      "ORDER BY revenue",
      "SELECT date, package, sum(price) AS s FROM R1 GROUP BY date, "
      "package ORDER BY date, package",
      "SELECT date, package, sum(price) AS s FROM R1 GROUP BY date, "
      "package ORDER BY package, date",
  };
  return q;
}

// Turns metrics on for one test: the cache's counters only count then.
class MetricsOn {
 public:
  MetricsOn() : was_(obs::MetricsEnabled()) { obs::SetMetricsEnabled(true); }
  ~MetricsOn() { obs::SetMetricsEnabled(was_); }

 private:
  bool was_;
};

uint64_t Count(const char* name) {
  return obs::Registry::Instance().GetCounter(name).Value();
}

size_t CachedOps(const FdbResult& r) {
  size_t n = 0;
  for (const FOpStats& s : r.op_stats) n += s.cached ? 1 : 0;
  return n;
}

// Runs `sql` on FDB (traced, for per-op stats) and expects RDB's answer.
FdbResult RunAgainstRdb(Database* db, const std::string& sql) {
  obs::Trace trace;
  FdbOptions opt;
  opt.trace = &trace;
  FdbResult fr = FdbEngine(db).ExecuteSql(sql, opt);
  RdbResult rr = RdbEngine(db).ExecuteSql(sql);
  EXPECT_TRUE(SameBag(fr.flat, rr.flat, db->registry())) << sql;
  EXPECT_EQ(fr.op_stats.size(), fr.plan.size()) << sql;
  return fr;
}

TEST(PrefixCacheTest, EveryAggregateQueryMatchesRdbColdAndCached) {
  MetricsOn metrics;
  Database db;
  InstallWorkload(&db, SmallParams(1));
  size_t multi_op = 0;
  for (const std::string& sql : AggQueries()) {
    uint64_t hits = Count("engine.prefix_cache.hits");
    FdbResult cold = RunAgainstRdb(&db, sql);
    FdbResult warm = RunAgainstRdb(&db, sql);
    // The same rows in the same order, from the same plan.
    EXPECT_EQ(warm.flat.rows(), cold.flat.rows()) << sql;
    ASSERT_EQ(warm.plan.size(), cold.plan.size()) << sql;
    // A first run may already resume from another query's prefix (Q8 and
    // Q9 restructure R1 as Q3 does); the second resumes from its own.
    if (cold.plan.size() < 2) {
      EXPECT_EQ(CachedOps(warm), 0u) << sql;  // no proper prefix to cache
      continue;
    }
    ++multi_op;
    // Everything but the final op came from the cache.
    EXPECT_EQ(CachedOps(warm), warm.plan.size() - 1) << sql;
    EXPECT_FALSE(warm.op_stats.back().cached) << sql;
    EXPECT_GT(Count("engine.prefix_cache.hits"), hits) << sql;
  }
  EXPECT_GE(multi_op, 3u);  // Q2, Q6 and Q7 restructure R1 at least
  EXPECT_GT(db.prefix_cache().size(), 0u);
  EXPECT_LE(db.prefix_cache().bytes(), PrefixCache::kBudgetBytes);
}

TEST(PrefixCacheTest, PublishingAVersionMissesAndReadsTheNewContents) {
  MetricsOn metrics;
  Database db;
  InstallWorkload(&db, SmallParams(1));
  const std::string& q2 = AggQueries()[1];
  RunAgainstRdb(&db, q2);
  FdbResult warm = RunAgainstRdb(&db, q2);
  ASSERT_GT(CachedOps(warm), 0u);

  // Republish R1 without half of Orders.
  const Relation& orders = *db.relation("Orders");
  Relation half(orders.schema());
  for (int64_t i = 0; i < orders.size(); i += 2) half.Add(orders.rows()[i]);
  Factorisation next = FactoriseJoin(
      db.view("R1")->tree(),
      {&half, db.relation("Packages"), db.relation("Items")});
  db.AddView("R1", std::move(next));
  EXPECT_EQ(db.prefix_cache().size(), 0u);  // the old version's entries

  uint64_t misses = Count("engine.prefix_cache.misses");
  FdbResult fresh = RunAgainstRdb(&db, q2);
  EXPECT_EQ(CachedOps(fresh), 0u);
  EXPECT_GT(Count("engine.prefix_cache.misses"), misses);
  EXPECT_FALSE(SameBag(fresh.flat, warm.flat, db.registry()));
  // The new version is cached in turn.
  EXPECT_GT(CachedOps(RunAgainstRdb(&db, q2)), 0u);
}

TEST(PrefixCacheTest, ForcedEvictionKeepsAnswersRight) {
  MetricsOn metrics;
  // How much the queries cache with room to spare.
  int64_t full = 0;
  {
    Database db;
    InstallWorkload(&db, SmallParams(1));
    for (const std::string& sql : AggQueries()) RunAgainstRdb(&db, sql);
    full = db.prefix_cache().bytes();
    ASSERT_GT(db.prefix_cache().size(), 1u);
  }
  Database db(/*prefix_cache_bytes=*/full / 2);
  InstallWorkload(&db, SmallParams(1));
  uint64_t evictions = Count("engine.prefix_cache.evictions");
  for (int round = 0; round < 2; ++round) {
    for (const std::string& sql : AggQueries()) {
      RunAgainstRdb(&db, sql);
      EXPECT_LE(db.prefix_cache().bytes(), full / 2);
    }
  }
  EXPECT_GT(Count("engine.prefix_cache.evictions"), evictions);
}

TEST(PrefixCacheTest, CopiedDatabaseStartsEmpty) {
  Database db;
  InstallWorkload(&db, SmallParams(1));
  RunAgainstRdb(&db, AggQueries()[1]);
  ASSERT_GT(db.prefix_cache().size(), 0u);
  Database copy(db);
  EXPECT_EQ(copy.prefix_cache().size(), 0u);
  EXPECT_GT(CachedOps(RunAgainstRdb(&db, AggQueries()[1])), 0u);
  EXPECT_EQ(CachedOps(RunAgainstRdb(&copy, AggQueries()[1])), 0u);
}

TEST(PrefixCacheTest, KeyIsViewVersionAndProperPrefix) {
  Pizzeria p = MakePizzeria();
  auto v1 = std::make_shared<const Factorisation>(p.view());
  auto v2 = std::make_shared<const Factorisation>(p.view());
  FPlan plan = {FOp::Swap(1), FOp::Swap(2)};
  PrefixCache cache;
  cache.Insert("R", v1, plan, 1, *v1);
  cache.Insert("R", v1, plan, 2, *v1);  // the whole plan: never cached
  EXPECT_EQ(cache.size(), 1u);

  Factorisation f;
  EXPECT_EQ(cache.Restore("R", v1, plan, &f), 1u);
  EXPECT_EQ(f.roots(), v1->roots());
  EXPECT_EQ(cache.Restore("R", v2, plan, &f), 0u);  // an equal, other version
  EXPECT_EQ(cache.Restore("S", v1, plan, &f), 0u);
  EXPECT_EQ(cache.Restore("R", v1, {FOp::Swap(2), FOp::Swap(2)}, &f), 0u);
  EXPECT_EQ(cache.Restore("R", v1, {FOp::Swap(1)}, &f), 0u);
  EXPECT_EQ(cache.Restore("R", v1, {FOp::Swap(1), FOp::Swap(3), FOp::Swap(4)},
                          &f),
            1u);

  // Publishing v2 drops v1's entries and refuses new ones for it.
  cache.Publish("R", v2.get());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0);
  cache.Insert("R", v1, plan, 1, *v1);
  EXPECT_EQ(cache.size(), 0u);
  cache.Insert("R", v2, plan, 1, *v2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PrefixCacheTest, OpEqualityIsStructural) {
  AttrId price = 7;
  EXPECT_EQ(FOp::Swap(2), FOp::Swap(2));
  EXPECT_FALSE(FOp::Swap(2) == FOp::Swap(3));
  EXPECT_FALSE(FOp::Merge(1, 2) == FOp::Absorb(1, 2));
  EXPECT_EQ(FOp::Select(1, CmpOp::kLt, Value(int64_t{3})),
            FOp::Select(1, CmpOp::kLt, Value(int64_t{3})));
  EXPECT_FALSE(FOp::Select(1, CmpOp::kLt, Value(int64_t{3})) ==
               FOp::Select(1, CmpOp::kLe, Value(int64_t{3})));
  EXPECT_FALSE(FOp::Select(1, CmpOp::kLt, Value(int64_t{3})) ==
               FOp::Select(1, CmpOp::kLt, Value(3.0)));
  EXPECT_EQ(FOp::Aggregate(0, {{AggFn::kSum, price}}),
            FOp::Aggregate(0, {{AggFn::kSum, price}}));
  EXPECT_FALSE(FOp::Aggregate(0, {{AggFn::kSum, price}}) ==
               FOp::Aggregate(0, {{AggFn::kMax, price}}));
  EXPECT_FALSE(FOp::Rename(0, "a") == FOp::Rename(0, "b"));
}

// --- sorted-input memo ----------------------------------------------------

// The §6 aggregate queries Q1-Q5 over the flat join, as the flat_join
// workload runs them: every statement factorises its input first.
std::vector<std::string> FlatJoinQueries() {
  std::vector<std::string> q;
  for (size_t i = 0; i < 5; ++i) {
    std::string sql = AggQueries()[i];
    sql.replace(sql.find("FROM R1"), 7, "FROM Orders, Packages, Items");
    q.push_back(sql);
  }
  return q;
}

TEST(SortedInputMemoEngineTest, ExplainAnalyzeNotesReusedInputs) {
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  const std::string sql =
      "EXPLAIN ANALYZE SELECT customer, sum(price) FROM Orders, Pizzas, "
      "Items GROUP BY customer";
  fdb.ExecuteSql(sql);
  FdbResult r = fdb.ExecuteSql(sql);
  ASSERT_NE(r.trace, nullptr);
  std::string report = obs::ExplainReport(*r.trace);
  EXPECT_NE(report.find("sorted_reused=3"), std::string::npos) << report;
  // A view's input is never built, so its span carries no such note.
  FdbResult v = fdb.ExecuteSql(
      "EXPLAIN ANALYZE SELECT customer, sum(price) FROM R GROUP BY customer");
  EXPECT_EQ(obs::ExplainReport(*v.trace).find("sorted_reused"),
            std::string::npos);
}

TEST(SortedInputMemoEngineTest, ReplacedRelationIsSeen) {
  MetricsOn metrics;
  Pizzeria p = MakePizzeria();
  const std::string sql =
      "SELECT customer, sum(price) FROM Orders, Pizzas, Items GROUP BY "
      "customer";
  FdbResult before = RunAgainstRdb(p.db.get(), sql);
  // Same name, same schema, different prices.
  const Relation* items = p.db->relation("Items");
  Relation doubled{items->schema()};
  for (const Tuple& t : items->rows()) {
    doubled.Add({t[0], Value(t[1].as_int() * 2)});
  }
  p.db->AddRelation("Items", std::move(doubled));
  EXPECT_EQ(p.db->relation("Items")->num_sorted_inputs(), 0u);
  uint64_t hits = Count("build.sorted_inputs.hits");
  FdbResult after = RunAgainstRdb(p.db.get(), sql);
  EXPECT_EQ(Count("build.sorted_inputs.hits") - hits, 2u);  // Orders, Pizzas
  EXPECT_FALSE(after.flat.BagEquals(before.flat));
}

TEST(SortedInputMemoEngineTest, OutOfOrderInternBetweenBuildsKeepsAnswers) {
  MetricsOn metrics;
  Database db;
  AttrId k = db.Attr("ooo_k"), v = db.Attr("ooo_v"), w = db.Attr("ooo_w");
  Relation r{RelSchema({k, v})};
  Relation s{RelSchema({k, w})};
  for (int64_t i = 0; i < 20; ++i) {
    std::string key = "ooo_key" + std::to_string(10 + 2 * i);  // even keys
    r.Add({Value(key), Value(i)});
    s.Add({Value(key), Value(i % 3)});
  }
  db.AddRelation("R", std::move(r));
  db.AddRelation("S", std::move(s));
  const std::string sql =
      "SELECT ooo_k, sum(ooo_v) AS t FROM R, S GROUP BY ooo_k ORDER BY ooo_k";
  RunAgainstRdb(&db, sql);  // sorts R and S into their memos
  ASSERT_EQ(db.relation("R")->num_sorted_inputs(), 1u);

  // An odd key sorts between R's cached values: interning it shifts the
  // ranks of every larger cached string.
  ValueDict& dict = ValueDict::Default();
  uint32_t code = *dict.Find("ooo_key30");
  uint32_t rank = dict.rank(code);
  dict.Intern("ooo_key29");
  ASSERT_GT(dict.rank(code), rank);
  Relation s2 = *db.relation("S");
  s2.Add({Value("ooo_key29"), Value(int64_t{7})});
  s2.Add({Value("ooo_key30"), Value(int64_t{8})});
  db.AddRelation("S", std::move(s2));

  uint64_t hits = Count("build.sorted_inputs.hits");
  FdbResult fr = RunAgainstRdb(&db, sql);  // R from its memo, S afresh
  EXPECT_EQ(Count("build.sorted_inputs.hits") - hits, 1u);
  EXPECT_EQ(fr.flat.size(), 20);
}

TEST(SortedInputMemoEngineTest, SystemTableLeavesNoEntry) {
  MetricsOn metrics;
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  uint64_t hits = Count("build.sorted_inputs.hits");
  uint64_t misses = Count("build.sorted_inputs.misses");
  // fdb.statements materialises afresh per query: each build sorts it
  // again, and the entry dies with the table.
  for (int i = 0; i < 2; ++i) fdb.ExecuteSql("SELECT * FROM fdb.statements");
  EXPECT_EQ(Count("build.sorted_inputs.hits") - hits, 0u);
  EXPECT_EQ(Count("build.sorted_inputs.misses") - misses, 2u);
  EXPECT_EQ(p.db->SystemTable("fdb.statements")->num_sorted_inputs(), 0u);
}

TEST(SortedInputMemoEngineTest, AggregateAliasOrderOverAViewBuildsNothing) {
  MetricsOn metrics;
  Pizzeria p = MakePizzeria();
  uint64_t hits = Count("build.sorted_inputs.hits");
  uint64_t misses = Count("build.sorted_inputs.misses");
  // Sorting the aggregated result builds no factorisation.
  FdbResult r = FdbEngine(p.db.get())
                    .ExecuteSql("SELECT customer, sum(price) AS revenue FROM "
                                "R GROUP BY customer ORDER BY revenue DESC");
  EXPECT_EQ(r.flat.size(), 3);
  EXPECT_EQ(Count("build.sorted_inputs.hits") - hits, 0u);
  EXPECT_EQ(Count("build.sorted_inputs.misses") - misses, 0u);
}

TEST(SortedInputMemoEngineTest, ConcurrentColdFlatJoinsMatchRdb) {
  MetricsOn metrics;
  Database db;
  InstallWorkload(&db, SmallParams(1));
  const std::vector<std::string> names = {"Orders", "Packages", "Items"};
  // InstallWorkload's view build leaves memo entries; start cold.
  for (const std::string& name : names) {
    Relation fresh(db.relation(name)->schema(), db.relation(name)->rows());
    db.AddRelation(name, std::move(fresh));
    ASSERT_EQ(db.relation(name)->num_sorted_inputs(), 0u);
  }
  std::vector<std::string> sqls = FlatJoinQueries();
  std::vector<Relation> expected;
  for (const std::string& sql : sqls) {
    expected.push_back(RdbEngine(&db).ExecuteSql(sql).flat);
  }
  uint64_t hits = Count("build.sorted_inputs.hits");
  uint64_t misses = Count("build.sorted_inputs.misses");
  constexpr int kThreads = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < sqls.size(); ++i) {
        size_t q = (t + i) % sqls.size();
        FdbResult fr = FdbEngine(&db).ExecuteSql(sqls[q]);
        if (!fr.flat.BagEquals(expected[q])) ++wrong;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  uint64_t h = Count("build.sorted_inputs.hits") - hits;
  uint64_t m = Count("build.sorted_inputs.misses") - misses;
  EXPECT_EQ(h + m, kThreads * sqls.size() * names.size());
  EXPECT_GE(m, names.size());
  EXPECT_GT(h, 0u);
  for (const std::string& name : names) {
    EXPECT_GE(db.relation(name)->num_sorted_inputs(), 1u) << name;
  }
}

}  // namespace
}  // namespace fdb
