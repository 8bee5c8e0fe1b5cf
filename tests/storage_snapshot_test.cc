#include "fdb/storage/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "fdb/core/build.h"
#include "fdb/core/ops/aggregate.h"
#include "fdb/core/ops/swap.h"
#include "fdb/core/stats.h"
#include "fdb/core/update.h"
#include "fdb/engine/csv.h"
#include "fdb/engine/database.h"
#include "fdb/workload/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;
using testing::Row;

std::string TempPath(const std::string& name) {
  return testing::ProcessTempDir() + "/" + name;
}

// Byte-identical flatten comparison: enumeration order is deterministic,
// so physical-representation changes (save/open, compaction) must not
// perturb the CSV dump at all.
std::string FlattenCsv(const Factorisation& f, const AttributeRegistry& reg) {
  std::ostringstream out;
  WriteCsv(f.Flatten(), reg, out);
  return out.str();
}

TEST(StorageSnapshotTest, PizzeriaRoundTripsThroughFile) {
  Pizzeria p = MakePizzeria();
  std::string expected = FlattenCsv(p.view(), p.db->registry());
  std::string path = TempPath("pizzeria.fdbs");
  p.db->Save(path);

  Database fresh = Database::Open(path);
  ASSERT_NE(fresh.view("R"), nullptr);
  EXPECT_EQ(fresh.view("R")->CountSingletons(), p.view().CountSingletons());
  EXPECT_EQ(fresh.view("R")->CountTuples(), p.view().CountTuples());
  EXPECT_TRUE(fresh.view("R")->Validate());
  EXPECT_EQ(FlattenCsv(*fresh.view("R"), fresh.registry()), expected);
  // Base relations decoded eagerly, including string cells.
  ASSERT_NE(fresh.relation("Orders"), nullptr);
  EXPECT_TRUE(fresh.relation("Orders")->BagEquals(*p.db->relation("Orders")));
  std::remove(path.c_str());
}

TEST(StorageSnapshotTest, Section6WorkloadRoundTripsByteIdentically) {
  Database db;
  InstallWorkload(&db, SmallParams(2), "R1");
  std::string expected = FlattenCsv(*db.view("R1"), db.registry());

  std::string bytes = storage::SerialiseDatabase(db);
  Database fresh = Database::OpenSnapshot(
      storage::SnapshotMapping::FromBuffer(bytes.data(), bytes.size()));
  EXPECT_EQ(fresh.ViewNames(), db.ViewNames());
  EXPECT_EQ(fresh.RelationNames(), db.RelationNames());
  ASSERT_NE(fresh.view("R1"), nullptr);
  EXPECT_EQ(FlattenCsv(*fresh.view("R1"), fresh.registry()), expected);
  for (const std::string& name : db.RelationNames()) {
    EXPECT_TRUE(fresh.relation(name)->BagEquals(*db.relation(name))) << name;
  }
}

TEST(StorageSnapshotTest, SwapDagSharingSurvives) {
  // The reader must restore a node reached twice as one node: the swap
  // operator makes such DAGs.
  Database db;
  Factorisation f = testing::MakeSwapDag(&db, "snap");
  int64_t stored = ComputeFootprint(f).singletons;
  db.AddView("V", std::move(f));

  std::string path = TempPath("dag.fdbs");
  db.Save(path);
  Database fresh = Database::Open(path);
  const Factorisation* v = fresh.view("V");
  ASSERT_NE(v, nullptr);
  // References, not copies: the stored size is unchanged.
  EXPECT_EQ(ComputeFootprint(*v).singletons, stored);
  EXPECT_EQ(v->CountSingletons(), 26);
  EXPECT_EQ(v->CountTuples(), 18);
  const FactNode* root = v->roots()[0];
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(root->child(0, 1, 0)->child(i, 1, 0),
              root->child(1, 1, 0)->child(i, 1, 0));
  }
  std::remove(path.c_str());
}

TEST(StorageSnapshotTest, BigIntsDoublesNullsAndStringsRoundTrip) {
  Database db;
  AttrId a = db.Attr("snap_mixed");
  FTree t;
  t.AddNode({a}, -1);
  int64_t big = (int64_t{1} << 50) + 7;
  Factorisation f(t, {MakeLeaf({Value(), Value(int64_t{-5}), Value(2.5),
                                Value(big), Value("snapshot str")})});
  db.AddView("V", std::move(f));

  std::string bytes = storage::SerialiseDatabase(db);
  Database fresh = Database::OpenSnapshot(
      storage::SnapshotMapping::FromBuffer(bytes.data(), bytes.size()));
  const Factorisation* g = fresh.view("V");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->roots()[0]->size(), 5);
  EXPECT_TRUE(g->roots()[0]->values[0].is_null());
  EXPECT_EQ(g->roots()[0]->values[1].as_int(), -5);
  EXPECT_DOUBLE_EQ(g->roots()[0]->values[2].as_double(), 2.5);
  EXPECT_EQ(g->roots()[0]->values[3].as_int(), big);
  EXPECT_EQ(g->roots()[0]->values[4].as_string(), "snapshot str");
}

TEST(StorageSnapshotTest, DictionaryRemapOnNonFreshDictionary) {
  // Force snapshot-local string ids (ranks) to disagree with live codes:
  // interning out of sorted order makes code != rank for these strings.
  ValueDict& dict = ValueDict::Default();
  dict.Encode(Value("zz remap"));
  dict.Encode(Value("aa remap"));
  Database db;
  AttrId a = db.Attr("snap_remap");
  FTree t;
  t.AddNode({a}, -1);
  Factorisation f(t, {MakeLeaf({Value("aa remap"), Value("mm remap"),
                                Value("zz remap")})});
  std::string expected = FlattenCsv(f, db.registry());
  db.AddView("V", std::move(f));

  std::string bytes = storage::SerialiseDatabase(db);
  Database fresh = Database::OpenSnapshot(
      storage::SnapshotMapping::FromBuffer(bytes.data(), bytes.size()));
  ASSERT_NE(fresh.view("V"), nullptr);
  EXPECT_EQ(FlattenCsv(*fresh.view("V"), fresh.registry()), expected);
}

TEST(StorageSnapshotTest, EmptyViewRoundTrips) {
  Database db;
  AttrId a = db.Attr("snap_empty");
  FTree t;
  t.AddNode({a}, -1);
  db.AddView("V", Factorisation(t, {MakeLeaf({})}));
  std::string bytes = storage::SerialiseDatabase(db);
  Database fresh = Database::OpenSnapshot(
      storage::SnapshotMapping::FromBuffer(bytes.data(), bytes.size()));
  ASSERT_NE(fresh.view("V"), nullptr);
  EXPECT_TRUE(fresh.view("V")->empty());
  EXPECT_EQ(fresh.view("V")->CountTuples(), 0);
}

TEST(StorageSnapshotTest, AggregateNodesRoundTrip) {
  // A view whose f-tree carries aggregate nodes keeps their labels.
  Pizzeria p = MakePizzeria();
  Factorisation f = p.view();
  ApplyAggregate(&f, &p.db->registry(), p.n_item,
                 {{AggFn::kSum, p.attr("price")},
                  {AggFn::kCount, kInvalidAttr}});
  ApplySwap(&f, p.n_date);
  p.db->AddView("Agg", std::move(f));
  std::string bytes = storage::SerialiseDatabase(*p.db);
  Database fresh = Database::OpenSnapshot(
      storage::SnapshotMapping::FromBuffer(bytes.data(), bytes.size()));
  const Factorisation* g = fresh.view("Agg");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->Validate());
  EXPECT_EQ(FlattenCsv(*g, fresh.registry()),
            FlattenCsv(*p.db->view("Agg"), p.db->registry()));
  // Aggregate semantics survive: the global sum is still computable.
  int root = g->tree().roots()[0];
  AggTask sum_price{AggFn::kSum, *fresh.registry().Find("price")};
  Value sum = ProductAggEvaluator(g->tree(), {root}, sum_price)
                  .Eval({{root, g->roots()[0]}});
  EXPECT_EQ(sum.as_int(), 40);
}

TEST(StorageSnapshotTest, OpsOnMappedViewsOutliveTheDatabase) {
  // Satellite: views opened from a snapshot share the mapping's lifetime
  // through their arena; factorisations derived from them adopt that
  // arena, so results stay valid after the Database (and the mapping's
  // other owners) are gone.
  std::string path = TempPath("lifetime.fdbs");
  {
    Database db;
    AttrId a = db.Attr("life_a"), b = db.Attr("life_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x = 0; x < 50; ++x) r.Add({Value(x), Value(x * 10)});
    db.AddView("P", FactoriseRelation(r, {a, b}));
    db.Save(path);
  }
  Factorisation derived;
  {
    Database opened = Database::Open(path);
    Factorisation copy = *opened.view("P");  // shares the mapped arena
    // The copy's arena is shared with the database's view, so the update
    // writes into a fresh arena that adopts the mapped one.
    testing::InsertOne(&copy, testing::Row({7, 777}));
    derived = std::move(copy);
  }  // Database destroyed; mapping kept alive only via the adopt chain
  EXPECT_EQ(derived.CountTuples(), 51);
  EXPECT_TRUE(ContainsTuple(derived, testing::Row({7, 777})));
  EXPECT_TRUE(ContainsTuple(derived, testing::Row({31, 310})));
  std::remove(path.c_str());
}

TEST(StorageSnapshotTest, UpdatesOnOpenedViewWork) {
  std::string path = TempPath("update.fdbs");
  {
    Database db;
    AttrId a = db.Attr("upd_a"), b = db.Attr("upd_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x = 0; x < 10; ++x) r.Add({Value(x), Value(x)});
    db.AddView("P", FactoriseRelation(r, {a, b}));
    db.Save(path);
  }
  Database opened = Database::Open(path);
  Factorisation v = *opened.view("P");
  EXPECT_TRUE(ContainsTuple(v, testing::Row({3, 3})));
  testing::DeleteOne(&v, testing::Row({3, 3}));
  testing::InsertOne(&v, testing::Row({100, 100}));
  EXPECT_EQ(v.CountTuples(), 10);
  EXPECT_FALSE(ContainsTuple(v, testing::Row({3, 3})));
  // The database's own copy of the view is untouched (persistent data).
  EXPECT_EQ(opened.view("P")->CountTuples(), 10);
  EXPECT_TRUE(ContainsTuple(*opened.view("P"), testing::Row({3, 3})));
  std::remove(path.c_str());
}

TEST(StorageSnapshotTest, AddViewShadowsSnapshotView) {
  std::string path = TempPath("shadow.fdbs");
  Database db;
  AttrId a = db.Attr("shadow_a");
  FTree t;
  t.AddNode({a}, -1);
  db.AddView("V", Factorisation(t, {MakeLeaf({Value(int64_t{1})})}));
  db.Save(path);

  Database fresh = Database::Open(path);
  FTree t2;
  t2.AddNode({fresh.Attr("shadow_a")}, -1);
  fresh.AddView("V", Factorisation(
                         t2, {MakeLeaf({Value(int64_t{1}), Value(int64_t{2})})}));
  EXPECT_EQ(fresh.view("V")->CountTuples(), 2);
  EXPECT_EQ(fresh.ViewNames(), std::vector<std::string>{"V"});
  std::remove(path.c_str());
}

TEST(StorageSnapshotTest, SaveOverOpenSnapshotLeavesMappingIntact) {
  // Save replaces the file via write-then-rename, so a database still
  // serving views from a mapping of the old file keeps reading the old
  // inode while a fresh open sees the new content.
  std::string path = TempPath("atomic.fdbs");
  {
    Database db;
    AttrId a = db.Attr("atom_a"), b = db.Attr("atom_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x = 0; x < 30; ++x) r.Add({Value(x), Value(x)});
    db.AddView("P", FactoriseRelation(r, {a, b}));
    db.Save(path);
  }
  Database opened = Database::Open(path);
  ASSERT_EQ(opened.view("P")->CountTuples(), 30);

  Factorisation grown = *opened.view("P");
  testing::InsertOne(&grown, testing::Row({100, 100}));
  Database next;
  next.Attr("atom_a");
  next.Attr("atom_b");
  next.AddView("P", std::move(grown));
  next.Save(path);  // overwrites the path the mapping came from

  // The already-open database still serves the old version...
  EXPECT_EQ(opened.view("P")->CountTuples(), 30);
  EXPECT_EQ(opened.view("P")->Flatten().size(), 30);
  // ...and a fresh open sees the new one.
  Database reopened = Database::Open(path);
  EXPECT_EQ(reopened.view("P")->CountTuples(), 31);
  std::remove(path.c_str());
}

TEST(StorageSnapshotTest, SaveWritesCompactedSegments) {
  // A view dragging update garbage saves as just its live nodes: the
  // reopened arena accounts fewer bytes than the garbage-laden original.
  Database db;
  AttrId a = db.Attr("comp_a"), b = db.Attr("comp_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < 40; ++x) r.Add({Value(x), Value(x)});
  Factorisation f = FactoriseRelation(r, {a, b});
  for (int64_t i = 0; i < 200; ++i) {
    testing::InsertOne(&f, testing::Row({1000 + i, 1}));
    testing::DeleteOne(&f, testing::Row({1000 + i, 1}));
  }
  int64_t dirty_bytes = f.arena()->bytes_used();
  db.AddView("P", std::move(f));

  std::string bytes = storage::SerialiseDatabase(db);
  Database fresh = Database::OpenSnapshot(
      storage::SnapshotMapping::FromBuffer(bytes.data(), bytes.size()));
  ASSERT_NE(fresh.view("P"), nullptr);
  EXPECT_LT(fresh.view("P")->arena()->bytes_used(), dirty_bytes);
  EXPECT_EQ(fresh.view("P")->CountTuples(), 40);
}

}  // namespace
}  // namespace fdb
