#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/enumerate.h"
#include "fdb/core/stats.h"
#include "fdb/core/update.h"
#include "fdb/engine/database.h"
#include "fdb/obs/metrics.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::DeleteOne;
using testing::InsertOne;
using testing::Row;

Factorisation MakePathView(Database* db, const std::string& prefix,
                           int64_t rows) {
  AttrId a = db->Attr(prefix + "_a"), b = db->Attr(prefix + "_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x), Value(x * 2)});
  return FactoriseRelation(r, {a, b});
}

TEST(CompactTest, CompactPreservesDataAndDropsGarbage) {
  Database db;
  Factorisation f = MakePathView(&db, "cpd", 30);
  Relation before = f.Flatten();
  // Persistent updates leave dead path copies behind.
  for (int64_t i = 0; i < 50; ++i) {
    InsertOne(&f, Row({500 + i, 1}));
    DeleteOne(&f, Row({500 + i, 1}));
  }
  int64_t dirty = f.arena()->bytes_used();
  f.Compact();
  EXPECT_LT(f.arena()->bytes_used(), dirty);
  EXPECT_TRUE(f.Validate());
  EXPECT_TRUE(testing::SameBag(f.Flatten(), before, db.registry()));
}

TEST(CompactTest, CompactPreservesDagSharing) {
  Database db;
  Factorisation f = testing::MakeSwapDag(&db, "cps");
  int64_t stored = ComputeFootprint(f).singletons;
  f.Compact();
  EXPECT_EQ(ComputeFootprint(f).singletons, stored);
  const FactNode* root = f.roots()[0];
  EXPECT_EQ(root->child(0, 1, 0)->child(0, 1, 0),
            root->child(1, 1, 0)->child(0, 1, 0));
  EXPECT_EQ(f.CountTuples(), 18);
  EXPECT_TRUE(f.Validate());
}

TEST(CompactTest, CompactHandlesEmptyRoots) {
  Database db;
  AttrId a = db.Attr("ce_a");
  FTree t;
  t.AddNode({a}, -1);
  Factorisation f(t, {MakeLeaf({})});
  f.Compact();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.CountTuples(), 0);
}

TEST(CompactTest, SharedArenasStayIntactAcrossCompaction) {
  Database db;
  Factorisation f = MakePathView(&db, "csh", 20);
  Factorisation copy = f;  // shares the arena
  InsertOne(&f, Row({999, 999}));
  f.Compact();
  // The copy still reads the original arena (kept alive by its own ref).
  EXPECT_EQ(copy.CountTuples(), 20);
  EXPECT_EQ(f.CountTuples(), 21);
  EXPECT_TRUE(ContainsTuple(f, Row({999, 999})));
  EXPECT_FALSE(ContainsTuple(copy, Row({999, 999})));
}

TEST(CompactTest, EnumerationSurvivesCompactionMidStream) {
  // The enumerator pins the arena it started on, so updates that trigger
  // generational compaction (retiring that arena from the factorisation)
  // must not invalidate an enumeration in progress.
  Database db;
  Factorisation f = MakePathView(&db, "cen", 50);
  Enumerator e(f);
  Tuple row(static_cast<size_t>(e.schema().arity()));
  ASSERT_TRUE(e.Next());
  e.Fill(&row);
  // Mutate hard enough that MaybeCompact fires at least once, then force
  // one more compaction explicitly.
  for (int64_t i = 0; i < 3000; ++i) {
    InsertOne(&f, Row({5000 + (i % 40), i}));
    DeleteOne(&f, Row({5000 + (i % 40), i}));
  }
  f.Compact();
  int64_t produced = 1;
  while (e.Next()) {
    e.Fill(&row);  // reads the pinned pre-update version; UAF under ASan
    ++produced;
  }
  EXPECT_EQ(produced, 50);
  EXPECT_EQ(f.CountTuples(), 50);

  // Same guarantee when the first Next() happens only after updates have
  // already swapped the roots: the enumerator captured the roots at
  // construction, so it still walks (and keeps alive) that version.
  Enumerator e2(f);
  InsertOne(&f, Row({123456, 1}));
  for (int64_t i = 0; i < 3000; ++i) {
    InsertOne(&f, Row({7000 + (i % 40), i}));
    DeleteOne(&f, Row({7000 + (i % 40), i}));
  }
  f.Compact();
  int64_t produced2 = 0;
  while (e2.Next()) {
    e2.Fill(&row);
    ++produced2;
  }
  EXPECT_EQ(produced2, 50);  // construction-time version: no 123456 row
  EXPECT_EQ(f.CountTuples(), 51);
}

TEST(CompactTest, SustainedUpdatesRunInBoundedMemory) {
  // The generational trigger in the update path keeps the arena within a
  // constant factor of the live size: without it this loop would retain
  // one dead root-to-leaf path copy per operation (tens of MB).
  Database db;
  Factorisation f = MakePathView(&db, "csu", 100);
  for (int64_t i = 0; i < 20000; ++i) {
    InsertOne(&f, Row({100000 + (i % 50), i}));
    DeleteOne(&f, Row({100000 + (i % 50), i}));
  }
  EXPECT_EQ(f.CountTuples(), 100);
  EXPECT_LT(f.arena()->bytes_used(), int64_t{2} << 20);
  EXPECT_TRUE(f.Validate());
}

TEST(CompactTest, AdoptKeepsTheChainFlatAndDuplicateFree) {
  auto a = std::make_shared<FactArena>();
  MakeLeafIn(*a, {Value(int64_t{1})});
  auto b = std::make_shared<FactArena>();
  b->Adopt(a);
  auto c = std::make_shared<FactArena>();
  c->Adopt(b);  // fresh: takes b's list as it is
  c->Adopt(a);  // already kept alive through b
  c->Adopt(b);
  c->Adopt(c);
  EXPECT_EQ(c->num_adopted(), 2u);
  EXPECT_EQ(c->chain_bytes(), a->bytes_used());

  auto d = std::make_shared<FactArena>();
  MakeLeafIn(*d, {Value(int64_t{2})});
  d->Adopt(a);
  d->Adopt(c);  // merged into a non-empty list: a is not added twice
  EXPECT_EQ(d->num_adopted(), 3u);
  EXPECT_EQ(d->chain_bytes(), a->bytes_used() + d->bytes_used());

  // The adopter alone keeps every adopted arena alive, and only it.
  std::vector<std::weak_ptr<FactArena>> adopted = {a, b, c};
  a.reset();
  b.reset();
  c.reset();
  for (const std::weak_ptr<FactArena>& w : adopted) {
    EXPECT_FALSE(w.expired());
  }
  d.reset();
  for (const std::weak_ptr<FactArena>& w : adopted) {
    EXPECT_TRUE(w.expired());
  }
}

// Bytes a compacted copy of `f` would hold: its live size.
int64_t LiveBytes(const Factorisation& f) {
  Factorisation copy = f;
  copy.Compact();
  return copy.arena()->bytes_used();
}

// Runs `txns` insert transactions of 16 tuples on view `name`, each
// followed by a transaction deleting the same tuples, and checks the
// published view after every commit: its arena chain stays within the
// compaction trigger (4x live + 64 KiB slack) and kMaxChainArenas.
// Returns the longest chain seen.
size_t ChurnAndCheckChain(Database* db, const std::string& name, int txns,
                          const std::function<Tuple(int64_t)>& row) {
  std::shared_ptr<const Factorisation> initial = db->ViewSnapshot(name);
  Relation rows = initial->Flatten();
  int64_t live = LiveBytes(*initial);
  size_t longest = 0;
  for (int i = 0; i < 2 * txns; ++i) {
    db->Begin();
    for (int64_t k = 0; k < 16; ++k) {
      if (i % 2 == 0) {
        db->Insert(name, row(k));
      } else {
        db->Delete(name, row(k));
      }
    }
    db->Commit();
    std::shared_ptr<const Factorisation> now = db->ViewSnapshot(name);
    live = std::max(live, LiveBytes(*now));
    longest = std::max(longest, now->arena()->num_adopted());
    if (now->arena()->chain_bytes() > 4 * live + (64 << 10)) {
      ADD_FAILURE() << name << ": chain of " << now->arena()->chain_bytes()
                    << " bytes over " << live << " live after commit " << i;
      break;
    }
  }
  EXPECT_LE(longest, Factorisation::kMaxChainArenas) << name;
  std::shared_ptr<const Factorisation> now = db->ViewSnapshot(name);
  EXPECT_TRUE(now->Validate());
  EXPECT_TRUE(testing::SameBag(now->Flatten(), rows, db->registry()));
  // A reader holding the first version keeps its chain alive throughout.
  EXPECT_TRUE(testing::SameBag(initial->Flatten(), rows, db->registry()));
  return longest;
}

TEST(CompactTest, CommitsToAPublishedViewKeepItsArenaChainBounded) {
  // Each commit updates a copy of the published view, so it writes into a
  // fresh arena that adopts the whole chain behind it. Compaction has to
  // measure that chain: the fresh arena alone never looks dirty, and
  // without it the chain, its memory and each commit's adopt work grow
  // with every commit.
  obs::SetMetricsEnabled(true);
  obs::Counter& compactions =
      obs::Registry::Instance().GetCounter("update.compactions");
  Database db;
  // Wide root: every commit rewrites a 2000-entry root union, so the
  // byte trigger fires.
  db.AddView("Wide", MakePathView(&db, "cpw", 2000));
  uint64_t before = compactions.Value();
  ChurnAndCheckChain(&db, "Wide", 1000,
                     [](int64_t k) { return Row({100000 + k, k}); });
  EXPECT_GT(compactions.Value(), before);
  // Narrow root: 10 root values over 2000 tuples, and each commit adds
  // one root value with 16 children, so commits are small against the
  // view and the chain-length cap has to fire instead.
  AttrId a = db.Attr("cpn_a"), b = db.Attr("cpn_b");
  Relation narrow{RelSchema({a, b})};
  for (int64_t x = 0; x < 2000; ++x) narrow.Add({Value(x % 10), Value(x)});
  db.AddView("Narrow", FactoriseRelation(narrow, {a, b}));
  before = compactions.Value();
  EXPECT_EQ(ChurnAndCheckChain(&db, "Narrow", 1000,
                               [](int64_t k) { return Row({100000, k}); }),
            Factorisation::kMaxChainArenas);
  EXPECT_GT(compactions.Value(), before);
  obs::SetMetricsEnabled(false);
}

}  // namespace
}  // namespace fdb
