#include "fdb/check/check.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/fact_arena.h"
#include "fdb/core/stats.h"
#include "fdb/engine/database.h"
#include "fdb/relational/value_dict.h"
#include "fdb/serve/admission.h"
#include "fdb/storage/format.h"
#include "fdb/storage/snapshot.h"
#include "fdb/storage/wal.h"
#include "fdb/workload/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;

std::string TempPath(const std::string& name) {
  return testing::ProcessTempDir() + "/" + name;
}

bool HasIssue(const check::Report& r, const std::string& name) {
  for (const check::Issue& i : r.issues) {
    if (i.check == name) return true;
  }
  return false;
}

/// The first root with at least one child (corruption seeds patch a
/// child slot, so they need a union that has one).
FactPtr FindNodeWithChildren(const Factorisation& f) {
  for (FactPtr root : f.roots()) {
    if (root != nullptr && !root->children.empty()) return root;
  }
  return nullptr;
}

/// A database with one updatable two-attribute view "V".
Database MakeSmallDb(int64_t rows) {
  Database db;
  AttrId a = db.Attr("ck_a"), b = db.Attr("ck_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x / 10), Value(x)});
  db.AddView("V", FactoriseRelation(r, {a, b}));
  return db;
}

// --- clean databases validate ---------------------------------------------

TEST(CheckTest, CleanWorkloadValidates) {
  Database db;
  InstallWorkload(&db, SmallParams(1));
  check::Report r = check::ValidateDatabase(db);
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_GT(r.views_checked, 0u);
  EXPECT_GT(r.nodes_visited, 0u);
}

TEST(CheckTest, CleanSnapshotChainValidates) {
  std::string path = TempPath("check_chain.fdbs");
  Database db = MakeSmallDb(60);
  db.EnableWal(path);  // checkpoints a base and binds the log
  db.Insert("V", testing::Row({100, 1000}));
  db.Checkpoint(path);  // writes a new base and resets the log
  db.Insert("V", testing::Row({101, 1001}));  // leaves a live WAL group

  check::Report r = check::ValidateDatabase(db);
  EXPECT_TRUE(r.ok()) << r.ToString();
  // The base envelope was opened and CRC-verified.
  EXPECT_EQ(r.files_checked, 1u);
  EXPECT_NO_THROW(check::ValidateDatabaseOrThrow(db));
}

TEST(CheckTest, EnabledFollowsEnvironment) {
  ::setenv("FDB_CHECK", "1", 1);
  EXPECT_TRUE(check::Enabled());
  ::setenv("FDB_CHECK", "0", 1);
  EXPECT_FALSE(check::Enabled());
  ::unsetenv("FDB_CHECK");
}

TEST(CheckTest, SharedNodeIsNotACycle) {
  // The swap operator puts one node under several parents. The walk must
  // visit each such node once and must not flag it as a cycle.
  Database db;
  Factorisation f = testing::MakeSwapDag(&db, "chk_dag");
  FactFootprint fp = ComputeFootprint(f);
  check::Report r;
  check::CheckView("Dag", f, &r);
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(r.nodes_visited, static_cast<uint64_t>(fp.unions));
  // One b-root, two a-unions and three shared c-unions; a tree walk
  // would reach six c-unions.
  EXPECT_EQ(fp.unions, 6);
}

// --- seeded corruption class 1: dangling (null) child pointer -------------

TEST(CheckTest, DetectsNullChildPointer) {
  Pizzeria p = MakePizzeria();
  std::shared_ptr<const Factorisation> f = p.db->ViewSnapshot("R");
  FactPtr parent = FindNodeWithChildren(*f);
  ASSERT_NE(parent, nullptr);
  auto* slots = const_cast<FactPtr*>(parent->children.ptr);
  FactPtr saved = slots[0];
  slots[0] = nullptr;

  check::Report r = check::ValidateDatabase(*p.db);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(HasIssue(r, "null-child")) << r.ToString();
  EXPECT_THROW(check::ValidateDatabaseOrThrow(*p.db), std::runtime_error);
  slots[0] = saved;
}

// --- seeded corruption class 2: cycle in the node graph -------------------

TEST(CheckTest, DetectsNodeCycle) {
  Pizzeria p = MakePizzeria();
  std::shared_ptr<const Factorisation> f = p.db->ViewSnapshot("R");
  FactPtr parent = FindNodeWithChildren(*f);
  ASSERT_NE(parent, nullptr);
  auto* slots = const_cast<FactPtr*>(parent->children.ptr);
  FactPtr saved = slots[0];
  slots[0] = parent;  // the node becomes its own descendant

  check::Report r = check::ValidateDatabase(*p.db);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(HasIssue(r, "node-cycle")) << r.ToString();
  slots[0] = saved;
}

// --- seeded corruption class 3: cross-arena leak --------------------------

TEST(CheckTest, DetectsForeignArenaNode) {
  Pizzeria p = MakePizzeria();
  std::shared_ptr<const Factorisation> f = p.db->ViewSnapshot("R");
  FactPtr parent = FindNodeWithChildren(*f);
  ASSERT_NE(parent, nullptr);

  // A node in an arena the view never adopted: its memory is not pinned
  // by the view, so it may vanish under the view at any time.
  FactArena foreign;
  ValueRef v = ValueDict::Default().Encode(Value(int64_t{7}));
  FactPtr stray = foreign.NewNode(&v, 1, nullptr, 0);

  auto* slots = const_cast<FactPtr*>(parent->children.ptr);
  FactPtr saved = slots[0];
  slots[0] = stray;

  check::Report r = check::ValidateDatabase(*p.db);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(HasIssue(r, "arena-ownership")) << r.ToString();
  slots[0] = saved;
}

// --- seeded corruption class 4: dictionary rank inversion -----------------

TEST(CheckTest, DetectsDictRankInversion) {
  ValueDict d;
  uint32_t apple = d.Intern("apple");
  uint32_t banana = d.Intern("banana");
  d.Intern("cherry");
  {
    check::Report clean;
    check::CheckDictionary(d, &clean);
    ASSERT_TRUE(clean.ok()) << clean.ToString();
  }
  // Swap two ranks: the permutation stays a bijection but orders
  // "banana" before "apple".
  uint32_t ra = d.rank(apple), rb = d.rank(banana);
  d.TestOnlyCorruptRank(apple, rb);
  d.TestOnlyCorruptRank(banana, ra);

  check::Report r;
  check::CheckDictionary(d, &r);
  EXPECT_TRUE(HasIssue(r, "dict-rank-order")) << r.ToString();
}

TEST(CheckTest, DetectsDictRankRangeAndDuplicate) {
  ValueDict d;
  uint32_t apple = d.Intern("apple");
  uint32_t banana = d.Intern("banana");
  d.TestOnlyCorruptRank(apple, 99);  // out of [0, 2)
  check::Report r;
  check::CheckDictionary(d, &r);
  EXPECT_TRUE(HasIssue(r, "dict-rank-range")) << r.ToString();

  d.TestOnlyCorruptRank(apple, d.rank(banana));  // two codes, one rank
  check::Report r2;
  check::CheckDictionary(d, &r2);
  EXPECT_TRUE(HasIssue(r2, "dict-rank-duplicate")) << r2.ToString();
}

// --- seeded corruption class 5: WAL stamped for another base -------------

TEST(CheckTest, DetectsWalStampedForAnotherBase) {
  std::string path = TempPath("check_walstamp.fdbs");
  Database db = MakeSmallDb(60);
  db.EnableWal(path);
  db.Insert("V", testing::Row({100, 1000}));
  check::Report clean;
  check::CheckChainFiles(path, &clean);
  EXPECT_TRUE(clean.ok()) << clean.ToString();

  // Re-stamp the log's epoch: Open would now discard its committed group.
  std::fstream f(storage::WalPath(path),
                 std::ios::binary | std::ios::in | std::ios::out);
  uint64_t epoch = 0;
  f.seekg(offsetof(storage::WalHeader, epoch));
  f.read(reinterpret_cast<char*>(&epoch), sizeof(epoch));
  epoch += 7;
  f.seekp(offsetof(storage::WalHeader, epoch));
  f.write(reinterpret_cast<const char*>(&epoch), sizeof(epoch));
  f.close();

  check::Report r;
  check::CheckChainFiles(path, &r);
  EXPECT_TRUE(HasIssue(r, "wal-chain-stamp")) << r.ToString();
  db.DisableWal();
  std::remove(path.c_str());
}

// A flipped byte without the CRC re-stamp is caught one layer earlier.
TEST(CheckTest, DetectsSectionCrcMismatch) {
  std::string path = TempPath("check_crc.fdbs");
  Database db = MakeSmallDb(60);
  db.Checkpoint(path);

  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-1, std::ios::end);
  char last;
  f.seekg(-1, std::ios::end);
  f.get(last);
  f.seekp(-1, std::ios::end);
  f.put(static_cast<char>(last ^ 0x10));
  f.close();

  check::Report r;
  check::CheckChainFiles(path, &r);
  EXPECT_TRUE(HasIssue(r, "section-crc")) << r.ToString();

  // Rewriting the header version does not switch the CRC check off: any
  // version but the current one is an envelope error.
  f.open(path, std::ios::binary | std::ios::in | std::ios::out);
  uint32_t version = 2;
  f.seekp(offsetof(storage::FileHeader, version));
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  f.close();
  check::Report downgraded;
  check::CheckChainFiles(path, &downgraded);
  EXPECT_TRUE(HasIssue(downgraded, "chain-envelope")) << downgraded.ToString();
}

// --- seeded corruption class 6: admission counter drift -------------------

TEST(CheckTest, DetectsAdmissionCounterDrift) {
  serve::AdmissionConfig cfg;
  cfg.max_concurrent = 2;
  serve::AdmissionController ac(cfg);
  {
    check::Report clean;
    check::CheckAdmission(ac, &clean);
    ASSERT_TRUE(clean.ok()) << clean.ToString();
  }
  // A double Release: the classic lost-ticket bug drives active below 0.
  ASSERT_TRUE(ac.Admit().admitted);
  ac.Release();
  ac.Release();

  check::Report r;
  check::CheckAdmission(ac, &r);
  EXPECT_TRUE(HasIssue(r, "admission-counters")) << r.ToString();
}

// --- auto-hooks -----------------------------------------------------------

TEST(CheckTest, OpenRunsCheckWhenEnabled) {
  std::string path = TempPath("check_hook.fdbs");
  {
    Database db = MakeSmallDb(40);
    db.Save(path);
  }
  ::setenv("FDB_CHECK", "1", 1);
  EXPECT_NO_THROW({
    Database re = Database::Open(path);
    (void)re;
  });
  ::unsetenv("FDB_CHECK");
}

}  // namespace
}  // namespace fdb
