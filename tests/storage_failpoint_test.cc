// Failure-injection tests for the persistence write path: an fsync,
// rename or torn write in the middle of a Save/Checkpoint must leave the
// previous snapshot intact and reopenable — the atomic
// temp-write/rename publish means a failed attempt is invisible.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "fdb/core/build.h"
#include "fdb/core/update.h"
#include "fdb/engine/csv.h"
#include "fdb/engine/database.h"
#include "fdb/storage/io_env.h"
#include "fdb/storage/snapshot.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::Row;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FlattenCsv(const Factorisation& f, const AttributeRegistry& reg) {
  std::ostringstream out;
  WriteCsv(f.Flatten(), reg, out);
  return out.str();
}

bool Exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

Database MakePathDb(int64_t rows, const std::string& prefix) {
  Database db;
  AttrId a = db.Attr(prefix + "_a"), b = db.Attr(prefix + "_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x / 10), Value(x)});
  db.AddView("U", FactoriseRelation(r, {a, b}));
  return db;
}

class FailpointTest : public ::testing::Test {
 protected:
  ~FailpointTest() override {
    storage::IoEnv::Instance().ClearFailpoints();
  }
  storage::IoEnv& io_ = storage::IoEnv::Instance();
};

// Save over an existing good snapshot: whatever fails mid-write, the old
// file must survive byte-identically reopenable.
TEST_F(FailpointTest, FailedSaveKeepsThePreviousSnapshot) {
  const char* points[] = {"snapshot_fsync:1", "snapshot_rename:1",
                          "snapshot_write:2:short", "snapshot_write:3",
                          "dir_fsync:1"};
  int idx = 0;
  for (const char* point : points) {
    std::string path = TempPath("fp_save_" + std::to_string(idx++) + ".fdbs");
    Database db = MakePathDb(100, "fps");
    db.Save(path);
    std::string before = FlattenCsv(*db.view("U"), db.registry());

    InsertTuple(
        const_cast<Factorisation*>(db.view("U")), Row({999, 9999}));
    io_.SetFailpoints(point);
    EXPECT_THROW(db.Save(path), std::invalid_argument) << point;
    io_.ClearFailpoints();

    // Exception: dir_fsync fires after the rename — the new file may
    // legally be published by then, so "intact" means either version,
    // never a torn one. All earlier points must preserve the old bytes.
    Database re = Database::Open(path);
    std::string after = FlattenCsv(*re.view("U"), re.registry());
    if (std::string(point) == "dir_fsync:1") {
      EXPECT_TRUE(after == before ||
                  after == FlattenCsv(*db.view("U"), db.registry()))
          << point;
    } else {
      EXPECT_EQ(after, before) << point;
    }
    EXPECT_FALSE(Exists(path + ".tmp")) << point;  // temp cleaned up
  }
}

// A failed checkpoint or Save leaves the last base exactly as it was,
// and the next Checkpoint writes a base that captures everything.
TEST_F(FailpointTest, FailedCheckpointKeepsTheChainReopenable) {
  const char* points[] = {"snapshot_fsync:1", "snapshot_rename:1",
                          "snapshot_write:1:short"};
  int idx = 0;
  for (const char* point : points) {
    std::string path = TempPath("fp_ckpt_" + std::to_string(idx++) + ".fdbs");
    Database db = MakePathDb(100, "fpc");
    ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
    db.UpdateView("U", [](Factorisation* f) {
      InsertTuple(f, Row({500, 5000}));
    });
    ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
    std::string before = FlattenCsv(*db.view("U"), db.registry());

    db.UpdateView("U", [](Factorisation* f) {
      InsertTuple(f, Row({600, 6000}));
    });
    for (bool save : {false, true}) {
      io_.SetFailpoints(point);
      if (save) {
        EXPECT_THROW(db.Save(path), std::invalid_argument) << point;
      } else {
        EXPECT_THROW(db.Checkpoint(path), std::invalid_argument) << point;
      }
      io_.ClearFailpoints();

      // The last base reopens to the pre-failure state.
      Database re = Database::Open(path);
      EXPECT_EQ(FlattenCsv(*re.view("U"), re.registry()), before)
          << point << " save=" << save;
      EXPECT_FALSE(Exists(path + ".tmp")) << point;
    }

    EXPECT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase)
        << point;
    Database re2 = Database::Open(path);
    EXPECT_TRUE(ContainsTuple(*re2.view("U"), Row({600, 6000}))) << point;
  }
}

TEST_F(FailpointTest, BadFailpointSpecsAreRejected) {
  EXPECT_THROW(io_.SetFailpoints("nocolon"), std::invalid_argument);
  EXPECT_THROW(io_.SetFailpoints("site:0"), std::invalid_argument);
  EXPECT_THROW(io_.SetFailpoints("site:abc"), std::invalid_argument);
  EXPECT_THROW(io_.SetFailpoints("site:1:banana"), std::invalid_argument);
  io_.SetFailpoints("a:1,b:2:short,any:3:flip");  // valid grammar
  io_.ClearFailpoints();
}

TEST_F(FailpointTest, CountersTrackSites) {
  std::string path = TempPath("fp_counts.fdbs");
  Database db = MakePathDb(50, "fpn");
  io_.ResetCounts();
  db.Save(path);
  EXPECT_GT(io_.Count("snapshot_write"), 0u);
  EXPECT_EQ(io_.Count("snapshot_fsync"), 1u);  // one fsync per atomic publish
  EXPECT_EQ(io_.Count("snapshot_rename"), 1u);
  EXPECT_GT(io_.Count("any"), io_.Count("snapshot_write"));
}

}  // namespace
}  // namespace fdb
