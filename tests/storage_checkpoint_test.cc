#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/compress.h"
#include "fdb/core/update.h"
#include "fdb/engine/csv.h"
#include "fdb/engine/database.h"
#include "fdb/storage/format.h"
#include "fdb/storage/snapshot.h"
#include "fdb/workload/generator.h"
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool Exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

/// A database with one updatable (path-shaped) view over `rows` tuples.
/// The first attribute is grouped (100 tuples per value) so the trie
/// branches: an insert rewrites the root union and one group's subtree,
/// not a union the size of the database — the locality that makes
/// incremental checkpoints O(changes).
Database MakePathDb(int64_t rows, const std::string& prefix) {
  Database db;
  AttrId a = db.Attr(prefix + "_a"), b = db.Attr(prefix + "_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x / 100), Value(x)});
  db.AddView("U", FactoriseRelation(r, {a, b}));
  return db;
}

int64_t CountDeltas(const std::string& path) {
  int64_t n = 0;
  while (Exists(storage::DeltaPath(path, n + 1))) ++n;
  return n;
}

TEST(StorageCheckpointTest, FirstCheckpointWritesABase) {
  std::string path = TempPath("ckpt_first.fdbs");
  Database db = MakePathDb(100, "ckf");
  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kBase);
  EXPECT_GT(info.bytes, 0u);
  EXPECT_EQ(CountDeltas(path), 0);
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 100);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, DeltaIsSmallAndReplaysToMonolithicState) {
  std::string path = TempPath("ckpt_delta.fdbs");
  std::string mono = TempPath("ckpt_mono.fdbs");
  Database db = MakePathDb(5000, "ckd");
  storage::CheckpointInfo base = db.Checkpoint(path);
  ASSERT_EQ(base.kind, storage::CheckpointInfo::kBase);

  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
      InsertTuple(f, Row({0, 100000 + i}));
    }));
  }
  storage::CheckpointInfo delta = db.Checkpoint(path);
  EXPECT_EQ(delta.kind, storage::CheckpointInfo::kDelta);
  EXPECT_EQ(delta.seq, 1u);
  EXPECT_TRUE(Exists(storage::DeltaPath(path, 1)));
  // O(changes), not O(database): the rewritten root union, one group's
  // subtree and 20 new leaves against 5000 rows.
  EXPECT_LT(delta.bytes * 10, base.bytes);

  // The base + delta chain opens to exactly the state a monolithic Save
  // of the same database produces.
  db.Save(mono);
  Database via_delta = Database::Open(path);
  Database via_mono = Database::Open(mono);
  ASSERT_NE(via_delta.view("U"), nullptr);
  EXPECT_EQ(via_delta.view("U")->CountTuples(), 5020);
  EXPECT_EQ(FlattenCsv(*via_delta.view("U"), via_delta.registry()),
            FlattenCsv(*via_mono.view("U"), via_mono.registry()));
  std::remove(path.c_str());
  std::remove(storage::DeltaPath(path, 1).c_str());
  std::remove(mono.c_str());
}

TEST(StorageCheckpointTest, NoChangesIsANoop) {
  std::string path = TempPath("ckpt_noop.fdbs");
  Database db = MakePathDb(50, "ckn");
  db.Checkpoint(path);
  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kNoop);
  EXPECT_EQ(CountDeltas(path), 0);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, IdleCheckpointIsANoopEvenPastFoldThreshold) {
  // A tripped fold threshold must not turn an idle checkpoint into a
  // full base rewrite: nothing changed, nothing is written.
  std::string path = TempPath("ckpt_idlefold.fdbs");
  Database db = MakePathDb(30, "ckf2");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  // One delta far larger than half the tiny base trips the byte fold.
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    for (int64_t i = 0; i < 300; ++i) InsertTuple(f, Row({0, 10000 + i}));
  }));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);
  std::string base_before = ReadFile(path);
  storage::CheckpointInfo idle = db.Checkpoint(path);
  EXPECT_EQ(idle.kind, storage::CheckpointInfo::kNoop);
  EXPECT_EQ(ReadFile(path), base_before);  // base untouched
  EXPECT_EQ(CountDeltas(path), 1);
  // The next *real* change still folds as designed.
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({1, 99999}));
  }));
  EXPECT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  EXPECT_EQ(CountDeltas(path), 0);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, DictRegistryAndRelationGrowthRideTheDelta) {
  // New strings (out of rank order), big integers, registry names and a
  // re-published relation all land in the delta and replay at open.
  std::string path = TempPath("ckpt_dict.fdbs");
  Database db;
  AttrId a = db.Attr("ckg_a"), b = db.Attr("ckg_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < 2000; ++x) r.Add({Value(x / 100), Value(x)});
  db.AddView("U", FactoriseRelation(r, {a, b}));
  db.AddRelation("Flat", std::move(r));
  // Strings sorting before existing dictionary content force a non-
  // identity remap on replay.
  db.AddView("S", [&] {
    AttrId s = db.Attr("ckg_s");
    FTree t;
    t.AddNode({s}, -1);
    return Factorisation(t, {MakeLeaf({Value("mm ckpt")})});
  }());
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  int64_t big = (int64_t{1} << 52) + 99;
  ASSERT_TRUE(db.UpdateView("S", [&](Factorisation* f) {
    InsertTuple(f, {Value("aa ckpt")});   // new string, rank-shifting
    InsertTuple(f, {Value("zz ckpt")});   // new string, appending
  }));
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({7777, 1}));
  }));
  db.Attr("ckg_new_attr");  // registry growth
  {
    Relation r2{RelSchema({a, b})};
    r2.Add({Value(int64_t{1}), Value(big)});  // big int via the relation
    db.AddRelation("Flat", std::move(r2));    // re-published relation
  }
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);

  std::string mono = TempPath("ckpt_dict_mono.fdbs");
  db.Save(mono);
  Database via_delta = Database::Open(path);
  Database via_mono = Database::Open(mono);
  EXPECT_EQ(FlattenCsv(*via_delta.view("S"), via_delta.registry()),
            FlattenCsv(*via_mono.view("S"), via_mono.registry()));
  EXPECT_EQ(FlattenCsv(*via_delta.view("U"), via_delta.registry()),
            FlattenCsv(*via_mono.view("U"), via_mono.registry()));
  EXPECT_TRUE(via_delta.relation("Flat")->BagEquals(*db.relation("Flat")));
  EXPECT_TRUE(via_delta.registry().Find("ckg_new_attr").has_value());
  std::remove(path.c_str());
  std::remove(storage::DeltaPath(path, 1).c_str());
  std::remove(mono.c_str());
}

TEST(StorageCheckpointTest, ChainOfDeltasThenFoldIntoFreshBase) {
  std::string path = TempPath("ckpt_chain.fdbs");
  // Big enough that a handful of tiny deltas stays under the byte fold
  // threshold (half the base) until the chain-length threshold trips.
  Database db = MakePathDb(20000, "ckc");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  int64_t next = 500000;
  bool folded = false;
  for (uint64_t i = 0; i <= storage::kMaxDeltaChain; ++i) {
    ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
      InsertTuple(f, Row({next, 1}));
      ++next;
    }));
    storage::CheckpointInfo info = db.Checkpoint(path);
    if (info.kind == storage::CheckpointInfo::kBase) {
      folded = true;
      // A fold removes the whole delta chain.
      EXPECT_EQ(CountDeltas(path), 0);
    }
    // Every intermediate state opens correctly.
    Database fresh = Database::Open(path);
    EXPECT_EQ(fresh.view("U")->CountTuples(),
              20000 + static_cast<int64_t>(i) + 1);
  }
  EXPECT_TRUE(folded);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, CompactedViewStillCheckpointsCorrectly) {
  // Compaction copies every live node to fresh addresses, invalidating
  // the retained index; the next delta must fall back to a full view
  // re-dump (detected via the arena rebuild generation) and stay correct.
  std::string path = TempPath("ckpt_compact.fdbs");
  Database db = MakePathDb(1000, "ckp");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({99991, 1}));
    f->Compact();
  }));
  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kDelta);
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 1001);
  EXPECT_TRUE(ContainsTuple(*fresh.view("U"), Row({99991, 1})));
  std::remove(path.c_str());
  std::remove(storage::DeltaPath(path, 1).c_str());
}

TEST(StorageCheckpointTest, RebaseByAnotherWriterForcesRebaseNotOrphanedDelta) {
  // A second writer (here: a Database copy, which deliberately does not
  // share checkpoint state) re-bases the path, removing the first
  // writer's deltas. The first writer's next checkpoint must notice the
  // epoch change on disk and rebase too — appending a delta stamped
  // with the dead epoch would report success while the changes were
  // silently unrecoverable at open.
  std::string path = TempPath("ckpt_twowriters.fdbs");
  Database a = MakePathDb(150, "ckw");
  ASSERT_EQ(a.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  ASSERT_TRUE(a.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({70001, 1}));
  }));
  ASSERT_EQ(a.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);

  Database b = a;          // fresh chain identity
  b.Checkpoint(path);      // re-bases: new epoch, a's delta removed
  EXPECT_EQ(CountDeltas(path), 0);

  ASSERT_TRUE(a.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({70002, 1}));
  }));
  storage::CheckpointInfo info = a.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kBase);
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 152);
  EXPECT_TRUE(ContainsTuple(*fresh.view("U"), Row({70002, 1})));
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, PathAliasSpellingsShareOneChain) {
  // Save through an alias spelling of the checkpointed path must fold
  // the chain (same canonical file), not orphan it — otherwise the next
  // delta would be stamped with the dead base's epoch and its changes
  // silently lost at open.
  std::string path = TempPath("ckpt_alias.fdbs");
  std::string alias = ::testing::TempDir() + "/./ckpt_alias.fdbs";
  Database db = MakePathDb(120, "cka");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({60001, 1}));
  }));
  db.Save(alias);  // fold via the alias spelling
  EXPECT_EQ(CountDeltas(path), 0);
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({60002, 1}));
  }));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 122);
  EXPECT_TRUE(ContainsTuple(*fresh.view("U"), Row({60002, 1})));
  std::remove(path.c_str());
  std::remove(storage::DeltaPath(path, 1).c_str());
}

TEST(StorageCheckpointTest, RepublishedFromScratchViewFallsBackToFullDump) {
  // AddView of a factorisation rebuilt from scratch (same f-tree, fresh
  // arenas that never adopted the persisted ones) invalidates the
  // retained node index: none of its nodes were persisted, and the old
  // nodes' addresses may be recycled. The checkpoint must detect the
  // broken arena chain and re-dump the view rather than emit an
  // incremental delta against dangling identities.
  std::string path = TempPath("ckpt_republish.fdbs");
  Database db = MakePathDb(400, "ckr");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  {
    AttrId a = *db.registry().Find("ckr_a"), b = *db.registry().Find("ckr_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x = 0; x < 430; ++x) r.Add({Value(x / 100), Value(x)});
    db.AddView("U", FactoriseRelation(r, {a, b}));  // from-scratch rebuild
  }
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);
  // Churn allocations so recycled addresses would surface if the index
  // had been kept, then checkpoint again. (The full re-dump above is
  // nearly base-sized, so this one may fold into a fresh base — both
  // outcomes must replay to the correct state.)
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    for (int64_t i = 0; i < 50; ++i) InsertTuple(f, Row({9, 100000 + i}));
  }));
  ASSERT_NE(db.Checkpoint(path).kind, storage::CheckpointInfo::kNoop);

  std::string mono = TempPath("ckpt_republish_mono.fdbs");
  db.Save(mono);
  Database via_delta = Database::Open(path);
  Database via_mono = Database::Open(mono);
  EXPECT_EQ(via_delta.view("U")->CountTuples(), 480);
  EXPECT_EQ(FlattenCsv(*via_delta.view("U"), via_delta.registry()),
            FlattenCsv(*via_mono.view("U"), via_mono.registry()));
  std::remove(path.c_str());
  std::remove(storage::DeltaPath(path, 1).c_str());
  std::remove(storage::DeltaPath(path, 2).c_str());
  std::remove(mono.c_str());
}

TEST(StorageCheckpointTest, StrayTmpNeverShadowsAndIsReplacedBySave) {
  // Simulates a crash between the temp write and the rename: the stray
  // *.tmp must never affect opens, and the next save must succeed and
  // leave no temp file behind.
  std::string path = TempPath("ckpt_tmp.fdbs");
  Database db = MakePathDb(60, "ckt");
  db.Save(path);
  WriteFile(path + ".tmp", "garbage from a crashed writer");
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 60);

  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({1000, 1}));
  }));
  db.Save(path);
  EXPECT_FALSE(Exists(path + ".tmp"));
  Database fresh2 = Database::Open(path);
  EXPECT_EQ(fresh2.view("U")->CountTuples(), 61);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, FailedSaveLeavesPriorSnapshotIntact) {
  std::string path = TempPath("ckpt_intact.fdbs");
  Database db = MakePathDb(40, "cki");
  db.Save(path);
  std::string before = ReadFile(path);
  // A save into an unwritable location throws without touching `path`.
  EXPECT_THROW(db.Save("/nonexistent-dir-fdb/x.fdbs"), std::invalid_argument);
  EXPECT_EQ(ReadFile(path), before);
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 40);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, StaleDeltaFromAnOlderBaseIsIgnored) {
  // A crash between a fold's rename and its delta cleanup leaves deltas
  // of the *previous* base next to the new one. The epoch stamp makes
  // the reader skip them instead of misapplying.
  std::string path = TempPath("ckpt_stale.fdbs");
  Database db = MakePathDb(300, "cks");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({40001, 1}));
  }));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);
  std::string old_delta = ReadFile(storage::DeltaPath(path, 1));

  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({40002, 1}));
  }));
  db.Save(path);  // fold: new epoch, deltas removed
  EXPECT_EQ(CountDeltas(path), 0);
  WriteFile(storage::DeltaPath(path, 1), old_delta);  // simulate leftover

  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 302);
  EXPECT_TRUE(ContainsTuple(*fresh.view("U"), Row({40002, 1})));
  std::remove(path.c_str());
  std::remove(storage::DeltaPath(path, 1).c_str());
}

TEST(StorageCheckpointTest, CorruptDeltaIsRejected) {
  std::string path = TempPath("ckpt_corrupt.fdbs");
  Database db = MakePathDb(100, "ckx");
  db.Checkpoint(path);
  ASSERT_TRUE(db.UpdateView("U", [&](Factorisation* f) {
    InsertTuple(f, Row({50000, 1}));
  }));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);
  std::string dp = storage::DeltaPath(path, 1);
  std::string bytes = ReadFile(dp);
  WriteFile(dp, bytes.substr(0, bytes.size() / 2));  // truncate
  EXPECT_THROW(Database::Open(path), std::invalid_argument);
  // An intact delta whose header claims version 2 is rejected too: no
  // header version skips the section CRCs.
  std::string downgraded = bytes;
  uint32_t version = 2;
  std::memcpy(downgraded.data() + offsetof(storage::FileHeader, version),
              &version, sizeof(version));
  WriteFile(dp, downgraded);
  EXPECT_THROW(Database::Open(path), std::invalid_argument);
  WriteFile(dp, bytes);
  EXPECT_EQ(Database::Open(path).view("U")->CountTuples(), 101);
  std::remove(path.c_str());
  std::remove(dp.c_str());
}

TEST(StorageCheckpointTest, DagBigIntAndRemapCasesSurviveDeltaChains) {
  // The storage_snapshot_test trio (DAG sharing, big ints, dictionary
  // remap) through a base + two deltas instead of one monolithic file.
  std::string path = TempPath("ckpt_mixed.fdbs");
  ValueDict::Default().Encode(Value("zz ckpt-remap"));
  ValueDict::Default().Encode(Value("aa ckpt-remap"));
  Database db;
  // Ballast so the tiny deltas below stay under the byte-fold threshold
  // (half the base size).
  {
    AttrId p = db.Attr("ckm_p"), q = db.Attr("ckm_q");
    Relation ballast{RelSchema({p, q})};
    for (int64_t x = 0; x < 2000; ++x) ballast.Add({Value(x), Value(x)});
    db.AddRelation("Ballast", std::move(ballast));
  }
  // DAG-shared view, untouched across the chain.
  {
    AttrId a = db.Attr("ckm_a"), b = db.Attr("ckm_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x : {1, 2, 3, 4}) {
      for (int64_t y : {10, 20, 30}) r.Add({Value(x), Value(y)});
    }
    Factorisation f = FactoriseRelation(r, {a, b});
    CompressInPlace(&f);
    db.AddView("Dag", std::move(f));
  }
  // Mixed-type path view that the deltas will grow.
  AttrId m = db.Attr("ckm_m");
  {
    FTree t;
    t.AddNode({m}, -1);
    db.AddView("Mix",
               Factorisation(t, {MakeLeaf({Value(int64_t{-5}),
                                           Value("mm ckpt-remap")})}));
  }
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  int64_t big = (int64_t{1} << 51) + 13;
  ASSERT_TRUE(db.UpdateView("Mix", [&](Factorisation* f) {
    InsertTuple(f, {Value(big)});
    InsertTuple(f, {Value("aa ckpt-remap")});
  }));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);
  ASSERT_TRUE(db.UpdateView("Mix", [&](Factorisation* f) {
    InsertTuple(f, {Value(2.5)});
    InsertTuple(f, {Value("zz ckpt-remap")});
  }));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);
  ASSERT_EQ(CountDeltas(path), 2);

  std::string mono = TempPath("ckpt_mixed_mono.fdbs");
  db.Save(mono);
  Database via_delta = Database::Open(path);
  Database via_mono = Database::Open(mono);
  for (const char* v : {"Dag", "Mix"}) {
    ASSERT_NE(via_delta.view(v), nullptr) << v;
    EXPECT_EQ(FlattenCsv(*via_delta.view(v), via_delta.registry()),
              FlattenCsv(*via_mono.view(v), via_mono.registry()))
        << v;
  }
  // DAG sharing preserved through the chain.
  EXPECT_EQ(via_delta.view("Dag")->roots()[0]->child(0, 1, 0),
            via_delta.view("Dag")->roots()[0]->child(1, 1, 0));
  std::remove(path.c_str());
  std::remove(storage::DeltaPath(path, 1).c_str());
  std::remove(storage::DeltaPath(path, 2).c_str());
  std::remove(mono.c_str());
}

TEST(StorageCheckpointTest, Version1SnapshotIsRejected) {
  // Only the current format version opens: a base whose header claims
  // version 1 is refused by the buffer and the file reader alike.
  Database db = MakePathDb(80, "ckv");
  std::string bytes = storage::SerialiseDatabase(db);
  uint32_t version = 1;
  std::memcpy(bytes.data() + offsetof(storage::FileHeader, version), &version,
              sizeof(version));
  auto expect_unsupported = [](const std::function<void()>& open) {
    try {
      open();
      ADD_FAILURE() << "version-1 snapshot opened";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos)
          << e.what();
    }
  };
  expect_unsupported([&] {
    Database::OpenSnapshot(
        storage::SnapshotMapping::FromBuffer(bytes.data(), bytes.size()));
  });
  std::string path = TempPath("ckpt_v1.fdbs");
  WriteFile(path, bytes);
  expect_unsupported([&] { Database::Open(path); });
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, StreamedSaveMatchesBufferSerialisation) {
  // The file and buffer writers share one streaming code path; their
  // output must agree byte for byte apart from the random epoch stamp.
  std::string path = TempPath("ckpt_stream.fdbs");
  Database db = MakePathDb(500, "ckb");
  db.Save(path);
  std::string streamed = ReadFile(path);
  std::string buffered = storage::SerialiseDatabase(db);
  ASSERT_EQ(streamed.size(), buffered.size());
  // Zero both epoch payloads (the meta section) before comparing — and
  // the meta entry's crc32, which covers the differing epoch bytes.
  auto zero_meta = [](std::string* bytes) {
    storage::FileHeader header;
    std::memcpy(&header, bytes->data(), sizeof(header));
    for (uint64_t s = 0; s < header.section_count; ++s) {
      char* entry_at =
          bytes->data() + sizeof(header) + s * sizeof(storage::SectionEntry);
      storage::SectionEntry e;
      std::memcpy(&e, entry_at, sizeof(e));
      if (e.kind == storage::kSectionMeta) {
        std::memset(bytes->data() + e.offset, 0, e.size);
        e.crc32 = 0;
        std::memcpy(entry_at, &e, sizeof(e));
      }
    }
  };
  zero_meta(&streamed);
  zero_meta(&buffered);
  EXPECT_EQ(streamed, buffered);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, SavePeakTransientIsWellBelowFileSize) {
  // The pre-streaming writer buffered the whole file (and the segment
  // arrays besides): peak ~3x file size. The streaming writer's peak is
  // its node bookkeeping plus a fixed write buffer.
  Database db;
  InstallWorkload(&db, SmallParams(8), "R1");
  std::string path = TempPath("ckpt_peak.fdbs");
  storage::SaveStats stats;
  storage::SaveSnapshot(db, path, &stats);
  EXPECT_GT(stats.bytes_written, uint64_t{256} << 10);
  EXPECT_LT(stats.peak_transient_bytes, stats.bytes_written);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fdb
