#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fdb/check/check.h"
#include "fdb/core/build.h"
#include "fdb/core/update.h"
#include "fdb/engine/csv.h"
#include "fdb/engine/database.h"
#include "fdb/storage/format.h"
#include "fdb/storage/snapshot.h"
#include "fdb/workload/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::InsertOp;
using testing::Row;

std::string TempPath(const std::string& name) {
  return testing::ProcessTempDir() + "/" + name;
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
/// branches.
Database MakePathDb(int64_t rows, const std::string& prefix) {
  Database db;
  AttrId a = db.Attr(prefix + "_a"), b = db.Attr(prefix + "_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x / 100), Value(x)});
  db.AddView("U", FactoriseRelation(r, {a, b}));
  return db;
}

/// The files beside the base at `path` whose names extend its own
/// (`<path>.delta-1`, `<path>.tmp`, ...). A checkpoint leaves none.
std::vector<std::string> FilesBeside(const std::string& path) {
  std::filesystem::path p(path);
  std::string prefix = p.filename().string() + ".";
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(p.parent_path())) {
    std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

/// Every view of `a` flattens to the same rows in `b`.
void ExpectSameViews(const Database& a, const Database& b) {
  ASSERT_EQ(a.ViewNames(), b.ViewNames());
  for (const std::string& v : a.ViewNames()) {
    EXPECT_EQ(FlattenCsv(*a.view(v), a.registry()),
              FlattenCsv(*b.view(v), b.registry()))
        << v;
  }
}

TEST(StorageCheckpointTest, FirstCheckpointWritesABase) {
  std::string path = TempPath("ckpt_first.fdbs");
  Database db = MakePathDb(100, "ckf");
  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kBase);
  EXPECT_GT(info.bytes, 0u);
  EXPECT_TRUE(FilesBeside(path).empty());
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 100);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, CheckpointAfterCommitsWritesOneBaseThatReopens) {
  std::string path = TempPath("ckpt_commits.fdbs");
  std::string mono = TempPath("ckpt_mono.fdbs");
  Database db = MakePathDb(5000, "ckd");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  for (int64_t i = 0; i < 20; ++i) {
    db.Commit({InsertOp("U", Row({0, 100000 + i}))});
  }
  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kBase);
  EXPECT_EQ(info.bytes,
            static_cast<uint64_t>(std::filesystem::file_size(path)));
  EXPECT_TRUE(FilesBeside(path).empty());

  // The checkpoint opens to exactly the state a Save of the same database
  // produces.
  db.Save(mono);
  Database via_ckpt = Database::Open(path);
  Database via_mono = Database::Open(mono);
  ASSERT_NE(via_ckpt.view("U"), nullptr);
  EXPECT_EQ(via_ckpt.view("U")->CountTuples(), 5020);
  ExpectSameViews(via_ckpt, via_mono);
  std::remove(path.c_str());
  std::remove(mono.c_str());
}

TEST(StorageCheckpointTest, NoChangesIsANoop) {
  std::string path = TempPath("ckpt_noop.fdbs");
  Database db = MakePathDb(50, "ckn");
  Relation flat = testing::MakeRelation(&db, {"ckn_x"}, {{1}, {2}});
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  std::string base = ReadFile(path);
  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kNoop);
  EXPECT_EQ(info.bytes, 0u);
  EXPECT_EQ(ReadFile(path), base);  // nothing written
  EXPECT_TRUE(FilesBeside(path).empty());
  ExpectSameViews(Database::Open(path), db);

  // A published view, a re-published relation and registry growth each
  // make the next checkpoint write; after each, an idle one is a noop
  // again.
  const std::vector<std::function<void()>> changes = {
      [&] { db.Commit({InsertOp("U", Row({1, 99999}))}); },
      [&] { db.AddRelation("Flat", flat); },
      [&] { db.Attr("ckn_new_attr"); },
  };
  for (size_t i = 0; i < changes.size(); ++i) {
    changes[i]();
    EXPECT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase) << i;
    EXPECT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kNoop) << i;
  }
  Database fresh = Database::Open(path);
  ExpectSameViews(fresh, db);
  EXPECT_TRUE(fresh.relation("Flat")->BagEquals(*db.relation("Flat")));
  EXPECT_TRUE(fresh.registry().Find("ckn_new_attr").has_value());

  // A Save of the path counts as its last base too.
  db.Commit({InsertOp("U", Row({2, 1}))});
  db.Save(path);
  EXPECT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kNoop);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, DictRegistryAndRelationGrowthRideTheDelta) {
  // New strings (out of rank order), big integers, registry names and a
  // re-published relation all land in the checkpoint's base and come
  // back at open.
  std::string path = TempPath("ckpt_dict.fdbs");
  Database db;
  AttrId a = db.Attr("ckg_a"), b = db.Attr("ckg_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < 2000; ++x) r.Add({Value(x / 100), Value(x)});
  db.AddView("U", FactoriseRelation(r, {a, b}));
  db.AddRelation("Flat", std::move(r));
  // Strings sorting before existing dictionary content force a non-
  // identity remap on open.
  db.AddView("S", [&] {
    AttrId s = db.Attr("ckg_s");
    FTree t;
    t.AddNode({s}, -1);
    return Factorisation(t, {MakeLeaf({Value("mm ckpt")})});
  }());
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  int64_t big = (int64_t{1} << 52) + 99;
  db.Commit({InsertOp("S", {Value("aa ckpt")}),    // new string, rank-shifting
             InsertOp("S", {Value("zz ckpt")})});   // new string, appending
  db.Commit({InsertOp("U", Row({7777, 1}))});
  db.Attr("ckg_new_attr");  // registry growth
  {
    Relation r2{RelSchema({a, b})};
    r2.Add({Value(int64_t{1}), Value(big)});  // big int via the relation
    db.AddRelation("Flat", std::move(r2));    // re-published relation
  }
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  std::string mono = TempPath("ckpt_dict_mono.fdbs");
  db.Save(mono);
  Database via_ckpt = Database::Open(path);
  Database via_mono = Database::Open(mono);
  ExpectSameViews(via_ckpt, via_mono);
  EXPECT_TRUE(via_ckpt.relation("Flat")->BagEquals(*db.relation("Flat")));
  EXPECT_TRUE(via_ckpt.registry().Find("ckg_new_attr").has_value());
  std::remove(path.c_str());
  std::remove(mono.c_str());
}

TEST(StorageCheckpointTest, CompactedViewStillCheckpointsCorrectly) {
  // Compaction copies every live node to fresh addresses; the checkpoint
  // after it must still capture the view.
  std::string path = TempPath("ckpt_compact.fdbs");
  Database db = MakePathDb(1000, "ckp");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  Factorisation next = *db.ViewSnapshot("U");
  testing::InsertOne(&next, Row({99991, 1}));
  next.Compact();
  db.AddView("U", std::move(next));
  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kBase);
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 1001);
  EXPECT_TRUE(ContainsTuple(*fresh.view("U"), Row({99991, 1})));
  ExpectSameViews(fresh, db);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, RebaseByAnotherWriterForcesRebaseNotOrphanedDelta) {
  // A second writer (here: a Database copy, which deliberately does not
  // share checkpoint state) replaces the base. The first writer's next
  // checkpoint after a change writes its own base, which reopens to its
  // state.
  std::string path = TempPath("ckpt_twowriters.fdbs");
  Database a = MakePathDb(150, "ckw");
  ASSERT_EQ(a.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  a.Commit({InsertOp("U", Row({70001, 1}))});
  ASSERT_EQ(a.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  Database b = a;  // no checkpoint state of its own
  EXPECT_EQ(b.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  EXPECT_TRUE(FilesBeside(path).empty());

  a.Commit({InsertOp("U", Row({70002, 1}))});
  storage::CheckpointInfo info = a.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kBase);
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 152);
  EXPECT_TRUE(ContainsTuple(*fresh.view("U"), Row({70002, 1})));
  ExpectSameViews(fresh, a);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, PathAliasSpellingsShareOneChain) {
  // A Save through an alias spelling of the checkpointed path writes the
  // same canonical file, so it counts as that path's last base.
  std::string path = TempPath("ckpt_alias.fdbs");
  std::string alias = testing::ProcessTempDir() + "/./ckpt_alias.fdbs";
  Database db = MakePathDb(120, "cka");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  db.Commit({InsertOp("U", Row({60001, 1}))});
  db.Save(alias);
  EXPECT_TRUE(FilesBeside(path).empty());
  EXPECT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kNoop);
  db.Commit({InsertOp("U", Row({60002, 1}))});
  ASSERT_EQ(db.Checkpoint(alias).kind, storage::CheckpointInfo::kBase);
  Database fresh = Database::Open(path);
  EXPECT_EQ(fresh.view("U")->CountTuples(), 122);
  EXPECT_TRUE(ContainsTuple(*fresh.view("U"), Row({60002, 1})));
  ExpectSameViews(fresh, db);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, RepublishedFromScratchViewFallsBackToFullDump) {
  // AddView of a factorisation rebuilt from scratch (same f-tree, fresh
  // arenas) and updates after it both reach the next checkpoint.
  std::string path = TempPath("ckpt_republish.fdbs");
  Database db = MakePathDb(400, "ckr");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  {
    AttrId a = *db.registry().Find("ckr_a"), b = *db.registry().Find("ckr_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x = 0; x < 430; ++x) r.Add({Value(x / 100), Value(x)});
    db.AddView("U", FactoriseRelation(r, {a, b}));  // from-scratch rebuild
  }
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  std::vector<storage::WalOp> ops;
  for (int64_t i = 0; i < 50; ++i) {
    ops.push_back(InsertOp("U", Row({9, 100000 + i})));
  }
  db.Commit(std::move(ops));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  std::string mono = TempPath("ckpt_republish_mono.fdbs");
  db.Save(mono);
  Database via_ckpt = Database::Open(path);
  Database via_mono = Database::Open(mono);
  EXPECT_EQ(via_ckpt.view("U")->CountTuples(), 480);
  ExpectSameViews(via_ckpt, via_mono);
  std::remove(path.c_str());
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

  db.Commit({InsertOp("U", Row({1000, 1}))});
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

TEST(StorageCheckpointTest, LeftoverDeltaOfAnOlderBuildIsRefused) {
  // Older builds appended checkpoint deltas beside the base and stamped
  // the WAL to follow them. Opening the base alone would silently drop
  // their changes, so Open refuses, naming the file, and the checker
  // reports it.
  std::string path = TempPath("ckpt_leftover.fdbs");
  std::string leftover = path + ".delta-1";
  Database db = MakePathDb(300, "cks");
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  WriteFile(leftover, "a delta file of an older build");

  try {
    Database::Open(path);
    ADD_FAILURE() << "opened a base with a leftover delta beside it";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(leftover), std::string::npos)
        << e.what();
  }
  check::Report r;
  check::CheckChainFiles(path, &r);
  ASSERT_EQ(r.issues.size(), 1u) << r.ToString();
  EXPECT_EQ(r.issues[0].check, "chain-envelope");
  EXPECT_NE(r.issues[0].detail.find(leftover), std::string::npos)
      << r.ToString();

  std::remove(leftover.c_str());
  check::Report clean;
  check::CheckChainFiles(path, &clean);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
  EXPECT_EQ(Database::Open(path).view("U")->CountTuples(), 300);
  std::remove(path.c_str());
}

TEST(StorageCheckpointTest, DagBigIntAndRemapCasesSurviveCheckpoints) {
  // The storage_snapshot_test trio (DAG sharing, big ints, dictionary
  // remap) through a base and two checkpoints after changes.
  std::string path = TempPath("ckpt_mixed.fdbs");
  ValueDict::Default().Encode(Value("zz ckpt-remap"));
  ValueDict::Default().Encode(Value("aa ckpt-remap"));
  Database db;
  // DAG-shared view, untouched across the checkpoints.
  db.AddView("Dag", testing::MakeSwapDag(&db, "ckm"));
  // Mixed-type path view that the checkpoints will grow.
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
  db.Commit({InsertOp("Mix", {Value(big)}),
             InsertOp("Mix", {Value("aa ckpt-remap")})});
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  db.Commit({InsertOp("Mix", {Value(2.5)}),
             InsertOp("Mix", {Value("zz ckpt-remap")})});
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  EXPECT_TRUE(FilesBeside(path).empty());

  std::string mono = TempPath("ckpt_mixed_mono.fdbs");
  db.Save(mono);
  Database via_ckpt = Database::Open(path);
  Database via_mono = Database::Open(mono);
  ExpectSameViews(via_ckpt, via_mono);
  // DAG sharing preserved through the checkpoints.
  const FactNode* dag = via_ckpt.view("Dag")->roots()[0];
  EXPECT_EQ(dag->child(0, 1, 0)->child(0, 1, 0),
            dag->child(1, 1, 0)->child(0, 1, 0));
  std::remove(path.c_str());
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
