#include "fdb/storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<int64_t>(in.tellg()) : -1;
}

/// A database with one updatable two-attribute view "V" over `rows`
/// tuples (x/10, x), plus a WAL bound at `path`.
Database MakeWalDb(const std::string& path, int64_t rows,
                   const std::string& prefix) {
  Database db;
  AttrId a = db.Attr(prefix + "_a"), b = db.Attr(prefix + "_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x / 10), Value(x)});
  db.AddView("V", FactoriseRelation(r, {a, b}));
  db.EnableWal(path);
  return db;
}

class WalGuard {
 public:
  ~WalGuard() { storage::IoEnv::Instance().ClearFailpoints(); }
};

TEST(WalTest, AutocommitIsDurable) {
  std::string path = TempPath("wal_auto.fdbs");
  Database db = MakeWalDb(path, 50, "wa");
  db.Insert("V", Row({100, 1000}));
  db.Delete("V", Row({0, 0}));

  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({100, 1000})));
  EXPECT_FALSE(ContainsTuple(*re.view("V"), Row({0, 0})));
  EXPECT_EQ(FlattenCsv(*re.view("V"), re.registry()),
            FlattenCsv(*db.view("V"), db.registry()));
}

TEST(WalTest, CommitGroupIsDurableAndAtomic) {
  std::string path = TempPath("wal_commit.fdbs");
  Database db = MakeWalDb(path, 50, "wc");
  db.Begin();
  for (int64_t i = 0; i < 20; ++i) db.Insert("V", Row({200, 2000 + i}));
  db.Delete("V", Row({1, 11}));
  EXPECT_GT(db.Commit(), 0u);

  Database re = Database::Open(path);
  EXPECT_EQ(re.view("V")->CountTuples(), 50 - 1 + 20);
  EXPECT_EQ(FlattenCsv(*re.view("V"), re.registry()),
            FlattenCsv(*db.view("V"), db.registry()));
}

TEST(WalTest, RollbackDiscardsPendingOps) {
  std::string path = TempPath("wal_rollback.fdbs");
  Database db = MakeWalDb(path, 50, "wr");
  db.Begin();
  db.Insert("V", Row({300, 3000}));
  db.Rollback();
  EXPECT_FALSE(ContainsTuple(*db.view("V"), Row({300, 3000})));
  Database re = Database::Open(path);
  EXPECT_EQ(re.view("V")->CountTuples(), 50);
}

TEST(WalTest, UncommittedGroupIsNotReplayed) {
  std::string path = TempPath("wal_uncommitted.fdbs");
  Database db = MakeWalDb(path, 50, "wu");
  db.Insert("V", Row({9, 90}));
  db.Begin();
  db.Insert("V", Row({400, 4000}));
  // No Commit: the process "dies" with the group buffered in memory only.
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({9, 90})));
  EXPECT_FALSE(ContainsTuple(*re.view("V"), Row({400, 4000})));
}

TEST(WalTest, TornTailIsTruncatedAtRecovery) {
  std::string path = TempPath("wal_torn.fdbs");
  {
    Database db = MakeWalDb(path, 50, "wt");
    db.Insert("V", Row({500, 5000}));
    db.Insert("V", Row({501, 5001}));
  }
  // A torn frame: garbage where the next commit would have gone.
  std::string wal = ReadFile(storage::WalPath(path));
  WriteFile(storage::WalPath(path), wal + std::string(13, '\x7f'));

  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({500, 5000})));
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({501, 5001})));
  EXPECT_EQ(re.view("V")->CountTuples(), 52);
}

TEST(WalTest, CorruptFrameDropsItAndTheSuffix) {
  std::string path = TempPath("wal_corrupt.fdbs");
  {
    Database db = MakeWalDb(path, 50, "wx");
    db.Insert("V", Row({600, 6000}));
    db.Insert("V", Row({601, 6001}));
    db.Insert("V", Row({602, 6002}));
  }
  std::string wal = ReadFile(storage::WalPath(path));
  // Flip one bit in the second frame's payload region: recovery must
  // keep group 1 and drop groups 2 and 3 (prefix consistency).
  size_t frame1_end = sizeof(storage::WalHeader) + (wal.size() -
                      sizeof(storage::WalHeader)) / 3;
  wal[frame1_end + 30] ^= 0x01;
  WriteFile(storage::WalPath(path), wal);

  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({600, 6000})));
  EXPECT_FALSE(ContainsTuple(*re.view("V"), Row({602, 6002})));
}

TEST(WalTest, CheckpointFoldsAndResetsTheLog) {
  std::string path = TempPath("wal_fold.fdbs");
  Database db = MakeWalDb(path, 50, "wf");
  db.Insert("V", Row({700, 7000}));
  EXPECT_GT(FileSize(storage::WalPath(path)),
            static_cast<int64_t>(sizeof(storage::WalHeader)));

  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kBase);
  // Folded: the log is back to a bare header, stamped with the new
  // base's epoch alone...
  EXPECT_EQ(FileSize(storage::WalPath(path)),
            static_cast<int64_t>(sizeof(storage::WalHeader)));
  storage::WalHeader h;
  std::memcpy(&h, ReadFile(storage::WalPath(path)).data(), sizeof(h));
  ASSERT_TRUE(db.PersistSnapshot().has_value());
  EXPECT_EQ(h.epoch, db.PersistSnapshot()->epoch);
  EXPECT_EQ(h.reserved, 0u);
  // ...and replay comes from the base alone.
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({700, 7000})));
  EXPECT_EQ(re.view("V")->CountTuples(), 51);

  // Post-fold commits land in the fresh log and replay on top.
  db.Insert("V", Row({701, 7001}));
  Database re2 = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re2.view("V"), Row({701, 7001})));
  EXPECT_EQ(re2.view("V")->CountTuples(), 52);
}

TEST(WalTest, SaveFoldsAndResetsTheLog) {
  std::string path = TempPath("wal_save_fold.fdbs");
  Database db = MakeWalDb(path, 50, "ws");
  db.Insert("V", Row({800, 8000}));
  db.Save(path);
  EXPECT_EQ(FileSize(storage::WalPath(path)),
            static_cast<int64_t>(sizeof(storage::WalHeader)));
  db.Insert("V", Row({801, 8001}));
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({800, 8000})));
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({801, 8001})));
}

TEST(WalTest, StaleLogIsIgnoredWhole) {
  std::string path = TempPath("wal_stale.fdbs");
  Database db = MakeWalDb(path, 50, "wg");
  db.Insert("V", Row({900, 9000}));
  std::string old_log = ReadFile(storage::WalPath(path));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  // A crashed checkpoint can leave the pre-checkpoint log behind; its
  // stamp predates the base, so replay must skip it entirely — the base
  // already holds group 1, and replaying it again would be wrong for
  // deletes.
  WriteFile(storage::WalPath(path), old_log);

  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({900, 9000})));
  EXPECT_EQ(re.view("V")->CountTuples(), 51);
}

TEST(WalTest, EnableWalStampsTheBaseOnDisk) {
  // Another writer (a copy) replaced the base after this database last
  // saved it, with nothing changed here since. EnableWal must still write
  // a base: a log stamped with this database's old epoch would be
  // skipped at Open, losing every commit acknowledged through it.
  std::string path = TempPath("wal_enable_stamp.fdbs");
  Database db = MakeWalDb(path, 50, "wes");
  db.DisableWal();
  Database other = db;
  ASSERT_EQ(other.Checkpoint(path).kind, storage::CheckpointInfo::kBase);

  db.EnableWal(path);
  db.Insert("V", Row({400, 4000}));
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({400, 4000})));
  EXPECT_EQ(re.view("V")->CountTuples(), 51);
}

TEST(WalTest, StringTuplesRoundTrip) {
  std::string path = TempPath("wal_strings.fdbs");
  Database db;
  AttrId a = db.Attr("wstr_a"), b = db.Attr("wstr_b");
  Relation r{RelSchema({a, b})};
  r.Add({Value("alpha"), Value(int64_t{1})});
  r.Add({Value("beta"), Value(int64_t{2})});
  db.AddView("V", FactoriseRelation(r, {a, b}));
  db.EnableWal(path);

  db.Begin();
  db.Insert("V", {Value("gamma"), Value(int64_t{3})});
  db.Insert("V", {Value("delta with spaces \x01\x02"), Value(int64_t{4})});
  db.Delete("V", {Value("alpha"), Value(int64_t{1})});
  db.Commit();

  Database re = Database::Open(path);
  EXPECT_TRUE(
      ContainsTuple(*re.view("V"), {Value("gamma"), Value(int64_t{3})}));
  EXPECT_TRUE(ContainsTuple(
      *re.view("V"), {Value("delta with spaces \x01\x02"), Value(int64_t{4})}));
  EXPECT_FALSE(
      ContainsTuple(*re.view("V"), {Value("alpha"), Value(int64_t{1})}));
  EXPECT_EQ(re.view("V")->CountTuples(), 3);
}

TEST(WalTest, CommitFsyncFailureLeavesTxnOpenAndRetryable) {
  WalGuard guard;
  std::string path = TempPath("wal_fsync_fail.fdbs");
  Database db = MakeWalDb(path, 50, "wfs");
  db.Begin();
  db.Insert("V", Row({123, 1234}));
  storage::IoEnv::Instance().SetFailpoints("wal_fsync:1");
  EXPECT_THROW(db.Commit(), std::invalid_argument);
  // The group was not acknowledged and must not have been applied.
  EXPECT_FALSE(ContainsTuple(*db.view("V"), Row({123, 1234})));
  EXPECT_TRUE(db.WalStatus().in_txn);

  storage::IoEnv::Instance().ClearFailpoints();
  EXPECT_GT(db.Commit(), 0u);  // retry: torn tail truncated, then appended
  EXPECT_TRUE(ContainsTuple(*db.view("V"), Row({123, 1234})));
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({123, 1234})));
  EXPECT_EQ(re.view("V")->CountTuples(), 51);
}

TEST(WalTest, FailedCheckpointRefusesCommitsUntilABaseIsWritten) {
  // The directory fsync fails after the new base was renamed over the
  // old one: the log is still stamped for the old base, so Open would
  // skip it. A commit acknowledged now would be lost; it must be refused
  // until a checkpoint writes a base and resets the log.
  WalGuard guard;
  std::string path = TempPath("wal_ckpt_fail.fdbs");
  Database db = MakeWalDb(path, 50, "wcf");
  db.Insert("V", Row({300, 3000}));
  storage::IoEnv::Instance().SetFailpoints("dir_fsync:1");
  EXPECT_THROW(db.Checkpoint(path), std::invalid_argument);
  storage::IoEnv::Instance().ClearFailpoints();

  EXPECT_TRUE(db.WalStatus().broken);
  EXPECT_THROW(db.Insert("V", Row({301, 3001})), std::invalid_argument);
  EXPECT_FALSE(ContainsTuple(*db.view("V"), Row({301, 3001})));

  EXPECT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kBase);
  EXPECT_FALSE(db.WalStatus().broken);
  db.Insert("V", Row({301, 3001}));
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({300, 3000})));
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({301, 3001})));
  EXPECT_EQ(re.view("V")->CountTuples(), 52);
}

TEST(WalTest, OneFsyncPerCommitGroup) {
  std::string path = TempPath("wal_one_fsync.fdbs");
  Database db = MakeWalDb(path, 50, "wof");
  storage::IoEnv& io = storage::IoEnv::Instance();
  io.ResetCounts();
  db.Begin();
  for (int64_t i = 0; i < 100; ++i) db.Insert("V", Row({77, 10000 + i}));
  db.Commit();
  EXPECT_EQ(io.Count("wal_fsync"), 1u);
  EXPECT_EQ(io.Count("wal_write"), 1u);
}

TEST(WalTest, WalStatusReportsPendingAndCommitted) {
  std::string path = TempPath("wal_status.fdbs");
  Database db = MakeWalDb(path, 50, "wst");
  storage::WalStatus s0 = db.WalStatus();
  EXPECT_TRUE(s0.enabled);
  EXPECT_FALSE(s0.in_txn);
  EXPECT_EQ(s0.committed_groups, 0u);
  EXPECT_EQ(s0.pending_ops, 0u);

  db.Begin();
  db.Insert("V", Row({42, 420}));
  db.Insert("V", Row({42, 421}));
  storage::WalStatus s1 = db.WalStatus();
  EXPECT_TRUE(s1.in_txn);
  EXPECT_EQ(s1.pending_ops, 2u);
  EXPECT_GT(s1.pending_bytes, 0u);

  db.Commit();
  storage::WalStatus s2 = db.WalStatus();
  EXPECT_FALSE(s2.in_txn);
  EXPECT_EQ(s2.pending_ops, 0u);
  EXPECT_EQ(s2.committed_groups, 1u);
  EXPECT_GT(s2.wal_bytes, static_cast<uint64_t>(sizeof(storage::WalHeader)));
}

TEST(WalTest, ValidationIsEagerAndLeavesNothingBehind) {
  std::string path = TempPath("wal_validate.fdbs");
  Database db = MakeWalDb(path, 50, "wv");
  EXPECT_THROW(db.Insert("nope", Row({1, 2})), std::invalid_argument);
  EXPECT_THROW(db.Insert("V", Row({1, 2, 3})), std::invalid_argument);
  db.Begin();
  db.Insert("V", Row({1000, 10000}));
  EXPECT_THROW(db.Insert("V", Row({1})), std::invalid_argument);
  db.Commit();
  Database re = Database::Open(path);
  EXPECT_EQ(re.view("V")->CountTuples(), 51);
}

TEST(WalTest, DisableWalFoldsAndRemovesTheLog) {
  std::string path = TempPath("wal_disable.fdbs");
  Database db = MakeWalDb(path, 50, "wd");
  db.Insert("V", Row({11, 111}));
  db.DisableWal();
  EXPECT_FALSE(db.wal_enabled());
  EXPECT_EQ(FileSize(storage::WalPath(path)), -1);  // file removed
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({11, 111})));
}

TEST(WalTest, TransactionStateErrors) {
  std::string path = TempPath("wal_errors.fdbs");
  Database db = MakeWalDb(path, 10, "we");
  EXPECT_THROW(db.Commit(), std::invalid_argument);
  EXPECT_THROW(db.Rollback(), std::invalid_argument);
  db.Begin();
  EXPECT_THROW(db.Begin(), std::invalid_argument);
  EXPECT_THROW(db.EnableWal(path), std::invalid_argument);
  EXPECT_THROW(db.DisableWal(), std::invalid_argument);
  EXPECT_EQ(db.Commit(), 0u);  // empty group: nothing to log
}

TEST(WalTest, TransactionsWorkWithoutAWal) {
  // Begin/Commit batching is useful purely in memory too (one rebuild
  // per union per group); there is just no durability.
  Database db;
  AttrId a = db.Attr("nw_a"), b = db.Attr("nw_b");
  Relation r{RelSchema({a, b})};
  r.Add(Row({1, 2}));
  db.AddView("V", FactoriseRelation(r, {a, b}));
  db.Begin();
  db.Insert("V", Row({3, 4}));
  db.Insert("V", Row({5, 6}));
  EXPECT_EQ(db.Commit(), 0u);
  EXPECT_EQ(db.view("V")->CountTuples(), 3);
}

TEST(WalTest, CorruptPayloadInValidFrameNamesPathAndOffset) {
  std::string path = TempPath("wal_diag.fdbs");
  {
    Database db = MakeWalDb(path, 10, "wdx");
    db.Insert("V", Row({1, 2}));
  }
  // Forge a CRC-valid frame whose payload is garbage: recovery must
  // refuse loudly (this is not a torn tail) and say where.
  std::string wal = ReadFile(storage::WalPath(path));
  storage::WalFrameHeader frame{};
  std::string payload(3, '\xff');  // kind 255: invalid
  frame.size = static_cast<uint32_t>(payload.size());
  frame.seq = 2;
  frame.count = 1;
  std::string buf(reinterpret_cast<const char*>(&frame), sizeof(frame));
  buf += payload;
  uint32_t crc = storage::Crc32(buf.data() + sizeof(uint32_t),
                                buf.size() - sizeof(uint32_t));
  std::memcpy(buf.data(), &crc, sizeof(crc));
  WriteFile(storage::WalPath(path), wal + buf);

  try {
    Database::Open(path);
    FAIL() << "corrupt payload in a CRC-valid frame must throw";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(storage::WalPath(path)), std::string::npos) << msg;
    EXPECT_NE(msg.find("at byte"), std::string::npos) << msg;
  }
}

TEST(WalTest, GroupNamingAViewAbsentFromTheBaseIsRefused) {
  // Commits only log views that exist, and EnableWal wrote them into the
  // base: a CRC-valid group stamped for this base that names another view
  // is damage, and Open must say which log and which view.
  std::string path = TempPath("wal_unknown_view.fdbs");
  uint64_t epoch = 0;
  {
    Database db = MakeWalDb(path, 10, "wuv");
    ASSERT_TRUE(db.PersistSnapshot().has_value());
    epoch = db.PersistSnapshot()->epoch;
  }
  {
    std::unique_ptr<storage::Wal> wal = storage::Wal::Create(path, epoch);
    wal->Append({testing::InsertOp("V", Row({1, 2})),
                 testing::InsertOp("Ghost", Row({3, 4}))});
  }
  try {
    Database::Open(path);
    FAIL() << "a group naming an unknown view must throw";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(storage::WalPath(path)), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown view 'Ghost'"), std::string::npos) << msg;
  }
}

TEST(WalTest, SnapshotParseErrorsNamePathAndOffset) {
  std::string path = TempPath("wal_diag_snap.fdbs");
  Database db = MakeWalDb(path, 10, "wds");
  db.DisableWal();
  std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, bytes.size() / 2));  // truncate
  try {
    Database::Open(path);
    FAIL() << "truncated snapshot must throw";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace fdb
