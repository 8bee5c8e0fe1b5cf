#include "fdb/obs/log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/update.h"
#include "fdb/engine/database.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::Row;

std::string TempPath(const std::string& name) {
  return testing::ProcessTempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A small updatable database with one view "V".
Database MakeDb(int64_t rows, const std::string& prefix) {
  Database db;
  AttrId a = db.Attr(prefix + "_a"), b = db.Attr(prefix + "_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x / 10), Value(x)});
  db.AddView("V", FactoriseRelation(r, {a, b}));
  return db;
}

size_t CountEvents(const std::vector<obs::Event>& events, obs::EventType t) {
  size_t n = 0;
  for (const obs::Event& e : events) {
    if (e.type == t) ++n;
  }
  return n;
}

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetLogEnabled(true);
    obs::EventLog::Instance().Clear();
  }
  void TearDown() override {
    obs::EventLog::Instance().SetSinkPath("");
    obs::EventLog::Instance().Clear();
    obs::SetLogEnabled(false);
  }
};

TEST_F(LogTest, DisabledEmitIsANoOp) {
  obs::SetLogEnabled(false);
  obs::EventLog& log = obs::EventLog::Instance();
  uint64_t before = log.total_emitted();
  log.Emit(obs::EventType::kSave, {obs::F("path", "/x")});
  EXPECT_EQ(log.total_emitted(), before);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST_F(LogTest, SequenceIsDenseAndRingBounded) {
  obs::EventLog& log = obs::EventLog::Instance();
  uint64_t dropped_before = log.dropped();
  constexpr size_t kOver = 100;
  for (size_t i = 0; i < obs::EventLog::kRingCapacity + kOver; ++i) {
    log.Emit(obs::EventType::kSave,
             {obs::F("i", static_cast<int64_t>(i))});
  }
  std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), obs::EventLog::kRingCapacity);
  EXPECT_EQ(log.dropped() - dropped_before, kOver);
  // Dense, ascending seq: drops are detectable from gaps at the front.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_GE(log.total_emitted(),
            obs::EventLog::kRingCapacity + kOver);
}

TEST_F(LogTest, JsonlSinkAppendsOneObjectPerEvent) {
  std::string path = TempPath("events.jsonl");
  std::remove(path.c_str());
  obs::EventLog& log = obs::EventLog::Instance();
  log.SetSinkPath(path);
  log.Emit(obs::EventType::kCheckpoint,
           {obs::F("path", "a\"b"), obs::F("bytes", int64_t{42})});
  log.Emit(obs::EventType::kWalStall, {obs::F("stall_ms", 7.5)});
  log.SetSinkPath("");  // closes (and flushes) the sink

  std::string text = ReadFile(path);
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].front(), '{');
  EXPECT_EQ(got[0].back(), '}');
  EXPECT_NE(got[0].find("\"type\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(got[0].find("\"path\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(got[0].find("\"bytes\":42"), std::string::npos);
  EXPECT_NE(got[1].find("\"type\":\"wal_stall\""), std::string::npos);
  EXPECT_NE(got[1].find("\"stall_ms\":"), std::string::npos);
}

TEST_F(LogTest, SaveCheckpointAndRecoveryEvents) {
  std::string path = TempPath("log_events.fdbs");
  obs::EventLog& log = obs::EventLog::Instance();

  Database db = MakeDb(50, "le");
  db.Save(path);
  {
    std::vector<obs::Event> events = log.Snapshot();
    ASSERT_EQ(CountEvents(events, obs::EventType::kSave), 1u);
    const obs::Event& e = events.back();
    // Save canonicalises the path (symlinks resolved), so match on the
    // file name, not the raw temp path.
    EXPECT_NE(e.DetailString().find("log_events.fdbs"), std::string::npos)
        << e.DetailString();
    EXPECT_NE(e.DetailString().find("bytes="), std::string::npos);
    EXPECT_GT(e.wall_us, 0);
  }

  // The first checkpoint and the second (after a change) write a base, a
  // third with no changes is a noop — all three emit typed events.
  std::string ckpt = TempPath("log_events_ckpt.fdbs");
  db.Checkpoint(ckpt);
  db.Insert("V", Row({100, 1000}));
  db.Checkpoint(ckpt);
  db.Checkpoint(ckpt);
  {
    std::vector<obs::Event> events = log.Snapshot();
    EXPECT_EQ(CountEvents(events, obs::EventType::kCheckpoint), 3u);
    std::string all;
    for (const obs::Event& e : events) {
      if (e.type == obs::EventType::kCheckpoint) {
        all += e.DetailString() + "\n";
      }
    }
    size_t first_base = all.find("kind=base");
    ASSERT_NE(first_base, std::string::npos) << all;
    EXPECT_NE(all.find("kind=base", first_base + 1), std::string::npos)
        << all;
    EXPECT_NE(all.find("kind=noop"), std::string::npos) << all;
  }

  log.Clear();
  Database re = Database::Open(ckpt);
  {
    std::vector<obs::Event> events = log.Snapshot();
    ASSERT_EQ(CountEvents(events, obs::EventType::kRecovery), 1u);
    std::string detail = events.back().DetailString();
    // The insert went into the second base: the log it reset is empty.
    EXPECT_NE(detail.find("wal_groups_replayed=0"), std::string::npos)
        << detail;
    EXPECT_EQ(detail.find("deltas_replayed"), std::string::npos) << detail;
  }
}

TEST_F(LogTest, WalRecoveryAndStallEvents) {
  std::string path = TempPath("log_wal.fdbs");
  obs::EventLog& log = obs::EventLog::Instance();
  int64_t saved = log.wal_stall_ns();
  log.set_wal_stall_ns(0);  // every commit group "stalls"

  {
    Database db = MakeDb(30, "lw");
    db.EnableWal(path);
    db.Insert("V", Row({200, 2000}));
    std::vector<obs::Event> events = log.Snapshot();
    ASSERT_GE(CountEvents(events, obs::EventType::kWalStall), 1u);
    std::string detail = events.back().DetailString();
    EXPECT_NE(detail.find("ops=1"), std::string::npos) << detail;
    EXPECT_NE(detail.find("stall_ms="), std::string::npos) << detail;
  }
  log.set_wal_stall_ns(saved);

  log.Clear();
  Database re = Database::Open(path);
  std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(CountEvents(events, obs::EventType::kRecovery), 1u);
  std::string detail = events.back().DetailString();
  EXPECT_NE(detail.find("wal_groups_replayed=1"), std::string::npos)
      << detail;
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({200, 2000})));
}

TEST_F(LogTest, ThresholdsAreSettable) {
  obs::EventLog& log = obs::EventLog::Instance();
  int64_t slow = log.slow_query_ns();
  int64_t stall = log.wal_stall_ns();
  log.set_slow_query_ns(123);
  log.set_wal_stall_ns(456);
  EXPECT_EQ(log.slow_query_ns(), 123);
  EXPECT_EQ(log.wal_stall_ns(), 456);
  log.set_slow_query_ns(slow);
  log.set_wal_stall_ns(stall);
}

TEST_F(LogTest, EventTypeNamesAreStable) {
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kSlowQuery), "slow_query");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kRecovery), "recovery");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kSave), "save");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kCheckpoint),
               "checkpoint");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kWalStall), "wal_stall");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kPoolSaturation),
               "pool_saturation");
}

}  // namespace
}  // namespace fdb
