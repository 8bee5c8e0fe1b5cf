// Crash-recovery harness: kills the storage write path at randomized
// points through a mixed insert/delete/checkpoint workload and asserts
// that every recovery yields a committed-prefix-consistent database —
// the state equals a shadow replay of the first m acknowledged commit
// groups, with S <= m <= A (S = groups acked before the crash, A = S
// plus the possibly-durable in-flight group; after an fsync that failed
// late, the frame may legitimately be on disk).
//
// The "crash" is IoEnv's sticky-dead fault injection: the k-th shimmed
// I/O call fails (or tears mid-write) and every later one fails too, so
// nothing the process "did" after the crash point can reach disk. Kill
// points k are drawn over the calibrated call count of the whole
// workload, so crashes land in WAL appends, fsyncs, checkpoint base
// writes, renames and directory syncs alike.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/update.h"
#include "fdb/engine/csv.h"
#include "fdb/engine/database.h"
#include "fdb/storage/io_env.h"
#include "fdb/storage/snapshot.h"
#include "fdb/storage/wal.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::Row;

constexpr int64_t kInitialRows = 200;
constexpr int kSteps = 30;

std::string FlattenCsv(const Factorisation& f, const AttributeRegistry& reg) {
  std::ostringstream out;
  WriteCsv(f.Flatten(), reg, out);
  return out.str();
}

Factorisation MakeInitialView(AttributeRegistry* reg) {
  AttrId a = reg->Intern("cr_a"), b = reg->Intern("cr_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < kInitialRows; ++x) r.Add({Value(x / 10), Value(x)});
  return FactoriseRelation(r, {a, b});
}

Database MakeInitialDb(const std::string& path) {
  Database db;
  db.AddView("V", MakeInitialView(&db.registry()));
  db.EnableWal(path);
  return db;
}

// One scripted step: a commit group, or a persistence call.
struct Step {
  enum Kind { kCommit, kCheckpoint, kSave } kind = kCommit;
  std::vector<BatchOp> ops;  // for kCommit
};

// The deterministic workload script. Group ops draw from a small key
// space so deletes hit real tuples and inserts collide with existing
// prefixes; every iteration replays the same script so the shadow and
// the crashed run agree op for op.
std::vector<Step> MakeScript(uint32_t seed, bool with_persistence) {
  std::mt19937 rng(seed);
  std::vector<Step> script;
  for (int s = 0; s < kSteps; ++s) {
    uint32_t r = rng() % 100;
    if (with_persistence && r < 12) {
      script.push_back({Step::kCheckpoint, {}});
      continue;
    }
    if (with_persistence && r < 16) {
      script.push_back({Step::kSave, {}});
      continue;
    }
    Step st;
    size_t k = 1 + rng() % 8;
    for (size_t i = 0; i < k; ++i) {
      BatchOp op;
      op.insert = rng() % 3 != 0;  // 2/3 inserts, 1/3 deletes
      int64_t x = static_cast<int64_t>(rng() % (kInitialRows + 100));
      op.tuple = Row({x / 10, x});
      st.ops.push_back(std::move(op));
    }
    script.push_back(std::move(st));
  }
  return script;
}

// Shadow replay: the view's Flatten after each commit-group prefix.
// flat[m] is the expected state with exactly the first m groups applied.
std::vector<std::string> ShadowPrefixes(const std::vector<Step>& script) {
  AttributeRegistry reg;
  Factorisation shadow = MakeInitialView(&reg);
  std::vector<std::string> flat;
  flat.push_back(FlattenCsv(shadow, reg));
  for (const Step& st : script) {
    if (st.kind != Step::kCommit) continue;
    ApplyBatch(&shadow, st.ops);
    flat.push_back(FlattenCsv(shadow, reg));
  }
  return flat;
}

// Runs the script against `db`, stopping at the first injected failure.
// Returns (acked groups, attempted groups).
std::pair<size_t, size_t> RunScript(Database* db, const std::string& path,
                                    const std::vector<Step>& script) {
  size_t acked = 0, attempted = 0;
  try {
    for (const Step& st : script) {
      switch (st.kind) {
        case Step::kCommit:
          db->Begin();
          for (const BatchOp& op : st.ops) {
            if (op.insert) {
              db->Insert("V", op.tuple);
            } else {
              db->Delete("V", op.tuple);
            }
          }
          ++attempted;
          db->Commit();
          ++acked;
          break;
        case Step::kCheckpoint:
          db->Checkpoint(path);
          break;
        case Step::kSave:
          db->Save(path);
          break;
      }
    }
  } catch (const std::invalid_argument&) {
    // The crash: the process is "dead" from here on.
  }
  return {acked, attempted};
}

// One crashed run + recovery. Returns the recovered state's prefix index
// via assertion: FlattenCsv must equal some shadow prefix in
// [min_prefix, attempted].
void RunOneCrash(const std::string& dir, int iter, uint64_t kill_point,
                 const char* mode, const std::vector<Step>& script,
                 const std::vector<std::string>& shadow,
                 bool prefix_only) {
  storage::IoEnv& io = storage::IoEnv::Instance();
  std::string path = dir + "/crash_" + std::to_string(iter) + ".fdbs";
  size_t acked = 0, attempted = 0;
  {
    Database db = MakeInitialDb(path);  // not under fault injection
    io.SetFailpoints("any:" + std::to_string(kill_point) + ":" + mode);
    std::tie(acked, attempted) = RunScript(&db, path, script);
    io.ClearFailpoints();
  }

  Database re = Database::Open(path);
  std::string got = FlattenCsv(*re.view("V"), re.registry());
  size_t lo = prefix_only ? 0 : acked;
  bool matched = false;
  size_t matched_m = 0;
  for (size_t m = lo; m <= attempted && m < shadow.size(); ++m) {
    if (got == shadow[m]) {
      matched = true;
      matched_m = m;
      break;
    }
  }
  ASSERT_TRUE(matched) << "iteration " << iter << " kill=" << kill_point
                       << " mode=" << mode << ": recovered state matches no "
                       << "commit prefix in [" << lo << ", " << attempted
                       << "] (acked=" << acked << ")";
  EXPECT_GE(matched_m, lo);

  // Cleanup so 200+ iterations do not fill the temp dir.
  std::remove(storage::WalPath(path).c_str());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// Calibrates the workload's total shimmed-call count with no faults.
uint64_t Calibrate(const std::string& dir, const std::vector<Step>& script,
                   const std::vector<std::string>& shadow) {
  storage::IoEnv& io = storage::IoEnv::Instance();
  std::string path = dir + "/calibrate.fdbs";
  Database db = MakeInitialDb(path);
  io.ResetCounts();
  auto [acked, attempted] = RunScript(&db, path, script);
  uint64_t total = io.Count("any");
  EXPECT_EQ(acked, attempted);  // no faults: everything acks
  // Sanity: the fault-free run ends at the full shadow state.
  Database re = Database::Open(path);
  EXPECT_EQ(FlattenCsv(*re.view("V"), re.registry()), shadow.back());
  return total;
}

TEST(WalCrashTest, RandomizedKillPointsRecoverCommittedPrefix) {
  const std::string dir = ::testing::TempDir();
  std::vector<Step> script = MakeScript(20260808, /*with_persistence=*/true);
  std::vector<std::string> shadow = ShadowPrefixes(script);
  uint64_t total = Calibrate(dir, script, shadow);
  ASSERT_GT(total, 50u);  // enough distinct I/O calls to land kills in

  // >= 200 kill points: sticky-dead errors and torn (short) writes.
  // Recovery must land on a prefix no older than the acked count.
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 210; ++iter) {
    uint64_t k = 1 + rng() % total;
    const char* mode = iter % 5 == 4 ? "short" : "error";
    RunOneCrash(dir, iter, k, mode, script, shadow, /*prefix_only=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(WalCrashTest, BitFlipsNeverYieldTornState) {
  // Silent corruption (one flipped bit, write "succeeds") against a
  // commits-only workload: every flip lands in a WAL frame, the CRC
  // catches it, and recovery is still some exact commit prefix — never
  // a half-applied group. (The committed-suffix guarantee is about
  // crashes; corruption may legitimately cut earlier, so only
  // prefix-consistency is asserted.)
  const std::string dir = ::testing::TempDir();
  std::vector<Step> script = MakeScript(1123, /*with_persistence=*/false);
  std::vector<std::string> shadow = ShadowPrefixes(script);
  uint64_t total = Calibrate(dir, script, shadow);
  ASSERT_GT(total, 0u);

  std::mt19937_64 rng(11);
  for (int iter = 0; iter < 25; ++iter) {
    uint64_t k = 1 + rng() % total;
    RunOneCrash(dir, 1000 + iter, k, "flip", script, shadow,
                /*prefix_only=*/true);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace fdb
