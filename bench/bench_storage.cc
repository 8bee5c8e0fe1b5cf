// Cold-open benchmark for the snapshot storage subsystem: measures how
// long Database::Save takes, how big the snapshot is, and how a cold
// Database::Open of the §6 materialised view compares against rebuilding
// the same view from CSV files (load three relations + FactoriseJoin) —
// the paper's read-optimised scenario restarting a serving process.
//
// Both sides are measured in one process right after the data was
// written, so the page cache is warm for the snapshot *and* the CSVs
// alike; "cold" means "no in-memory state reused", not "cold disk". The
// §6 workload is integer-only, so the open takes the dictionary identity
// fast path exactly as a fresh process would (nothing to intern either
// way) — the comparison is fair, just not a disk-latency measurement.
//
// A second phase measures checkpointing: a grouped trie view receives K
// updates, Database::Checkpoint writes a full base, and the
// per-checkpoint bytes/time are recorded against K — a checkpoint costs
// O(database), whatever K is — then an idle Checkpoint must write
// nothing (kNoop). The streaming writer's peak transient allocation is
// recorded alongside the file size (the pre-streaming writer buffered
// the whole file plus the segment arrays: ~3x file size).
//
// A third phase measures WAL group commit: single-op autocommits (one
// fsync each) vs Begin/Commit groups (one fsync per group), plus the
// cold-open replay cost of the resulting log.
//
// Usage: bench_storage [scale]          (default 8)
// Emits BENCH_storage_open.json, BENCH_storage_checkpoint.json and
// BENCH_storage_wal.json in the working directory. No google-benchmark dependency: one timed run per
// phase is the honest measurement here (save/open are I/O-shaped,
// rebuild dominates by far).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_metrics.h"
#include "fdb/core/build.h"
#include "fdb/core/update.h"
#include "fdb/engine/csv.h"
#include "fdb/engine/database.h"
#include "fdb/obs/metrics.h"
#include "fdb/storage/io_env.h"
#include "fdb/storage/snapshot.h"
#include "fdb/workload/generator.h"

using namespace fdb;
using bench::SubsystemSeconds;
using bench::TimedIntoRegistry;
namespace fs = std::filesystem;

int main(int argc, char** argv) {
  // All durations below are read back out of the metrics registry
  // (histogram sum deltas), not local stopwatches, so the JSON fields
  // and a live \metrics dump can never disagree.
  obs::SetMetricsEnabled(true);
  int scale = argc > 1 ? std::atoi(argv[1]) : 8;
  if (scale < 1) scale = 1;

  fs::path dir =
      fs::temp_directory_path() / ("fdb_bench_storage_" + std::to_string(scale));
  fs::create_directories(dir);
  std::string snap_path = (dir / "r1.fdbs").string();

  // --- build the workload once and stage its CSVs -------------------------
  Database db;
  int64_t singletons = InstallWorkload(&db, SmallParams(scale), "R1");
  for (const char* rel : {"Orders", "Packages", "Items"}) {
    SaveCsvRelation(*db.relation(rel), db.registry(),
                    (dir / (std::string(rel) + ".csv")).string());
  }

  // The serving artifact of the read-optimised scenario: the materialised
  // view, persisted. Base relations stay upstream (the CSVs); a serving
  // restart only needs the view back. Registry names are interned in id
  // order so the view's attribute ids stay valid.
  Database serving;
  for (AttrId id = 0; id < db.registry().size(); ++id) {
    serving.Attr(db.registry().Name(id));
  }
  serving.AddView("R1", *db.view("R1"));

  // --- save (streamed; record the writer's peak transient allocation) -----
  storage::SaveStats save_stats;
  double save_seconds = TimedIntoRegistry("storage_save", [&] {
    storage::SaveSnapshot(serving, snap_path, &save_stats);
  });
  auto save_bytes = static_cast<int64_t>(fs::file_size(snap_path));

  // --- rebuild from CSV (what a restart costs without snapshots) ----------
  Database rebuilt;
  double rebuild_seconds = TimedIntoRegistry("storage_rebuild_csv", [&] {
  for (const char* rel : {"Orders", "Packages", "Items"}) {
    LoadCsvRelation(&rebuilt, rel, (dir / (std::string(rel) + ".csv")).string());
  }
  {
    AttributeRegistry& reg = rebuilt.registry();
    AttrId customer = reg.Intern("customer"), date = reg.Intern("date"),
           package = reg.Intern("package"), item = reg.Intern("item"),
           price = reg.Intern("price");
    // The f-tree T of §6: package → {date → customer, item → price}.
    FTree t;
    int n_package = t.AddNode({package}, -1);
    int n_date = t.AddNode({date}, n_package);
    t.AddNode({customer}, n_date);
    int n_item = t.AddNode({item}, n_package);
    t.AddNode({price}, n_item);
    t.AddEdge({{customer, date, package},
               static_cast<double>(rebuilt.relation("Orders")->size()),
               "Orders"});
    t.AddEdge({{item, package},
               static_cast<double>(rebuilt.relation("Packages")->size()),
               "Packages"});
    t.AddEdge({{item, price},
               static_cast<double>(rebuilt.relation("Items")->size()),
               "Items"});
    rebuilt.AddView("R1",
                    FactoriseJoin(t, {rebuilt.relation("Orders"),
                                      rebuilt.relation("Packages"),
                                      rebuilt.relation("Items")}));
  }
  });
  int64_t rebuilt_singletons = rebuilt.view("R1")->CountSingletons();

  // --- cold open of the snapshot ------------------------------------------
  // End-to-end (Open + lazy view materialisation) from the bench's own
  // registry histogram; the file-parse share comes from the engine's
  // storage.open_ns histogram recorded inside Database::Open.
  Database opened;
  const Factorisation* view = nullptr;
  int64_t opened_tuples = -1;
  double open_parse_seconds = 0;
  double open_seconds = TimedIntoRegistry("storage_cold_open", [&] {
    open_parse_seconds = SubsystemSeconds("storage.open_ns", [&] {
      opened = Database::Open(snap_path);
    });
    view = opened.view("R1");  // lazy materialisation
    opened_tuples = view == nullptr ? -1 : view->CountTuples();
  });

  bool ok = view != nullptr && rebuilt_singletons == singletons &&
            opened_tuples == rebuilt.view("R1")->CountTuples();
  double speedup = open_seconds > 0 ? rebuild_seconds / open_seconds : 0;

  std::ofstream json("BENCH_storage_open.json");
  json << "{\n"
       << "  \"name\": \"storage_open\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"view_singletons\": " << singletons << ",\n"
       << "  \"save_bytes\": " << save_bytes << ",\n"
       << "  \"save_peak_transient_bytes\": "
       << save_stats.peak_transient_bytes << ",\n"
       << "  \"save_peak_to_file_ratio\": "
       << (save_bytes > 0 ? static_cast<double>(
                                save_stats.peak_transient_bytes) /
                                static_cast<double>(save_bytes)
                          : 0)
       << ",\n"
       << "  \"save_peak_includes_fixed_buffer_bytes\": 65536,\n"
       << "  \"save_seconds\": " << save_seconds << ",\n"
       << "  \"rebuild_from_csv_seconds\": " << rebuild_seconds << ",\n"
       << "  \"cold_open_seconds\": " << open_seconds << ",\n"
       << "  \"cold_open_parse_seconds\": " << open_parse_seconds << ",\n"
       << "  \"open_speedup_vs_rebuild\": " << speedup << ",\n"
       << "  \"consistent\": " << (ok ? "true" : "false") << ",\n"
       << "  \"note\": \"same-process measurement: page cache warm for "
          "snapshot and CSVs alike; integer-only workload takes the "
          "dictionary identity path as a fresh process would\"\n"
       << "}\n";

  std::cout << "scale " << scale << ": " << singletons << " singletons, save "
            << save_bytes << " B in " << save_seconds * 1e3
            << " ms (peak transient "
            << save_stats.peak_transient_bytes << " B); rebuild "
            << rebuild_seconds * 1e3 << " ms vs cold open "
            << open_seconds * 1e3 << " ms (" << speedup << "x)"
            << (ok ? "" : "  [MISMATCH]") << "\n";

  // --- checkpointing: full-base cost vs update count -----------------------
  std::string ckpt_path = (dir / "ckpt.fdbs").string();
  int64_t rows = int64_t{20000} * scale;
  Database ckdb;
  {
    AttrId a = ckdb.Attr("ck_a"), b = ckdb.Attr("ck_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x = 0; x < rows; ++x) {
      r.Add({Value(x / 100), Value(x)});
    }
    ckdb.AddView("U", FactoriseRelation(r, {a, b}));
  }
  // Checkpoint durations come straight from the engine's own
  // storage.checkpoint_ns histogram — the bench reports exactly what the
  // storage layer measured about itself.
  storage::CheckpointInfo base_info;
  double base_seconds = SubsystemSeconds("storage.checkpoint_ns", [&] {
    base_info = ckdb.Checkpoint(ckpt_path);
  });

  struct CkptRow {
    int64_t updates;
    uint64_t bytes;
    double seconds;
  };
  std::vector<CkptRow> rows_out;
  int64_t next_b = rows + 1000;
  bool ckpt_ok = base_info.kind == storage::CheckpointInfo::kBase;
  int64_t total_inserted = 0;
  for (int64_t k : {16, 64, 256, 1024}) {
    for (int64_t i = 0; i < k; ++i) {
      ckdb.UpdateView("U", [&](Factorisation* f) {
        InsertTuple(f, {Value(i % 8), Value(next_b++)});
      });
    }
    total_inserted += k;
    storage::CheckpointInfo info;
    double secs = SubsystemSeconds("storage.checkpoint_ns", [&] {
      info = ckdb.Checkpoint(ckpt_path);
    });
    ckpt_ok = ckpt_ok && info.kind == storage::CheckpointInfo::kBase;
    rows_out.push_back({k, info.bytes, secs});
  }
  storage::CheckpointInfo idle;
  double idle_seconds = SubsystemSeconds("storage.checkpoint_ns", [&] {
    idle = ckdb.Checkpoint(ckpt_path);
  });
  ckpt_ok = ckpt_ok && idle.kind == storage::CheckpointInfo::kNoop &&
            idle.bytes == 0;
  {
    Database reloaded = Database::Open(ckpt_path);
    const Factorisation* u = reloaded.view("U");
    ckpt_ok = ckpt_ok && u != nullptr &&
              u->CountTuples() == rows + total_inserted &&
              u->Flatten().BagEquals(ckdb.view("U")->Flatten());
  }

  std::ofstream cj("BENCH_storage_checkpoint.json");
  cj << "{\n"
     << "  \"name\": \"storage_checkpoint\",\n"
     << "  \"scale\": " << scale << ",\n"
     << "  \"view_rows\": " << rows << ",\n"
     << "  \"base_bytes\": " << base_info.bytes << ",\n"
     << "  \"base_seconds\": " << base_seconds << ",\n"
     << "  \"checkpoints\": [\n";
  for (size_t i = 0; i < rows_out.size(); ++i) {
    cj << "    {\"updates\": " << rows_out[i].updates
       << ", \"bytes\": " << rows_out[i].bytes
       << ", \"seconds\": " << rows_out[i].seconds << "}"
       << (i + 1 < rows_out.size() ? "," : "") << "\n";
  }
  cj << "  ],\n"
     << "  \"idle_bytes\": " << idle.bytes << ",\n"
     << "  \"idle_seconds\": " << idle_seconds << ",\n"
     << "  \"consistent\": " << (ckpt_ok ? "true" : "false") << ",\n"
     << "  \"note\": \"every checkpoint after updates writes a full base, "
        "so its bytes track the view size, not the update count; an idle "
        "checkpoint writes nothing (kNoop); the streaming writer's peak "
        "transient allocation is reported in BENCH_storage_open.json "
        "(save_peak_transient_bytes: node index + emission order + a "
        "fixed 64 KiB write buffer, vs the ~3x-file-size peak of the old "
        "build-then-write path — at small scales the constant buffer "
        "floor dominates the ratio, so compare against files well above "
        "64 KiB)\"\n"
     << "}\n";

  std::cout << "checkpoint: base " << base_info.bytes << " B in "
            << base_seconds * 1e3 << " ms";
  for (const CkptRow& r : rows_out) {
    std::cout << "; K=" << r.updates << " -> " << r.bytes << " B in "
              << r.seconds * 1e3 << " ms";
  }
  std::cout << "; idle -> " << idle.bytes << " B in " << idle_seconds * 1e3
            << " ms" << (ckpt_ok ? "" : "  [MISMATCH]") << "\n";

  // --- WAL group commit: durable throughput, one fsync per group ----------
  // Single-op autocommits pay one frame write + one fsync each; grouping G
  // ops into a Begin/Commit pays the same two calls for the whole group,
  // so durable throughput scales with G until the frame write dominates.
  std::string wal_path = (dir / "wal.fdbs").string();
  const int64_t kSingles = 500;
  const int64_t kGroup = 100;
  const int64_t kGroups = 50;
  storage::IoEnv& io = storage::IoEnv::Instance();

  Database wdb;
  {
    AttrId a = wdb.Attr("w_a"), b = wdb.Attr("w_b");
    Relation r{RelSchema({a, b})};
    for (int64_t x = 0; x < 1000; ++x) r.Add({Value(x / 10), Value(x)});
    wdb.AddView("W", FactoriseRelation(r, {a, b}));
  }
  wdb.EnableWal(wal_path);
  int64_t next_key = 100000;

  // Fsync counts come from atomic snapshot-and-reset of the I/O shim's
  // per-site counters — unlike a Count()/ResetCounts() pair, no call can
  // slip between the read and the zeroing.
  io.SnapshotCounts(/*reset=*/true);
  double single_seconds = TimedIntoRegistry("wal_single_commits", [&] {
    for (int64_t i = 0; i < kSingles; ++i) {
      int64_t x = next_key++;
      wdb.Insert("W", {Value(x / 10), Value(x)});  // autocommit: 1 fsync each
    }
  });
  uint64_t single_fsyncs = io.SnapshotCounts(/*reset=*/true)["wal_fsync"];

  double batched_seconds = TimedIntoRegistry("wal_group_commits", [&] {
    for (int64_t g = 0; g < kGroups; ++g) {
      wdb.Begin();
      for (int64_t i = 0; i < kGroup; ++i) {
        int64_t x = next_key++;
        wdb.Insert("W", {Value(x / 10), Value(x)});
      }
      wdb.Commit();
    }
  });
  uint64_t batched_fsyncs = io.SnapshotCounts(/*reset=*/true)["wal_fsync"];
  uint64_t wal_bytes = wdb.WalStatus().wal_bytes;

  // Fsync latency distribution over both phases, from the registry.
  obs::HistogramSnapshot fsync_hist =
      obs::Registry::Instance().GetHistogram("io.fsync_ns").Snapshot();

  // Replay cost: a cold open re-reads base + the whole log.
  Database wre;
  int64_t replayed_tuples = 0;
  double replay_seconds = TimedIntoRegistry("wal_replay", [&] {
    wre = Database::Open(wal_path);
    replayed_tuples = wre.view("W")->CountTuples();
  });

  double single_tput = kSingles / single_seconds;
  double batched_tput = kGroup * kGroups / batched_seconds;
  double wal_speedup = batched_tput / single_tput;
  bool wal_ok = single_fsyncs == static_cast<uint64_t>(kSingles) &&
                batched_fsyncs == static_cast<uint64_t>(kGroups) &&
                replayed_tuples == 1000 + kSingles + kGroup * kGroups &&
                wal_speedup >= 10.0;

  std::ofstream wj("BENCH_storage_wal.json");
  wj << "{\n"
     << "  \"name\": \"storage_wal\",\n"
     << "  \"scale\": " << scale << ",\n"
     << "  \"single_commits\": " << kSingles << ",\n"
     << "  \"single_seconds\": " << single_seconds << ",\n"
     << "  \"single_ops_per_second\": " << single_tput << ",\n"
     << "  \"single_fsyncs\": " << single_fsyncs << ",\n"
     << "  \"group_size\": " << kGroup << ",\n"
     << "  \"groups\": " << kGroups << ",\n"
     << "  \"batched_seconds\": " << batched_seconds << ",\n"
     << "  \"batched_ops_per_second\": " << batched_tput << ",\n"
     << "  \"batched_fsyncs\": " << batched_fsyncs << ",\n"
     << "  \"batched_speedup\": " << wal_speedup << ",\n"
     << "  \"wal_bytes\": " << wal_bytes << ",\n"
     << "  \"fsyncs_recorded\": " << fsync_hist.count << ",\n"
     << "  \"fsync_p50_ns\": " << fsync_hist.Percentile(0.50) << ",\n"
     << "  \"fsync_p99_ns\": " << fsync_hist.Percentile(0.99) << ",\n"
     << "  \"replay_seconds\": " << replay_seconds << ",\n"
     << "  \"replayed_tuples\": " << replayed_tuples << ",\n"
     << "  \"consistent\": " << (wal_ok ? "true" : "false") << ",\n"
     << "  \"note\": \"one wal fsync per commit group (verified by the "
        "I/O shim's call counters); batched throughput also gains from "
        "the one-sorted-merge batch apply, which rebuilds each affected "
        "union once per group instead of once per op\"\n"
     << "}\n";

  std::cout << "wal: " << single_tput << " ops/s single-commit ("
            << single_fsyncs << " fsyncs) vs " << batched_tput
            << " ops/s batched x" << kGroup << " (" << batched_fsyncs
            << " fsyncs) = " << wal_speedup << "x; replay " << wal_bytes
            << " B in " << replay_seconds * 1e3 << " ms"
            << (wal_ok ? "" : "  [MISMATCH]") << "\n";

  fs::remove_all(dir);
  return ok && ckpt_ok && wal_ok ? 0 : 1;
}
