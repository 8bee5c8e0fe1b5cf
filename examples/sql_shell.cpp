// Interactive SQL shell over a generated factorised database: type queries
// against the materialised view R1 (factorised) or the base relations
// Orders / Packages / Items (flat input path), and compare engines with
// the \rdb toggle. Writes are plain SQL too:
//
//   INSERT INTO V VALUES (1, 'x', NULL)   insert a tuple into view V
//   DELETE FROM V VALUES (...)            delete one (autocommit outside
//                                         a transaction)
//   BEGIN / COMMIT / ROLLBACK             group writes into one atomic,
//                                         durably-logged commit group
//
// Usage: sql_shell [scale]               (default scale 2)
// Commands:  \rdb           toggle evaluation with the relational baseline
//            \plan          toggle printing the f-plan
//            \stats         per-node union statistics of the view R1
//            \threads N     resize the execution pool (parallel build,
//                           enumeration and aggregation; 1 = serial)
//            \save <path>   snapshot the whole database to a *.fdbs file
//            \open <path>   replace the database with a saved snapshot
//                           (views reopen lazily, zero-copy via mmap)
//            \check         run the deep invariant checker (fdb/check)
//                           over every view, the dictionary, and the
//                           files on disk; prints each issue found
//            \checkpoint <path>
//                           \save <path>, unless nothing changed since
//                           the last save of <path> (then no file is
//                           written); resets a log bound to <path>
//            \wal <path>    enable the write-ahead log bound to <path>
//                           (saves a base there first; every commit is
//                           durable with one fsync)
//            \wal-status    log path, pending ops/bytes, committed groups
//            \timing on|off per-statement wall time and row count (psql
//                           style; default off)
//            \metrics       dump the metrics registry (counters, gauges,
//                           latency histograms with p50/p95/p99)
//            \metrics-json  the same, machine-readable
//            \metrics-reset zero every counter/gauge/histogram and drop
//                           the statement store (fresh measurement window)
//            \statements    per-statement aggregates (pg_stat_statements
//                           style): calls, errors, latency, rows, engine
//                           split — same data as SELECT ... FROM
//                           fdb.statements
//            \log [N]       the last N structured events (slow queries,
//                           recovery, checkpoints, WAL stalls; default 20)
//            \history [start [ms] | stop]
//                           control the background metrics sampler and
//                           show windowed rates / percentile history
//            \profile <path>
//                           write the last traced query (EXPLAIN ANALYZE)
//                           as a chrome://tracing JSON file
//            \connect host:port
//                           client mode: speak the wire protocol to a
//                           running fdb_server. Every SQL line (queries,
//                           writes, transactions) is sent unchanged;
//                           backslash verbs stay local
//            \disconnect    leave client mode
//            \q             quit (stops the sampler and flushes the
//                           FDB_LOG sink; Ctrl-C does the same)
//
// Prefix any query with EXPLAIN ANALYZE to run it and print the per-phase
// trace: wall time, cardinalities, and the factorised-vs-flat size gap.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <iostream>
#include <string>
#include <vector>

#include "fdb/check/check.h"
#include "fdb/core/stats.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/engine/rdb_engine.h"
#include "fdb/exec/task_pool.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/obs/sampler.h"
#include "fdb/obs/statements.h"
#include "fdb/obs/trace.h"
#include "fdb/query/parser.h"
#include "fdb/serve/client.h"
#include "fdb/workload/generator.h"

using namespace fdb;

// Ctrl-C: note it and let the interrupted getline() fall out of the main
// loop, so the shell always leaves through the cleanup path below.
static volatile sig_atomic_t g_interrupted = 0;
static void OnInterrupt(int) { g_interrupted = 1; }

// Runs a write or transaction statement on the local database and
// says what it did.
static std::string ApplyLocally(Database* db, const ParsedQuery& pq) {
  switch (pq.kind) {
    case StmtKind::kBegin:
      db->Begin();
      return "txn: begun";
    case StmtKind::kCommit: {
      uint64_t seq = db->Commit();
      return seq != 0 ? "txn: committed (group #" + std::to_string(seq) + ")"
                      : "txn: committed (empty)";
    }
    case StmtKind::kRollback:
      db->Rollback();
      return "txn: rolled back";
    default:  // INSERT / DELETE: autocommits outside BEGIN
      if (pq.kind == StmtKind::kInsert) {
        db->Insert(pq.target, pq.values);
      } else {
        db->Delete(pq.target, pq.values);
      }
      return db->WalStatus().in_txn ? "buffered" : "applied";
  }
}

// Prints one wire-protocol statement outcome the way the local engines
// print theirs: header, up to 25 rows, then the server-side stats line.
static void PrintWireResult(const serve::Client::Result& res) {
  if (res.retry) {
    std::cout << "server busy: retry in " << res.retry_info.retry_after_ms
              << " ms (" << res.retry_info.message << ")\n";
    return;
  }
  if (!res.ok) {
    std::cout << "error [" << serve::ErrorCodeName(res.error.code)
              << "]: " << res.error.message << "\n";
    return;
  }
  for (size_t i = 0; i < res.columns.size(); ++i) {
    std::cout << (i > 0 ? " | " : "") << res.columns[i];
  }
  if (!res.columns.empty()) std::cout << "\n";
  size_t shown = 0;
  for (const std::vector<Value>& row : res.rows) {
    if (++shown > 25) {
      std::cout << "  ... " << res.rows.size() - 25 << " more rows\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      std::cout << (i > 0 ? " | " : "") << row[i].ToString();
    }
    std::cout << "\n";
  }
  std::cout << "(" << res.stats.rows << " row"
            << (res.stats.rows == 1 ? "" : "s") << ", "
            << static_cast<double>(res.stats.elapsed_ns) / 1e6
            << " ms server";
  if (res.stats.queue_wait_ns > 0) {
    std::cout << " + " << static_cast<double>(res.stats.queue_wait_ns) / 1e6
              << " ms queued";
  }
  std::cout << ")\n";
}

int main(int argc, char** argv) {
  // The shell is a diagnostic surface, not a benchmark: run with metrics
  // on so \metrics has something to show. FDB_METRICS=0 keeps them off.
  const char* menv = std::getenv("FDB_METRICS");
  if (menv == nullptr || std::string(menv) != "0") {
    obs::SetMetricsEnabled(true);
  }
  // Same for the structured event log: \log (and fdb.events) should have
  // something to show. FDB_LOG=0 keeps it off; FDB_LOG=<path> (handled by
  // EventLog itself) additionally appends JSONL to <path>.
  const char* lenv = std::getenv("FDB_LOG");
  if (lenv == nullptr || std::string(lenv) != "0") {
    obs::SetLogEnabled(true);
  }
  int scale = argc > 1 ? std::atoi(argv[1]) : 2;
  // Held by pointer so \open can replace it with an opened database.
  auto db = std::make_unique<Database>();
  int64_t singletons = InstallWorkload(db.get(), SmallParams(scale), "R1");
  db->AddRelation("R1flat", db->view("R1")->Flatten());

  std::cout << "FDB shell — factorised view R1 (" << singletons
            << " singletons), relations Orders/Packages/Items/R1flat\n"
            << "example: SELECT customer, sum(price) AS revenue FROM R1 "
               "GROUP BY customer ORDER BY revenue DESC LIMIT 5;\n";

  bool use_rdb = false;
  bool show_plan = false;
  bool timing = false;
  std::shared_ptr<obs::Trace> last_trace;
  serve::Client client;

  // No SA_RESTART: Ctrl-C interrupts the blocking read under getline so
  // the loop exits and the cleanup below (sampler, log sink) still runs.
  struct sigaction sa {};
  sa.sa_handler = OnInterrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // a dead server must not kill the shell

  std::string line;
  while (std::cout << (client.connected() ? "srv> "
                       : use_rdb          ? "rdb> "
                                          : "fdb> ") &&
         std::cout.flush() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "\\q") break;
    if (line.rfind("\\connect ", 0) == 0) {
      std::string target = line.substr(9);
      size_t colon = target.rfind(':');
      if (colon == std::string::npos) {
        std::cout << "usage: \\connect host:port\n";
        continue;
      }
      try {
        client.Connect(target.substr(0, colon),
                       std::atoi(target.c_str() + colon + 1));
        std::cout << "connected to " << target
                  << " — statements now run server-side (\\disconnect to "
                     "return)\n";
      } catch (const std::exception& e) {
        std::cout << "error: " << e.what() << "\n";
      }
      continue;
    }
    if (line == "\\disconnect") {
      if (client.connected()) {
        client.Close();
        std::cout << "disconnected — statements run locally again\n";
      } else {
        std::cout << "not connected\n";
      }
      continue;
    }
    if (client.connected() && line[0] != '\\') {
      // Client mode: every SQL line goes over the wire as typed; the
      // backslash verbs below stay local.
      try {
        int64_t t0 = obs::NowNs();
        serve::Client::Result res = client.Query(line);
        PrintWireResult(res);
        if (timing && res.ok) {
          std::cout << "Time: " << static_cast<double>(obs::NowNs() - t0) / 1e6
                    << " ms round trip\n";
        }
      } catch (const std::exception& e) {
        std::cout << "connection lost: " << e.what() << "\n";
      }
      continue;
    }
    if (line == "\\rdb") {
      use_rdb = !use_rdb;
      continue;
    }
    if (line == "\\plan") {
      show_plan = !show_plan;
      continue;
    }
    if (line.rfind("\\timing", 0) == 0) {
      std::string arg = line.size() > 8 ? line.substr(8) : "";
      if (arg == "on") {
        timing = true;
      } else if (arg == "off") {
        timing = false;
      } else if (arg.empty()) {
        timing = !timing;
      } else {
        std::cout << "usage: \\timing [on|off]\n";
        continue;
      }
      std::cout << "timing " << (timing ? "on" : "off") << "\n";
      continue;
    }
    if (line == "\\metrics") {
      std::cout << obs::Registry::Instance().RenderText();
      continue;
    }
    if (line == "\\metrics-json") {
      std::cout << obs::Registry::Instance().RenderJson() << "\n";
      continue;
    }
    if (line == "\\metrics-reset") {
      obs::Registry::Instance().ResetAll();
      obs::StatementStore::Instance().Clear();
      std::cout << "metrics registry and statement store reset\n";
      continue;
    }
    if (line == "\\statements") {
      std::vector<obs::StatementRow> rows =
          obs::StatementStore::Instance().Snapshot();
      if (rows.empty()) {
        std::cout << "no statements recorded yet (metrics "
                  << (obs::MetricsEnabled() ? "on" : "OFF — enable with "
                                                     "FDB_METRICS=1")
                  << ")\n";
        continue;
      }
      std::cout << rows.size() << " statement"
                << (rows.size() == 1 ? "" : "s")
                << " (by total time; also: SELECT ... FROM fdb.statements)\n";
      size_t shown = 0;
      for (const obs::StatementRow& r : rows) {
        if (++shown > 25) {
          std::cout << "  ... " << rows.size() - 25 << " more\n";
          break;
        }
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  calls=%llu (fdb=%llu rdb=%llu err=%llu) "
                      "total=%.3fms mean=%.1fus p99=%.1fus rows=%llu",
                      static_cast<unsigned long long>(r.calls),
                      static_cast<unsigned long long>(r.calls_fdb),
                      static_cast<unsigned long long>(r.calls_rdb),
                      static_cast<unsigned long long>(r.errors),
                      static_cast<double>(r.total_ns) / 1e6,
                      r.calls == 0
                          ? 0.0
                          : static_cast<double>(r.total_ns) /
                                static_cast<double>(r.calls) / 1e3,
                      r.latency.Percentile(0.99) / 1e3,
                      static_cast<unsigned long long>(r.rows));
        std::cout << buf << "\n    " << r.text << "\n";
      }
      continue;
    }
    if (line == "\\log" || line.rfind("\\log ", 0) == 0) {
      if (!obs::LogEnabled()) {
        std::cout << "event log is OFF (it was disabled with FDB_LOG=0)\n";
        continue;
      }
      size_t want = 20;
      if (line.size() > 5) {
        int n = std::atoi(line.c_str() + 5);
        if (n > 0) want = static_cast<size_t>(n);
      }
      std::vector<obs::Event> events = obs::EventLog::Instance().Snapshot();
      uint64_t dropped = obs::EventLog::Instance().dropped();
      if (events.empty()) {
        std::cout << "no events yet (slow-query threshold: "
                  << obs::EventLog::Instance().slow_query_ns() / 1000000
                  << " ms — FDB_SLOW_QUERY_MS to change)\n";
        continue;
      }
      size_t start = events.size() > want ? events.size() - want : 0;
      std::cout << "events " << events[start].seq << ".."
                << events.back().seq << " of " << events.back().seq
                << " emitted";
      if (dropped > 0) std::cout << " (" << dropped << " rotated out)";
      std::cout << "\n";
      for (size_t i = start; i < events.size(); ++i) {
        const obs::Event& e = events[i];
        std::cout << "  #" << e.seq << " " << obs::EventTypeName(e.type)
                  << " " << e.DetailString() << "\n";
      }
      continue;
    }
    if (line == "\\history" || line.rfind("\\history ", 0) == 0) {
      std::string arg = line.size() > 9 ? line.substr(9) : "";
      if (arg.rfind("start", 0) == 0) {
        int64_t ms = 1000;
        if (arg.size() > 6) {
          int64_t n = std::atoll(arg.c_str() + 6);
          if (n >= 1) ms = n;
        }
        db->StartMetricsSampler(ms);
        std::cout << "metrics sampler started (every " << ms << " ms)\n";
        continue;
      }
      if (arg == "stop") {
        db->StopMetricsSampler();
        std::cout << "metrics sampler stopped\n";
        continue;
      }
      std::shared_ptr<obs::MetricsSampler> sampler = db->metrics_sampler();
      if (sampler == nullptr) {
        std::cout << "sampler not running (usage: \\history [start [ms] | "
                     "stop]; query with SELECT ... FROM fdb.metrics_history)"
                     "\n";
        continue;
      }
      std::vector<obs::MetricsSampler::Window> windows = sampler->Windows();
      std::cout << sampler->ticks() << " tick"
                << (sampler->ticks() == 1 ? "" : "s") << ", "
                << windows.size() << " metrics\n";
      for (const obs::MetricsSampler::Window& w : windows) {
        char buf[160];
        if (w.is_hist) {
          std::snprintf(buf, sizeof(buf),
                        "  %-28s points=%zu p50=%.1fus p99=%.1fus",
                        w.metric.c_str(), w.points, w.last_p50 / 1e3,
                        w.last_p99 / 1e3);
        } else {
          std::snprintf(buf, sizeof(buf),
                        "  %-28s points=%zu last=%.0f rate=%.1f/s",
                        w.metric.c_str(), w.points, w.last_value,
                        w.rate_per_s);
        }
        std::cout << buf << "\n";
      }
      continue;
    }
    if (line.rfind("\\profile ", 0) == 0) {
      std::string path = line.substr(9);
      if (last_trace == nullptr) {
        std::cout << "error: no trace yet — run an EXPLAIN ANALYZE query "
                     "first\n";
        continue;
      }
      std::ofstream out(path);
      if (!out) {
        std::cout << "error: cannot write " << path << "\n";
        continue;
      }
      out << last_trace->ToChromeJson();
      std::cout << "wrote " << path
                << " — open chrome://tracing (or https://ui.perfetto.dev) "
                   "and load it\n";
      continue;
    }
    if (line.rfind("\\threads", 0) == 0) {
      int n = line.size() > 9 ? std::atoi(line.c_str() + 9) : 0;
      if (n >= 1) {
        exec::TaskPool::SetDefaultThreads(n);
        std::cout << "execution pool resized to " << n << " thread"
                  << (n == 1 ? "" : "s") << "\n";
      } else {
        std::cout << "pool width: "
                  << exec::TaskPool::Default().num_threads()
                  << " (usage: \\threads N)\n";
      }
      continue;
    }
    if (line == "\\stats") {
      // After \open the database may lack a view named R1.
      const Factorisation* r1 = db->view("R1");
      if (r1 != nullptr) {
        std::cout << FactStatsToString(*r1, db->registry());
      } else {
        std::cout << "error: no view R1 in the current database\n";
      }
      continue;
    }
    if (line == "\\check") {
      try {
        std::cout << check::ValidateDatabase(*db).ToString();
      } catch (const std::exception& e) {
        std::cout << "error: " << e.what() << "\n";
      }
      continue;
    }
    if (line.rfind("\\checkpoint ", 0) == 0) {
      std::string path = line.substr(12);
      try {
        storage::CheckpointInfo info = db->Checkpoint(path);
        if (info.kind == storage::CheckpointInfo::kBase) {
          std::cout << "checkpoint: wrote base " << path << " ("
                    << info.bytes << " bytes)\n";
        } else {
          std::cout << "checkpoint: no changes since the last one\n";
        }
      } catch (const std::exception& e) {
        std::cout << "error: " << e.what() << "\n";
      }
      continue;
    }
    if (line.rfind("\\wal ", 0) == 0) {
      try {
        db->EnableWal(line.substr(5));
        std::cout << "wal: logging to " << db->WalStatus().path << "\n";
      } catch (const std::exception& e) {
        std::cout << "error: " << e.what() << "\n";
      }
      continue;
    }
    if (line == "\\wal-status") {
      storage::WalStatus st = db->WalStatus();
      if (!st.enabled) {
        std::cout << "wal: disabled (use \\wal <path>)\n";
      } else {
        std::cout << "wal: " << st.path << (st.broken ? " [BROKEN]" : "")
                  << "\n  committed groups: " << st.committed_groups
                  << ", log bytes: " << st.wal_bytes << "\n  txn: "
                  << (st.in_txn ? "open" : "none") << ", pending ops: "
                  << st.pending_ops << " (" << st.pending_bytes
                  << " bytes)\n";
      }
      continue;
    }
    if (line.rfind("\\save ", 0) == 0 || line.rfind("\\open ", 0) == 0) {
      std::string path = line.substr(6);
      try {
        if (line[1] == 's') {
          db->Save(path);
          std::cout << "saved to " << path << "\n";
        } else {
          // Replaced only once Open succeeds: a failed \open keeps db.
          db = std::make_unique<Database>(Database::Open(path));
          std::cout << "opened " << path << " — views:";
          for (const std::string& v : db->ViewNames()) {
            std::cout << " " << v;
          }
          std::cout << "; relations:";
          for (const std::string& r : db->RelationNames()) {
            std::cout << " " << r;
          }
          std::cout << "\n";
        }
      } catch (const std::exception& e) {
        std::cout << "error: " << e.what() << "\n";
      }
      continue;
    }
    try {
      int64_t t0 = obs::NowNs();
      ParsedQuery pq = ParseSql(line);
      if (pq.kind != StmtKind::kSelect) {
        std::cout << ApplyLocally(db.get(), pq) << "\n";
        continue;
      }
      int64_t rows = 0;
      if (use_rdb) {
        RdbResult r = RdbEngine(db.get()).ExecuteSql(line);
        rows = r.flat.size();
        if (r.trace != nullptr) {
          last_trace = r.trace;
          std::cout << obs::ExplainReport(*r.trace);
        }
        std::cout << r.flat.ToString(db->registry(), 25)
                  << "(" << r.seconds * 1e3 << " ms)\n";
      } else {
        FdbResult r = FdbEngine(db.get()).ExecuteSql(line);
        rows = r.flat.size();
        if (show_plan) {
          std::cout << "plan: " << PlanToString(r.plan, db->registry())
                    << "\n";
        }
        if (r.trace != nullptr) {
          last_trace = r.trace;
          std::cout << obs::ExplainReport(*r.trace);
        }
        std::cout << r.flat.ToString(db->registry(), 25) << "("
                  << (r.plan_seconds + r.exec_seconds + r.enum_seconds) *
                         1e3
                  << " ms)\n";
      }
      if (timing) {
        std::cout << "Time: " << static_cast<double>(obs::NowNs() - t0) / 1e6
                  << " ms (" << rows << " row" << (rows == 1 ? "" : "s")
                  << ")\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  // Orderly exit for \q, EOF, and Ctrl-C alike: close the wire session,
  // stop the background sampler thread, and flush the FDB_LOG JSONL sink
  // so no buffered events are lost.
  if (g_interrupted) std::cout << "\n";
  client.Close();
  db->StopMetricsSampler();
  obs::EventLog::Instance().SetSinkPath("");
  std::cout << "bye\n";
  return 0;
}
