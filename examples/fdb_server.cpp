// fdb_server — the network front door for a factorised database.
//
// Usage:
//   fdb_server [options]
//     --db <path.fdbs>       open (or create) this snapshot; enables the WAL
//     --demo <scale>         build the synthetic demo database (default 4)
//     --host <ip>            listen address      (default 127.0.0.1)
//     --port <n>             listen port         (default 5433; 0 = ephemeral)
//     --max-concurrent <n>   executing statements (default 4)
//     --max-queue <n>        admission queue length (default 16)
//     --timeout-ms <n>       per-query wall-time limit (default 0 = none)
//     --mem-limit-mb <n>     per-query arena budget (default 0 = none)
//     --max-sessions <n>     connection cap (default 64)
//
// Environment: FDB_METRICS / FDB_LOG / FDB_THREADS as everywhere else;
// FDB_QUERY_TIMEOUT_MS and FDB_QUERY_MEM_MB give the limit defaults.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain in-flight
// statements, stop the metrics sampler, flush the FDB_LOG sink, and
// checkpoint the database before exit.

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "fdb/core/build.h"
#include "fdb/engine/database.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/serve/server.h"
#include "fdb/workload/generator.h"

using namespace fdb;

namespace {

// Signal handling via the self-pipe trick: the handler only writes one
// byte; the main thread blocks on read() and runs the actual shutdown,
// so no async-signal-unsafe work happens in the handler.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  char b = 1;
  // Best effort; a full pipe means a shutdown is already pending.
  [[maybe_unused]] ssize_t r = ::write(g_signal_pipe[1], &b, 1);
}

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoll(v);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path, host = "127.0.0.1";
  int demo_scale = 4;
  serve::ServerConfig cfg;
  cfg.port = 5433;
  cfg.admission.query_timeout_ms = EnvInt("FDB_QUERY_TIMEOUT_MS", 0);
  cfg.admission.query_mem_bytes = EnvInt("FDB_QUERY_MEM_MB", 0) * (1 << 20);

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--db") {
      db_path = next();
    } else if (a == "--demo") {
      demo_scale = std::atoi(next().c_str());
    } else if (a == "--host") {
      host = next();
    } else if (a == "--port") {
      cfg.port = std::atoi(next().c_str());
    } else if (a == "--max-concurrent") {
      cfg.admission.max_concurrent = std::atoi(next().c_str());
    } else if (a == "--max-queue") {
      cfg.admission.max_queue = std::atoi(next().c_str());
    } else if (a == "--timeout-ms") {
      cfg.admission.query_timeout_ms = std::atoll(next().c_str());
    } else if (a == "--mem-limit-mb") {
      cfg.admission.query_mem_bytes =
          std::atoll(next().c_str()) * (1 << 20);
    } else if (a == "--max-sessions") {
      cfg.max_sessions = std::atoi(next().c_str());
    } else {
      std::cerr << "unknown option " << a << "\n";
      return 2;
    }
  }
  cfg.host = host;

  // Serving is the observable path: metrics on unless explicitly off,
  // same policy as the shell.
  const char* menv = std::getenv("FDB_METRICS");
  if (menv == nullptr || std::string(menv) != "0") {
    obs::SetMetricsEnabled(true);
  }
  const char* lenv = std::getenv("FDB_LOG");
  if (lenv != nullptr && std::string(lenv) != "0") {
    obs::SetLogEnabled(true);
  }

  std::unique_ptr<Database> db;
  try {
    if (!db_path.empty() && ::access(db_path.c_str(), F_OK) == 0) {
      db = std::make_unique<Database>(Database::Open(db_path));
      std::cerr << "opened " << db_path << "\n";
    } else {
      // The shell's workload: factorised view R1 plus its flat baseline.
      db = std::make_unique<Database>();
      int64_t singletons =
          InstallWorkload(db.get(), SmallParams(demo_scale), "R1");
      db->AddRelation("R1flat", db->view("R1")->Flatten());
      // A small path-shaped view so INSERT/DELETE work over the wire out
      // of the box (R1's f-tree is not a path, so it rejects updates).
      AttrId ka = db->Attr("k"), va = db->Attr("v");
      Relation kv{RelSchema({ka, va})};
      for (int64_t x = 0; x < 16; ++x) kv.Add({Value(x), Value(x * x)});
      db->AddView("KV", FactoriseRelation(kv, {ka, va}));
      std::cerr << "demo database, scale " << demo_scale << " ("
                << singletons << " singletons; updatable view KV)\n";
      if (!db_path.empty()) {
        db->Save(db_path);
        std::cerr << "saved to " << db_path << "\n";
      }
    }
    if (!db_path.empty()) db->EnableWal(db_path);
  } catch (const std::exception& e) {
    std::cerr << "failed to open database: " << e.what() << "\n";
    return 1;
  }
  db->StartMetricsSampler();

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // restart the server's own syscalls
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  serve::Server server(db.get(), cfg);
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::cerr << "failed to start: " << e.what() << "\n";
    return 1;
  }
  std::cout << "fdb_server listening on " << cfg.host << ":" << server.port()
            << std::endl;

  // Park until a signal arrives: the handler writes one byte to the
  // pipe, which completes this read.
  char b;
  while (::read(g_signal_pipe[0], &b, 1) < 0 && errno == EINTR) {
  }
  std::cerr << "shutting down: draining sessions...\n";
  server.Shutdown();
  db->StopMetricsSampler();
  if (!db_path.empty()) {
    try {
      storage::CheckpointInfo info = db->Checkpoint(db_path);
      std::cerr << "checkpointed " << db_path
                << (info.kind == storage::CheckpointInfo::kNoop ? " (no-op)"
                                                                : "")
                << "\n";
    } catch (const std::exception& e) {
      std::cerr << "checkpoint failed: " << e.what() << "\n";
    }
  }
  obs::EventLog::Instance().SetSinkPath("");  // flush + close the JSONL sink
  std::cerr << "bye\n";
  return 0;
}
