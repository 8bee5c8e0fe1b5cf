#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/update.h"
#include "fdb/engine/database.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/engine/rdb_engine.h"
#include "fdb/exec/task_pool.h"
#include "fdb/obs/metrics.h"
#include "fdb/obs/sampler.h"
#include "fdb/obs/statements.h"
#include "fdb/serve/admission.h"
#include "fdb/serve/client.h"
#include "fdb/serve/server.h"
#include "fdb/serve/session.h"
#include "test_util.h"

// Drift check for README.md's metrics catalogue: exercise every
// instrumented subsystem, then assert each metric name the registry ends
// up holding appears in the README. A new metric without a catalogue row
// fails here, in plain text, before it ships undocumented.

namespace fdb {
namespace {

using testing::MakePizzeria;
using testing::Pizzeria;
using testing::Row;

std::string ReadmeText() {
  std::string path = std::string(FDB_SOURCE_DIR) + "/README.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void ExerciseSubsystems() {
  // Engines + statement store + binder (engine.*, statements.*).
  Pizzeria p = MakePizzeria();
  FdbEngine fdb(p.db.get());
  RdbEngine rdb(p.db.get());
  fdb.ExecuteSql("SELECT customer, sum(price) FROM R GROUP BY customer");
  rdb.ExecuteSql("SELECT customer FROM R WHERE price < 5");

  // Storage: save, open, checkpoint, WAL commit (storage.*, wal.*, io.*).
  std::string path = testing::ProcessTempDir() + "/catalogue.fdbs";
  Database db;
  AttrId a = db.Attr("cat_a"), b = db.Attr("cat_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < 50; ++x) r.Add({Value(x / 10), Value(x)});
  db.AddView("V", FactoriseRelation(r, {a, b}));
  db.EnableWal(path);
  db.Insert("V", Row({100, 1000}));
  db.Checkpoint(path);
  Database re = Database::Open(path);

  // Task pool (taskpool.*).
  exec::TaskPool::Default().ParallelFor(64, 1, [](int, int64_t, int64_t) {});

  // Sampler (sampler.ticks).
  obs::MetricsSampler sampler;
  sampler.SampleOnce();

  // Serve path (serve.*): a live server with one read + one write over
  // the wire, a rejected admission, and a memory-killed statement.
  {
    serve::Server server(&db, serve::ServerConfig{});
    server.Start();
    serve::Client c;
    c.Connect("127.0.0.1", server.port());
    c.Query("SELECT cat_a, cat_b FROM V");
    c.Query("INSERT INTO V VALUES (200, 2000)");
    c.Close();
    server.Shutdown();

    serve::AdmissionConfig tight;
    tight.max_concurrent = 1;
    tight.max_queue = 0;
    serve::AdmissionController adm(tight);
    adm.Admit();
    adm.Admit();  // saturated: rejected (serve.admission_rejects)
    adm.Release();

    serve::AdmissionConfig limited;
    limited.query_mem_bytes = 1;  // every query dies (serve.queries_killed)
    serve::AdmissionController adm2(limited);
    std::atomic<bool> draining{false};
    serve::ServeContext ctx;
    ctx.db = &db;
    ctx.admission = &adm2;
    ctx.draining = &draining;
    serve::Session session(ctx, -1, "catalogue");
    std::vector<uint8_t> out;
    session.HandleStatement("SELECT cat_a, cat_b FROM V", &out);
  }
}

TEST(MetricsCatalogueTest, ReadmeDocumentsEveryRegisteredMetric) {
  obs::SetMetricsEnabled(true);
  ExerciseSubsystems();
  std::string readme = ReadmeText();

  std::vector<std::string> missing;
  for (const obs::MetricRow& row : obs::Registry::Instance().Snapshot()) {
    std::string name = row.name;
    if (name.rfind("obs_test.", 0) == 0 ||
        name.rfind("sampler_test.", 0) == 0 ||
        name.rfind("bench.", 0) == 0) {
      continue;  // test/bench-local instruments, not product metrics
    }
    // Per-site I/O counters are dynamic ("io." + call site); the
    // catalogue documents them as one generic `io.<site>` row.
    if (name.rfind("io.", 0) == 0 &&
        readme.find("`io.<site>`") != std::string::npos &&
        readme.find("`" + name + "`") == std::string::npos) {
      continue;
    }
    if (readme.find(name) == std::string::npos) {
      missing.push_back(name);
    }
  }
  std::string all;
  for (const std::string& m : missing) all += "  " + m + "\n";
  EXPECT_TRUE(missing.empty())
      << "metrics registered but absent from README.md's catalogue "
         "(add a row to '### Metrics catalogue'):\n"
      << all;
  obs::SetMetricsEnabled(false);
}

}  // namespace
}  // namespace fdb
