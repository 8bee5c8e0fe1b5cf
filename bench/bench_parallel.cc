// Thread-count sweep over the parallel execution runtime: builds the §6
// materialised view (FactoriseJoin over the T f-tree), evaluates the
// Figure-3 aggregate Q3 (GROUP BY date, package) and fully enumerates the
// view at 1/2/4/8 threads, reporting median wall time and the speedup
// over the 1-thread run. Results are checked for cross-thread-count
// consistency (identical Flatten bytes and aggregate rows) on every run.
//
// Usage: bench_parallel [scale] [reps]       (default scale 8, 5 reps)
// Emits BENCH_parallel_build.json in the working directory. No
// google-benchmark dependency: the sweep resizes the process-default
// TaskPool between phases, which google-benchmark's threaded registration
// does not model. Honest caveat: speedups are bounded by the machine —
// hardware_concurrency is recorded in the JSON.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_metrics.h"
#include "fdb/core/build.h"
#include "fdb/core/enumerate.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/exec/task_pool.h"
#include "fdb/obs/metrics.h"
#include "fdb/query/parser.h"
#include "fdb/workload/generator.h"

using namespace fdb;

namespace {

// Median of `reps` runs of fn (first run warms caches, not timed). Each
// rep's wall time is recorded into — and read back out of — the registry
// histogram bench.<name>_ns, so the JSON and live metrics agree.
template <typename Fn>
double MedianSeconds(const std::string& name, int reps, Fn fn) {
  fn();
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    times.push_back(bench::TimedIntoRegistry(name, fn));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct PhaseTimes {
  int threads = 0;
  double build_s = 0;
  double agg_s = 0;
  double enumerate_s = 0;
  uint64_t tasks_run = 0;
};

}  // namespace

int main(int argc, char** argv) {
  obs::SetMetricsEnabled(true);  // timings are read back from the registry
  int scale = argc > 1 ? std::atoi(argv[1]) : 8;
  if (scale < 1) scale = 1;
  int reps = argc > 2 ? std::atoi(argv[2]) : 5;
  if (reps < 1) reps = 1;

  Database db;
  Workload w = GenerateWorkload(&db, SmallParams(scale));
  const std::vector<const Relation*> rels{&w.orders, &w.packages, &w.items};

  // Reference results at 1 thread, used to verify every other width.
  exec::TaskPool::SetDefaultThreads(1);
  Factorisation ref = FactoriseJoin(w.ftree, rels);
  int64_t singletons = ref.CountSingletons();
  Relation ref_flat = ref.Flatten();
  db.AddView("R1", ref);
  FdbEngine engine(&db);
  const std::string agg_sql =
      "SELECT date, package, sum(price) FROM R1 GROUP BY date, package";
  BoundQuery agg_query = Bind(ParseSql(agg_sql), &db);
  Relation ref_agg = engine.Execute(agg_query).flat;

  std::vector<PhaseTimes> sweep;
  bool consistent = true;
  for (int threads : {1, 2, 4, 8}) {
    exec::TaskPool::SetDefaultThreads(threads);
    PhaseTimes pt;
    pt.threads = threads;
    uint64_t tasks0 = bench::CounterValue("taskpool.tasks_run");

    Factorisation built;
    pt.build_s = MedianSeconds("parallel_build", reps, [&] {
      built = FactoriseJoin(w.ftree, rels);
    });
    consistent = consistent && built.CountSingletons() == singletons;

    Relation agg;
    pt.agg_s = MedianSeconds("parallel_aggregate", reps, [&] {
      agg = engine.Execute(agg_query).flat;
    });
    consistent = consistent && agg.rows() == ref_agg.rows();

    Relation flat;
    std::vector<int> visit = built.tree().TopologicalOrder();
    std::vector<SortDir> dirs(visit.size(), SortDir::kAsc);
    pt.enumerate_s = MedianSeconds("parallel_enumerate", reps, [&] {
      flat = EnumerateToRelation(built, visit, dirs);
    });
    consistent = consistent && flat.rows() == ref_flat.rows();

    // Work-distribution counters for this width, from the TaskPool's own
    // registry instrumentation.
    pt.tasks_run = bench::CounterValue("taskpool.tasks_run") - tasks0;

    sweep.push_back(pt);
    std::cout << "threads " << threads << ": build " << pt.build_s * 1e3
              << " ms, agg " << pt.agg_s * 1e3 << " ms, enumerate "
              << pt.enumerate_s * 1e3 << " ms (" << pt.tasks_run
              << " tasks)"
              << (consistent ? "" : "  [MISMATCH]") << "\n";
  }
  exec::TaskPool::SetDefaultThreads(1);

  const PhaseTimes& base = sweep.front();
  std::ofstream json("BENCH_parallel_build.json");
  json << "{\n"
       << "  \"name\": \"parallel_build\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"view_singletons\": " << singletons << ",\n"
       << "  \"flat_tuples\": " << ref_flat.size() << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"consistent\": " << (consistent ? "true" : "false") << ",\n"
       << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const PhaseTimes& pt = sweep[i];
    json << "    {\"threads\": " << pt.threads
         << ", \"build_seconds\": " << pt.build_s
         << ", \"aggregate_seconds\": " << pt.agg_s
         << ", \"enumerate_seconds\": " << pt.enumerate_s
         << ", \"build_speedup\": " << (pt.build_s > 0 ? base.build_s / pt.build_s : 0)
         << ", \"aggregate_speedup\": " << (pt.agg_s > 0 ? base.agg_s / pt.agg_s : 0)
         << ", \"enumerate_speedup\": "
         << (pt.enumerate_s > 0 ? base.enumerate_s / pt.enumerate_s : 0)
         << ", \"tasks_run\": " << pt.tasks_run
         << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  return consistent ? 0 : 1;
}
