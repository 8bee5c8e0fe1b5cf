// Figure 7: the AGG+ORD queries Q6–Q9 on the factorised view R1. The
// paper's claims: ordering adds only small overhead on top of aggregation —
// Q6's order falls out of Q2's evaluation for free, and re-ordering by the
// aggregation result (Q7) sorts only the small aggregated result.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace fdb {
namespace bench {
namespace {

constexpr int kScale = 8;

void Fdb(benchmark::State& state) {
  int q = static_cast<int>(state.range(0));
  BenchDb& b = GetBenchDb(kScale);
  FdbEngine engine(b.db.get());
  BoundQuery query = Bind(ParseSql(AggOrdSql(q, "R1")), b.db.get());
  for (auto _ : state) {
    FdbResult r = engine.Execute(query);
    benchmark::DoNotOptimize(r.flat);
  }
}

void Rdb(benchmark::State& state, RdbOptions::Grouping grouping) {
  int q = static_cast<int>(state.range(0));
  BenchDb& b = GetBenchDb(kScale);
  RdbEngine engine(b.db.get());
  RdbOptions opt;
  opt.grouping = grouping;
  BoundQuery query = Bind(ParseSql(AggOrdSql(q, "R1flat")), b.db.get());
  for (auto _ : state) {
    RdbResult r = engine.Execute(query, opt);
    benchmark::DoNotOptimize(r.flat);
  }
}

void RdbSort(benchmark::State& state) {
  Rdb(state, RdbOptions::Grouping::kSort);
}
void RdbHash(benchmark::State& state) {
  Rdb(state, RdbOptions::Grouping::kHash);
}

void RegisterAll() {
  for (int q = 6; q <= 9; ++q) {
    std::string suffix = "/Q" + std::to_string(q);
    benchmark::RegisterBenchmark(("fig7/FDB" + suffix).c_str(), Fdb)
        ->Args({q})
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("fig7/SQLite-like" + suffix).c_str(),
                                 RdbSort)
        ->Args({q})
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("fig7/PSQL-like" + suffix).c_str(),
                                 RdbHash)
        ->Args({q})
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace bench
}  // namespace fdb

int main(int argc, char** argv) {
  fdb::bench::RegisterAll();
  return fdb::bench::RunBenchmarks("fig7_aggord", argc, argv);
}
