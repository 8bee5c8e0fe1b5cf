// Ablations for the design choices called out in DESIGN.md:
//   (a) partial aggregation on/off — evaluate Q2 with the greedy plan
//       (partial aggregates interleaved with swaps) versus restructuring
//       only and aggregating the atomic subtrees on the fly;
//   (b) greedy versus exhaustive plan search (planning time);
//   (c) swap-based partial re-sort versus re-factorising from scratch
//       versus flat std::sort (Q13).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "fdb/relational/rdb_ops.h"
#include "fdb/core/enumerate.h"
#include "fdb/core/order.h"
#include "fdb/core/ops/swap.h"
#include "fdb/optimizer/exhaustive.h"

namespace fdb {
namespace bench {
namespace {

constexpr int kScale = 8;

// (a) Q2 with full partial aggregation (the normal engine path).
void PartialAggregationOn(benchmark::State& state) {
  BenchDb& b = GetBenchDb(kScale);
  FdbEngine engine(b.db.get());
  BoundQuery query = Bind(ParseSql(AggSql(2, "R1")), b.db.get());
  for (auto _ : state) {
    FdbResult r = engine.Execute(query);
    benchmark::DoNotOptimize(r.flat);
  }
}

// (a) Q2 with partial aggregation disabled: push customer up with swaps
// only, then aggregate the remaining *atomic* subtrees during enumeration.
// The intermediate factorisations stay large — the point of §3.
void PartialAggregationOff(benchmark::State& state) {
  BenchDb& b = GetBenchDb(kScale);
  AttributeRegistry& reg = b.db->registry();
  AttrId customer = *reg.Find("customer"), price = *reg.Find("price");
  AttrId out = reg.Intern("revenue_ablation");
  for (auto _ : state) {
    Factorisation f = *b.db->view("R1");
    int n_customer = f.tree().NodeOfAttr(customer);
    for (int swap : PlanRestructure(f.tree(), {}, {n_customer})) {
      ApplySwap(&f, swap);
    }
    GroupAggEnumerator e(f, {f.tree().NodeOfAttr(customer)},
                         {SortDir::kAsc}, {{AggFn::kSum, price}}, {out});
    Relation r{e.schema()};
    Tuple row(e.schema().arity());
    while (e.Next()) {
      e.Fill(&row);
      r.Add(row);
    }
    benchmark::DoNotOptimize(r);
  }
}

// (b) Planning time: greedy vs exhaustive on Q2's planner query.
void PlanGreedy(benchmark::State& state) {
  BenchDb& b = GetBenchDb(1);
  AttributeRegistry& reg = b.db->registry();
  PlannerQuery q;
  q.group = {*reg.Find("customer")};
  q.tasks = {{AggFn::kSum, *reg.Find("price")}};
  const FTree& tree = b.db->view("R1")->tree();
  for (auto _ : state) {
    FPlan plan = GreedyPlan(tree, q);
    benchmark::DoNotOptimize(plan);
  }
}

void PlanExhaustive(benchmark::State& state) {
  BenchDb& b = GetBenchDb(1);
  AttributeRegistry& reg = b.db->registry();
  PlannerQuery q;
  q.group = {*reg.Find("customer")};
  q.tasks = {{AggFn::kSum, *reg.Find("price")}};
  const FTree& tree = b.db->view("R1")->tree();
  for (auto _ : state) {
    auto plan = ExhaustivePlan(tree, q);
    benchmark::DoNotOptimize(plan);
  }
}

// (c) Q13 three ways: swap-based partial re-sort of the factorised R3,
// re-factorising Orders from scratch in the target order, and flat sort.
void ResortBySwap(benchmark::State& state) {
  BenchDb& b = GetBenchDb(kScale);
  AttributeRegistry& reg = b.db->registry();
  AttrId customer = *reg.Find("customer"), date = *reg.Find("date"),
         package = *reg.Find("package");
  for (auto _ : state) {
    Factorisation f = *b.db->view("R3");
    std::vector<int> o = {f.tree().NodeOfAttr(customer),
                          f.tree().NodeOfAttr(date),
                          f.tree().NodeOfAttr(package)};
    for (int swap : PlanRestructure(f.tree(), o, {})) ApplySwap(&f, swap);
    VisitOrder v = OrderedVisitSequence(
        f.tree(),
        {{customer, SortDir::kAsc}, {date, SortDir::kAsc},
         {package, SortDir::kAsc}},
        f.tree().TopologicalOrder());
    Relation r = EnumerateToRelation(f, v.nodes, v.dirs);
    benchmark::DoNotOptimize(r);
  }
}

void ResortFromScratch(benchmark::State& state) {
  BenchDb& b = GetBenchDb(kScale);
  AttributeRegistry& reg = b.db->registry();
  AttrId customer = *reg.Find("customer"), date = *reg.Find("date"),
         package = *reg.Find("package");
  const Relation* orders = b.db->relation("Orders");
  for (auto _ : state) {
    Factorisation f = FactoriseRelation(*orders, {customer, date, package});
    Relation r = EnumerateToRelation(
        f, f.tree().TopologicalOrder(),
        std::vector<SortDir>(3, SortDir::kAsc));
    benchmark::DoNotOptimize(r);
  }
}

void ResortFlatSort(benchmark::State& state) {
  BenchDb& b = GetBenchDb(kScale);
  AttributeRegistry& reg = b.db->registry();
  AttrId customer = *reg.Find("customer"), date = *reg.Find("date"),
         package = *reg.Find("package");
  const Relation* orders = b.db->relation("Orders");
  for (auto _ : state) {
    Relation r = *orders;
    r.SortBy({{customer, SortDir::kAsc},
              {date, SortDir::kAsc},
              {package, SortDir::kAsc}});
    benchmark::DoNotOptimize(r);
  }
}

// (d) View construction: the one-off cost of materialising the factorised
// view from the base relations (amortised over the read-optimised
// workload), versus materialising the flat join.
void BuildFactorisedView(benchmark::State& state) {
  BenchDb& b = GetBenchDb(kScale);
  Database* db = b.db.get();
  std::vector<const Relation*> rels = {db->relation("Orders"),
                                       db->relation("Packages"),
                                       db->relation("Items")};
  FTree tree = ChooseFTree(rels);
  int64_t singletons = 0;
  for (auto _ : state) {
    Factorisation f = FactoriseJoin(tree, rels);
    singletons = f.CountSingletons();
    benchmark::DoNotOptimize(f);
  }
  state.counters["singletons"] = static_cast<double>(singletons);
}

void BuildFlatJoin(benchmark::State& state) {
  BenchDb& b = GetBenchDb(kScale);
  Database* db = b.db.get();
  std::vector<const Relation*> rels = {db->relation("Orders"),
                                       db->relation("Packages"),
                                       db->relation("Items")};
  int64_t tuples = 0;
  for (auto _ : state) {
    Relation r = NaturalJoinAll(rels);
    tuples = r.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}

void RegisterAll() {
  benchmark::RegisterBenchmark("ablation/partial_aggregation:on",
                               PartialAggregationOn)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/partial_aggregation:off",
                               PartialAggregationOff)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/planner:greedy", PlanGreedy)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("ablation/planner:exhaustive",
                               PlanExhaustive)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("ablation/q13_resort:swap", ResortBySwap)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/q13_resort:refactorise",
                               ResortFromScratch)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/q13_resort:flat_sort",
                               ResortFlatSort)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/materialise:factorised",
                               BuildFactorisedView)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ablation/materialise:flat_join",
                               BuildFlatJoin)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace bench
}  // namespace fdb

int main(int argc, char** argv) {
  fdb::bench::RegisterAll();
  return fdb::bench::RunBenchmarks("ablation", argc, argv);
}
