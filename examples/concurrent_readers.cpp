// Concurrent serving demo: many reader threads run aggregate queries
// against a materialised view while a writer commits a stream of inserts
// (Database::Commit) through the Database's epoch-style view map —
// readers grab a snapshot (shared_ptr) of the current version and never
// block, each commit builds the new version off-line on shared arenas
// and swaps it in, and generational compaction retires dead versions
// once the last reader drops them.
//
// Usage: concurrent_readers [scale] [readers] [writes]   (defaults 2 4 300)

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/enumerate.h"
#include "fdb/engine/database.h"
#include "fdb/exec/task_pool.h"
#include "fdb/workload/generator.h"

using namespace fdb;

int main(int argc, char** argv) {
  int scale = argc > 1 ? std::atoi(argv[1]) : 2;
  int num_readers = argc > 2 ? std::atoi(argv[2]) : 4;
  int num_writes = argc > 3 ? std::atoi(argv[3]) : 300;

  Database db;
  InstallWorkload(&db, SmallParams(scale), "R1");

  // The updatable view: Orders as a sorted path trie (date → customer →
  // package), the shape commits maintain incrementally.
  AttributeRegistry& reg = db.registry();
  AttrId date = *reg.Find("date"), customer = *reg.Find("customer"),
         package = *reg.Find("package");
  db.AddView("OrdersByDate",
             FactoriseRelation(*db.relation("Orders"),
                               {date, customer, package}));
  int64_t base_orders = db.ViewSnapshot("OrdersByDate")->CountTuples();

  std::cout << "serving " << base_orders << " orders to " << num_readers
            << " reader threads while applying " << num_writes
            << " inserts (pool: "
            << exec::TaskPool::Default().num_threads() << " threads)\n";

  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < num_readers; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        // A snapshot pins one consistent version for the whole query —
        // updates and compaction proceed underneath without blocking it.
        std::shared_ptr<const Factorisation> v =
            db.ViewSnapshot("OrdersByDate");
        int64_t n = v->CountTuples();
        if (n < base_orders) {
          std::cerr << "reader saw a torn version!\n";
          std::exit(1);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int64_t i = 0; i < num_writes; ++i) {
    // New synthetic order far outside the generated id ranges.
    db.Commit({storage::WalOp{
        storage::WalOp::kInsert, "OrdersByDate",
        {Value(int64_t{9000000} + i), Value(int64_t{1}), Value(int64_t{1})}}});
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  int64_t final_orders = db.ViewSnapshot("OrdersByDate")->CountTuples();
  std::cout << "served " << queries.load() << " snapshot queries; view grew "
            << base_orders << " -> " << final_orders << " orders\n";
  return final_orders == base_orders + num_writes ? 0 : 1;
}
