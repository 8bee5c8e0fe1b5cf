// Materialised-view lifecycle: build a factorised view, persist it to
// disk, reload it into a fresh database, keep a sorted view up to date
// under inserts/deletes, and inspect per-node statistics and
// subexpression-sharing compression.
//
// Usage: materialised_views [scale]      (default scale 2)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "fdb/fdb.h"

using namespace fdb;

int main(int argc, char** argv) {
  int scale = argc > 1 ? std::atoi(argv[1]) : 2;
  std::string path =
      (std::filesystem::temp_directory_path() / "fdb_r1_view.fdbs").string();

  // --- build and persist ---------------------------------------------------
  Database db;
  int64_t singletons = InstallWorkload(&db, SmallParams(scale), "R1");
  std::cout << "built view R1: " << singletons << " singletons ("
            << db.view("R1")->CountTuples() << " tuples represented)\n";
  db.Save(path);
  std::cout << "saved to " << path << "\n";

  // --- reload into a fresh database and query ------------------------------
  Database fresh = Database::Open(path);
  FdbEngine engine(&fresh);
  FdbResult top = engine.ExecuteSql(
      "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY customer "
      "ORDER BY revenue DESC LIMIT 3");
  std::cout << "\ntop customers from the reloaded view:\n"
            << top.flat.ToString(fresh.registry());

  // --- per-node statistics --------------------------------------------------
  std::cout << "\nper-node union statistics (what the size bounds of [22] "
               "predict):\n"
            << FactStatsToString(*fresh.view("R1"), fresh.registry());

  // --- compression (toward the paper's §8 future work) ----------------------
  Factorisation compressed = *fresh.view("R1");
  CompressInPlace(&compressed);
  std::cout << "\nsubexpression sharing: " << compressed.CountSingletons()
            << " logical singletons stored as "
            << CountStoredSingletons(compressed) << "\n";

  // --- incremental maintenance of a sorted view -----------------------------
  AttributeRegistry& reg = db.registry();
  Factorisation r3 = FactoriseRelation(
      *db.relation("Orders"),
      {*reg.Find("date"), *reg.Find("customer"), *reg.Find("package")});
  std::cout << "\nsorted view R3 over Orders: " << r3.CountTuples()
            << " tuples\n";
  Tuple order = {Value(int64_t{9999}), Value(int64_t{1}),
                 Value(int64_t{2})};
  InsertTuple(&r3, order);
  std::cout << "after insert: " << r3.CountTuples()
            << " tuples, contains new order: "
            << (ContainsTuple(r3, order) ? "yes" : "no") << "\n";
  DeleteTuple(&r3, order);
  std::cout << "after delete: " << r3.CountTuples() << " tuples\n";

  // --- clean up the snapshot: one base file -------------------------------
  std::remove(path.c_str());
  return 0;
}
