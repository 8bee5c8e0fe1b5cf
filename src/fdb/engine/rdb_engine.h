#ifndef FDB_ENGINE_RDB_ENGINE_H_
#define FDB_ENGINE_RDB_ENGINE_H_

#include <memory>
#include <string>

#include "fdb/engine/database.h"
#include "fdb/query/binder.h"

namespace fdb {

namespace obs {
class Trace;
}  // namespace obs

/// Options for the RDB baseline engine.
struct RdbOptions {
  /// Sort-based grouping mirrors SQLite; hash-based mirrors PostgreSQL
  /// (Experiment 1 / Experiment 5).
  enum class Grouping { kSort, kHash };
  Grouping grouping = Grouping::kSort;
  /// Use the manually optimised eager-aggregation plan (Yan–Larson [31])
  /// instead of join-then-aggregate (Experiment 2, "man" bars of Fig. 6).
  bool eager = false;
  /// Record per-phase spans into this trace (null = off). ExecuteSql
  /// creates one automatically for EXPLAIN ANALYZE queries.
  obs::Trace* trace = nullptr;
};

/// Result of RDB evaluation.
struct RdbResult {
  Relation flat;
  double seconds = 0.0;
  /// The execution trace for EXPLAIN ANALYZE queries (null otherwise).
  std::shared_ptr<obs::Trace> trace;
};

/// The flat relational baseline engine standing in for SQLite/PostgreSQL:
/// pushes constant selections below the joins, natural-joins the inputs
/// with hash joins, then groups/aggregates, sorts and limits.
class RdbEngine {
 public:
  explicit RdbEngine(Database* db) : db_(db) {}

  /// Evaluates `q`. Reports the completion (latency, rows, errors) to the
  /// statement store when metrics are enabled, mirroring FdbEngine.
  RdbResult Execute(const BoundQuery& q, const RdbOptions& options = {});

  /// Convenience: parse + bind + execute. Throws std::invalid_argument
  /// for statements that are not queries (see Bind).
  RdbResult ExecuteSql(const std::string& sql, const RdbOptions& options = {});

 private:
  RdbResult ExecuteImpl(const BoundQuery& q, const RdbOptions& options);

  Database* db_;
};

}  // namespace fdb

#endif  // FDB_ENGINE_RDB_ENGINE_H_
