#ifndef FDB_ENGINE_FDB_ENGINE_H_
#define FDB_ENGINE_FDB_ENGINE_H_

#include <memory>
#include <optional>
#include <string>

#include "fdb/core/enumerate.h"
#include "fdb/core/stats.h"
#include "fdb/engine/database.h"
#include "fdb/optimizer/exhaustive.h"
#include "fdb/optimizer/greedy.h"
#include "fdb/query/binder.h"

namespace fdb {

namespace obs {
class Trace;
}  // namespace obs

/// Options controlling FDB query evaluation.
struct FdbOptions {
  enum class Planner { kGreedy, kExhaustive };
  Planner planner = Planner::kGreedy;
  /// FDB f/o: keep the result factorised instead of enumerating tuples
  /// (Fig. 5). Only meaningful for aggregate/SPJ queries without limit.
  bool factorised_output = false;
  /// State cap for the exhaustive planner before falling back to greedy.
  int exhaustive_max_states = 20000;
  /// Record per-operator statistics (op_stats, result_singletons). Off by
  /// default: counting singletons after every operator costs a full walk of
  /// the factorisation, which would mask the benefit of partial
  /// restructuring on limit queries.
  bool collect_stats = false;
  /// Record per-phase spans (with cardinalities and factorisation stats)
  /// into this trace. Null = tracing off: the execution path pays nothing.
  /// ExecuteSql creates and attaches one automatically for
  /// EXPLAIN ANALYZE queries.
  obs::Trace* trace = nullptr;
};

/// The result of FDB evaluation: a flat relation (default) or the result
/// factorisation (f/o mode), plus plan and execution statistics.
struct FdbResult {
  /// The flat rows, unless a RowSink received them instead.
  Relation flat;
  /// Flat output rows produced, whether collected in `flat` or streamed.
  int64_t rows = 0;
  std::optional<Factorisation> factorised;
  FPlan plan;
  std::vector<FOpStats> op_stats;
  double plan_seconds = 0.0;
  double exec_seconds = 0.0;   ///< f-plan operator execution
  double enum_seconds = 0.0;   ///< result enumeration
  int64_t result_singletons = 0;
  bool used_exhaustive = false;
  /// The execution trace for EXPLAIN ANALYZE queries (null otherwise).
  /// Render with obs::ExplainReport or obs::Trace::ToChromeJson.
  std::shared_ptr<obs::Trace> trace;
  /// Footprint of the input factorisation. Captured only on traced runs
  /// (ComputeFootprint walks the whole DAG); also sampled into the
  /// statement store.
  std::optional<FactFootprint> input_footprint;
};

/// The FDB query engine (paper §1–§5): evaluates bound queries over
/// factorised materialised views, or over flat relations by factorising
/// their natural join first (Experiment 2).
class FdbEngine {
 public:
  explicit FdbEngine(Database* db) : db_(db) {}

  /// Evaluates `q`. FROM must name either a single factorised view, a set
  /// of base relations, or a system table (fdb.statements, ...). Reports
  /// the completion (latency, rows, errors) to the statement store when
  /// metrics are enabled.
  ///
  /// With a `sink`, the flat output streams into it in SELECT column
  /// order while it is enumerated, and `flat` stays empty; without one it
  /// is collected into `flat`. Either way `rows` counts it. A sink sees
  /// Begin before any row, and nothing at all in factorised-output mode.
  FdbResult Execute(const BoundQuery& q, const FdbOptions& options = {},
                    RowSink* sink = nullptr);

  /// Convenience: parse + bind + execute. Throws std::invalid_argument
  /// for statements that are not queries (see Bind).
  FdbResult ExecuteSql(const std::string& sql, const FdbOptions& options = {},
                       RowSink* sink = nullptr);

  /// Bind + execute a statement ParseSql already read, for callers that
  /// parse once to dispatch on the statement kind. The parse started at
  /// `parse_t0` and took `parse_ns`: a traced run records it as its parse
  /// span.
  FdbResult ExecuteParsed(const ParsedQuery& pq, int64_t parse_t0,
                          int64_t parse_ns, const FdbOptions& options = {},
                          RowSink* sink = nullptr);

 private:
  FdbResult ExecuteImpl(const BoundQuery& q, const FdbOptions& options,
                        RowSink* sink);
  // The factorised natural join of q's base relations and system tables;
  // ExecuteImpl reads a single view itself.
  Factorisation InputFactorisation(const BoundQuery& q);

  Database* db_;
};

}  // namespace fdb

#endif  // FDB_ENGINE_FDB_ENGINE_H_
