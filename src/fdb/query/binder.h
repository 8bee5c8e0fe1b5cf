#ifndef FDB_QUERY_BINDER_H_
#define FDB_QUERY_BINDER_H_

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fdb/core/enumerate.h"
#include "fdb/engine/database.h"
#include "fdb/query/ast.h"
#include "fdb/relational/agg.h"

namespace fdb {

/// One output column of a bound query, in SELECT order.
struct OutputColumn {
  enum class Kind { kGroup, kAgg, kAvg };
  Kind kind = Kind::kGroup;
  AttrId attr = kInvalidAttr;  ///< group attribute, or the output alias id
  int task = -1;               ///< task index (sum task for kAvg)
  int task2 = -1;              ///< count task for kAvg
};

/// One bound HAVING conjunct, evaluated against the raw
/// (group columns + task columns) result.
struct BoundHaving {
  enum class Kind { kGroupCol, kTask, kAvg };
  Kind kind = Kind::kGroupCol;
  AttrId attr = kInvalidAttr;  ///< for kGroupCol
  int task = -1;
  int task2 = -1;  ///< count task for kAvg
  CmpOp op = CmpOp::kEq;
  Value rhs;
};

/// A validated query with every name resolved to attribute ids, ready for
/// both engines. `tasks` are deduplicated; `task_ids` name their columns.
struct BoundQuery {
  std::vector<std::string> from;
  bool select_star = false;
  /// Carried through from ParsedQuery: attach an execution trace.
  bool explain_analyze = false;
  /// True when the query needs set semantics on a projection (DISTINCT, a
  /// plain-column subset selection, or GROUP BY without aggregates).
  bool distinct_projection = false;

  std::vector<std::pair<AttrId, AttrId>> eq_selections;
  std::vector<std::tuple<AttrId, CmpOp, Value>> const_selections;

  std::vector<AttrId> group;  ///< group-by / distinct-projection attributes
  std::vector<AggTask> tasks;
  std::vector<AttrId> task_ids;
  std::vector<OutputColumn> outputs;
  std::vector<BoundHaving> having;

  std::vector<SortKey> order_by;  ///< group attrs or task output ids
  std::optional<int64_t> limit;

  /// Statement fingerprint: an FNV-1a hash of the normalized bound form
  /// (names canonicalised to attribute ids, constants stripped, EXPLAIN
  /// ANALYZE transparent). Two queries differing only in literal values
  /// share a fingerprint; the statement store aggregates on it. 0 means
  /// "not fingerprinted".
  uint64_t fingerprint = 0;
  /// Normalized statement text matching the fingerprint: registry names,
  /// `?` in place of every constant.
  std::string normalized_sql;

  bool has_aggregates() const { return !tasks.empty(); }
};

/// Resolves and validates a parsed query against the database (relation or
/// view names in FROM, column names, SQL grouping rules, ORDER BY columns
/// restricted to output columns). Throws std::invalid_argument with a
/// descriptive message on semantic errors, and for any statement that is
/// not a SELECT. Interns output aliases in the database registry.
BoundQuery Bind(const ParsedQuery& q, Database* db);

/// The per-row output stage of a grouped or DISTINCT query: a RowSink
/// adapter over `dst`. Its input rows (the raw schema handed to Begin)
/// hold every group attribute and task column, in any order. Each row
/// must pass the HAVING conjuncts; a kept row gets its avg columns
/// computed and is mapped to SELECT order in one reused tuple, which goes
/// to `dst` (whose Begin receives the SELECT-order schema). Add returns
/// whether `dst` kept the row, so a limit on the enumeration feeding the
/// stage counts output rows. NewChunk/AppendChunk wrap dst's, so rank
/// chunks keep their order. `q` and `dst` must outlive the stage.
class OutputStage : public RowSink {
 public:
  OutputStage(const BoundQuery& q, RowSink* dst) : q_(&q), dst_(dst) {}

  /// Resolves the raw columns; throws std::logic_error if a group
  /// attribute or task column the query needs is missing.
  void Begin(const RelSchema& raw) override;
  bool Add(const Tuple& raw) override;
  std::unique_ptr<RowSink> NewChunk() override;
  void AppendChunk(std::unique_ptr<RowSink> chunk) override;

 private:
  Value Avg(const Tuple& raw, int sum_task, int count_task) const;

  const BoundQuery* q_;
  RowSink* dst_;
  std::unique_ptr<RowSink> own_;  // a chunk stage's dst
  // Raw position of each task column; of each output column and HAVING
  // conjunct's left side (-1 where it is an avg, computed per row).
  std::vector<int> task_pos_;
  std::vector<int> col_pos_;
  std::vector<int> having_pos_;
  Tuple out_;  // the output row, reused
};

}  // namespace fdb

#endif  // FDB_QUERY_BINDER_H_
