#ifndef FDB_QUERY_AST_H_
#define FDB_QUERY_AST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fdb/relational/relation.h"

namespace fdb {

/// Aggregation functions at the syntax level; AVG is expanded by the binder
/// into a (sum, count) task pair (§3.2.4).
enum class ParseAggFn { kCount, kSum, kMin, kMax, kAvg };

std::string ParseAggFnName(ParseAggFn fn);

/// One item of a SELECT list: a plain column or an aggregate over a column
/// (`count(*)` has an empty column name).
struct SelectItem {
  std::optional<ParseAggFn> agg;
  std::string column;  ///< source column; empty only for count(*)
  std::string alias;   ///< output name; empty = default
};

/// One conjunct of a WHERE clause: `lhs op rhs`, where rhs is either
/// another attribute (equality joins/selections only) or a constant.
struct WherePred {
  std::string lhs;
  CmpOp op = CmpOp::kEq;
  bool rhs_is_attr = false;
  std::string rhs_attr;
  Value rhs_const;
};

/// One conjunct of a HAVING clause: an aggregate expression or an output
/// alias / grouping column compared with a constant.
struct HavingPred {
  std::optional<ParseAggFn> agg;  ///< set when written as agg(column)
  std::string column;             ///< aggregate source, or alias/column name
  CmpOp op = CmpOp::kEq;
  Value rhs;
};

/// One item of an ORDER BY list.
struct OrderItem {
  std::string column;
  SortDir dir = SortDir::kAsc;
};

/// What a statement does. Only kSelect is a query; the others are the
/// write and transaction statements a session (or the shell) applies
/// through Database.
enum class StmtKind { kSelect, kInsert, kDelete, kBegin, kCommit, kRollback };

/// A parsed statement. For kSelect: SELECT [DISTINCT] items FROM names
/// [WHERE ...] [GROUP BY ...] [HAVING ...] [ORDER BY ...] [LIMIT k].
/// FROM names are natural-joined (shared attribute names are equated),
/// matching the paper's query class (§2). For kInsert/kDelete: the
/// target view and the literal tuple of `VALUES (...)`.
struct ParsedQuery {
  StmtKind kind = StmtKind::kSelect;
  /// Query was prefixed with EXPLAIN ANALYZE: execute it and attach a
  /// per-phase trace to the result.
  bool explain_analyze = false;
  bool distinct = false;
  bool select_star = false;
  std::vector<SelectItem> items;
  std::vector<std::string> from;
  std::vector<WherePred> where;
  std::vector<std::string> group_by;
  std::vector<HavingPred> having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
  std::string target;  ///< kInsert/kDelete: the view written
  Tuple values;        ///< kInsert/kDelete: the tuple written
};

/// Renders a SELECT back to SQL (used in diagnostics and tests).
std::string ToSql(const ParsedQuery& q);

}  // namespace fdb

#endif  // FDB_QUERY_AST_H_
