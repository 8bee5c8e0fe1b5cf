#include "fdb/query/ast.h"

#include <sstream>

namespace fdb {

std::string ParseAggFnName(ParseAggFn fn) {
  switch (fn) {
    case ParseAggFn::kCount:
      return "count";
    case ParseAggFn::kSum:
      return "sum";
    case ParseAggFn::kMin:
      return "min";
    case ParseAggFn::kMax:
      return "max";
    case ParseAggFn::kAvg:
      return "avg";
  }
  return "?";
}

namespace {

std::string ConstToSql(const Value& v) {
  if (!v.is_string()) return v.ToString();
  std::string out = "'";
  for (char c : v.as_string()) {
    out += c;
    if (c == '\'') out += '\'';  // '' escapes a quote
  }
  return out + "'";
}

}  // namespace

std::string ToSql(const ParsedQuery& q) {
  std::ostringstream os;
  if (q.explain_analyze) os << "EXPLAIN ANALYZE ";
  os << "SELECT ";
  if (q.distinct) os << "DISTINCT ";
  if (q.select_star) {
    os << "*";
  } else {
    for (size_t i = 0; i < q.items.size(); ++i) {
      if (i) os << ", ";
      const SelectItem& it = q.items[i];
      if (it.agg.has_value()) {
        os << ParseAggFnName(*it.agg) << "("
           << (it.column.empty() ? "*" : it.column) << ")";
      } else {
        os << it.column;
      }
      if (!it.alias.empty()) os << " AS " << it.alias;
    }
  }
  os << " FROM ";
  for (size_t i = 0; i < q.from.size(); ++i) {
    if (i) os << ", ";
    os << q.from[i];
  }
  if (!q.where.empty()) {
    os << " WHERE ";
    for (size_t i = 0; i < q.where.size(); ++i) {
      if (i) os << " AND ";
      const WherePred& p = q.where[i];
      os << p.lhs << " " << CmpOpName(p.op) << " "
         << (p.rhs_is_attr ? p.rhs_attr : ConstToSql(p.rhs_const));
    }
  }
  if (!q.group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < q.group_by.size(); ++i) {
      if (i) os << ", ";
      os << q.group_by[i];
    }
  }
  if (!q.having.empty()) {
    os << " HAVING ";
    for (size_t i = 0; i < q.having.size(); ++i) {
      if (i) os << " AND ";
      const HavingPred& h = q.having[i];
      if (h.agg.has_value()) {
        os << ParseAggFnName(*h.agg) << "("
           << (h.column.empty() ? "*" : h.column) << ")";
      } else {
        os << h.column;
      }
      os << " " << CmpOpName(h.op) << " " << ConstToSql(h.rhs);
    }
  }
  if (!q.order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < q.order_by.size(); ++i) {
      if (i) os << ", ";
      os << q.order_by[i].column
         << (q.order_by[i].dir == SortDir::kDesc ? " DESC" : "");
    }
  }
  if (q.limit.has_value()) os << " LIMIT " << *q.limit;
  return os.str();
}

}  // namespace fdb
