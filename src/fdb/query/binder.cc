#include "fdb/query/binder.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace fdb {
namespace {

[[noreturn]] void BindError(const std::string& what) {
  throw std::invalid_argument("bind error: " + what);
}

// Interns `base` as an output column name, appending "#n" only when the
// name is already taken *within this query* (as another task column or
// output). Re-binding the same SQL therefore produces the same schema.
AttrId UniqueAlias(AttributeRegistry* reg, const BoundQuery& q,
                   const std::string& base) {
  auto taken = [&q](AttrId id) {
    for (AttrId t : q.task_ids) {
      if (t == id) return true;
    }
    for (const OutputColumn& c : q.outputs) {
      if (c.attr == id) return true;
    }
    return false;
  };
  AttrId id = reg->Intern(base);
  if (!taken(id)) return id;
  for (int i = 2;; ++i) {
    AttrId alt = reg->Intern(base + "#" + std::to_string(i));
    if (!taken(alt)) return alt;
  }
}

AggFn ToAggFn(ParseAggFn fn) {
  switch (fn) {
    case ParseAggFn::kCount:
      return AggFn::kCount;
    case ParseAggFn::kSum:
      return AggFn::kSum;
    case ParseAggFn::kMin:
      return AggFn::kMin;
    case ParseAggFn::kMax:
      return AggFn::kMax;
    case ParseAggFn::kAvg:
      break;
  }
  throw std::logic_error("ToAggFn: avg must be expanded by the caller");
}

// FNV-1a over a tagged byte stream: every clause writes a distinct tag
// byte before its payload, so reordered clauses and empty-vs-missing
// clauses cannot collide.
struct Fingerprinter {
  uint64_t h = 14695981039346656037ull;

  void Byte(uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void Tag(char t) { Byte(static_cast<uint8_t>(t)); }
  void I64(int64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (i * 8)));
  }
  void Str(const std::string& s) {
    I64(static_cast<int64_t>(s.size()));
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
};

// Computes the statement fingerprint and normalized text from the bound
// form. Constants are excluded from the hash and rendered as `?`, so
// `price < 10` and `price < 99` aggregate together; `explain_analyze` is
// excluded so an analyzed run lands on the plain statement's entry.
void ComputeFingerprint(BoundQuery* q, const AttributeRegistry& reg) {
  Fingerprinter fp;
  std::string text = "SELECT ";
  if (q->select_star) {
    text += "*";
  } else {
    for (size_t i = 0; i < q->outputs.size(); ++i) {
      if (i > 0) text += ", ";
      text += reg.Name(q->outputs[i].attr);
    }
  }
  text += " FROM ";
  fp.Tag('f');
  for (size_t i = 0; i < q->from.size(); ++i) {
    if (i > 0) text += ", ";
    text += q->from[i];
    fp.Str(q->from[i]);
  }
  fp.Tag('s');
  fp.Byte(q->select_star ? 1 : 0);
  fp.Byte(q->distinct_projection ? 1 : 0);
  if (!q->eq_selections.empty() || !q->const_selections.empty()) {
    text += " WHERE ";
    bool first = true;
    fp.Tag('w');
    for (const auto& [a, b] : q->eq_selections) {
      if (!first) text += " AND ";
      first = false;
      text += reg.Name(a) + " = " + reg.Name(b);
      fp.I64(a);
      fp.I64(b);
    }
    for (const auto& [a, op, v] : q->const_selections) {
      if (!first) text += " AND ";
      first = false;
      text += reg.Name(a) + " " + CmpOpName(op) + " ?";
      fp.Tag('c');
      fp.I64(a);
      fp.Byte(static_cast<uint8_t>(op));
      // The constant's value deliberately does not feed the hash.
    }
  }
  fp.Tag('g');
  // Plain projections carry their columns in `group` too; the clause is
  // rendered only for genuine GROUP BY shapes, but the ids always feed
  // the hash (they distinguish projections).
  if (!q->group.empty() && q->has_aggregates()) {
    text += " GROUP BY ";
    for (size_t i = 0; i < q->group.size(); ++i) {
      if (i > 0) text += ", ";
      text += reg.Name(q->group[i]);
    }
  }
  for (AttrId a : q->group) fp.I64(a);
  fp.Tag('t');
  for (size_t i = 0; i < q->tasks.size(); ++i) {
    fp.Byte(static_cast<uint8_t>(q->tasks[i].fn));
    fp.I64(q->tasks[i].source);
    fp.I64(q->task_ids[i]);
  }
  fp.Tag('o');
  for (const OutputColumn& c : q->outputs) {
    fp.Byte(static_cast<uint8_t>(c.kind));
    fp.I64(c.attr);
    fp.I64(c.task);
    fp.I64(c.task2);
  }
  if (!q->having.empty()) {
    text += " HAVING ";
    fp.Tag('h');
    for (size_t i = 0; i < q->having.size(); ++i) {
      const BoundHaving& b = q->having[i];
      if (i > 0) text += " AND ";
      switch (b.kind) {
        case BoundHaving::Kind::kGroupCol:
          text += reg.Name(b.attr);
          break;
        case BoundHaving::Kind::kTask:
        case BoundHaving::Kind::kAvg:
          text += reg.Name(q->task_ids[b.task]);
          break;
      }
      text += " " + CmpOpName(b.op) + " ?";
      fp.Byte(static_cast<uint8_t>(b.kind));
      fp.I64(b.attr);
      fp.I64(b.task);
      fp.I64(b.task2);
      fp.Byte(static_cast<uint8_t>(b.op));
      // b.rhs (the constant) stays out of the hash.
    }
  }
  if (!q->order_by.empty()) {
    text += " ORDER BY ";
    fp.Tag('r');
    for (size_t i = 0; i < q->order_by.size(); ++i) {
      if (i > 0) text += ", ";
      text += reg.Name(q->order_by[i].attr);
      if (q->order_by[i].dir == SortDir::kDesc) text += " DESC";
      fp.I64(q->order_by[i].attr);
      fp.Byte(q->order_by[i].dir == SortDir::kDesc ? 1 : 0);
    }
  }
  if (q->limit.has_value()) {
    text += " LIMIT ?";
    fp.Tag('l');  // presence only; the limit value is a constant
  }
  q->normalized_sql = std::move(text);
  q->fingerprint = fp.h == 0 ? 1 : fp.h;  // reserve 0 for "none"
}

}  // namespace

BoundQuery Bind(const ParsedQuery& q, Database* db) {
  if (q.kind != StmtKind::kSelect) {
    throw std::invalid_argument(
        "not a query: the engines run SELECT only; writes and transactions "
        "go through a server session or Database");
  }
  BoundQuery out;
  out.from = q.from;
  out.select_star = q.select_star;
  out.explain_analyze = q.explain_analyze;
  out.limit = q.limit;

  // Collect the available attributes from the FROM sources.
  std::vector<AttrId> avail;
  for (const std::string& name : q.from) {
    std::vector<AttrId> attrs;
    if (const Relation* r = db->relation(name)) {
      attrs = r->schema().attrs();
    } else if (std::shared_ptr<const Factorisation> v =
                   db->ViewSnapshot(name)) {
      // Snapshot held across the schema read (concurrent swap safety).
      attrs = v->OutputSchema().attrs();
    } else if (std::optional<Relation> sys = db->SystemTable(name)) {
      // Virtual introspection tables (fdb.statements, fdb.events, ...):
      // materialised fresh at execution time; here only the schema counts.
      attrs = sys->schema().attrs();
    } else {
      BindError("unknown relation or view '" + name + "'");
    }
    for (AttrId a : attrs) {
      if (std::find(avail.begin(), avail.end(), a) == avail.end()) {
        avail.push_back(a);
      }
    }
  }
  auto resolve = [&](const std::string& col) {
    auto id = db->registry().Find(col);
    if (!id.has_value() ||
        std::find(avail.begin(), avail.end(), *id) == avail.end()) {
      BindError("unknown column '" + col + "'");
    }
    return *id;
  };

  // WHERE.
  for (const WherePred& p : q.where) {
    AttrId lhs = resolve(p.lhs);
    if (p.rhs_is_attr) {
      if (p.op != CmpOp::kEq) {
        BindError("attribute-to-attribute comparisons must be equalities");
      }
      AttrId rhs = resolve(p.rhs_attr);
      if (lhs != rhs) out.eq_selections.emplace_back(lhs, rhs);
    } else {
      out.const_selections.emplace_back(lhs, p.op, p.rhs_const);
    }
  }

  // SELECT list and GROUP BY.
  bool any_agg = false;
  for (const SelectItem& it : q.items) {
    if (it.agg.has_value()) any_agg = true;
  }
  if (!q.group_by.empty() || any_agg) {
    // Aggregate query (GROUP BY without aggregates = distinct projection,
    // still routed through the grouping machinery).
    for (const std::string& g : q.group_by) {
      AttrId a = resolve(g);
      if (std::find(out.group.begin(), out.group.end(), a) ==
          out.group.end()) {
        out.group.push_back(a);
      }
    }
    auto add_task = [&](AggFn fn, AttrId src, const std::string& name) {
      AggTask t{fn, src};
      for (size_t i = 0; i < out.tasks.size(); ++i) {
        if (out.tasks[i] == t) return static_cast<int>(i);
      }
      out.tasks.push_back(t);
      out.task_ids.push_back(UniqueAlias(&db->registry(), out, name));
      return static_cast<int>(out.tasks.size()) - 1;
    };
    for (const SelectItem& it : q.items) {
      OutputColumn col;
      if (!it.agg.has_value()) {
        AttrId a = resolve(it.column);
        if (std::find(out.group.begin(), out.group.end(), a) ==
            out.group.end()) {
          BindError("column '" + it.column +
                    "' must appear in the GROUP BY clause");
        }
        col.kind = OutputColumn::Kind::kGroup;
        col.attr = a;
      } else if (*it.agg == ParseAggFn::kAvg) {
        AttrId src = resolve(it.column);
        col.kind = OutputColumn::Kind::kAvg;
        col.task = add_task(AggFn::kSum, src, "sum(" + it.column + ")");
        col.task2 = add_task(AggFn::kCount, kInvalidAttr, "count(*)");
        col.attr = UniqueAlias(
            &db->registry(), out,
            it.alias.empty() ? "avg(" + it.column + ")" : it.alias);
      } else {
        AggFn fn = ToAggFn(*it.agg);
        AttrId src = kInvalidAttr;
        if (fn != AggFn::kCount) {
          src = resolve(it.column);
        } else if (!it.column.empty()) {
          resolve(it.column);  // validate; count(a) == count(*) without NULLs
        }
        std::string display =
            AggFnName(fn) + "(" + (it.column.empty() ? "*" : it.column) + ")";
        col.kind = OutputColumn::Kind::kAgg;
        col.task = add_task(fn, src, it.alias.empty() ? display : it.alias);
        col.attr = it.alias.empty() ? out.task_ids[col.task]
                                    : db->registry().Intern(it.alias);
        // If the task pre-existed under a different name, alias it anyway.
        if (!it.alias.empty()) {
          out.task_ids[col.task] = col.attr;
        }
      }
      out.outputs.push_back(col);
    }
    if (!any_agg) out.distinct_projection = true;

    // HAVING: resolve against aliases, group columns, or fresh tasks.
    for (const HavingPred& h : q.having) {
      BoundHaving b;
      b.op = h.op;
      b.rhs = h.rhs;
      if (h.agg.has_value()) {
        if (*h.agg == ParseAggFn::kAvg) {
          AttrId src = resolve(h.column);
          b.kind = BoundHaving::Kind::kAvg;
          b.task = add_task(AggFn::kSum, src, "sum(" + h.column + ")");
          b.task2 = add_task(AggFn::kCount, kInvalidAttr, "count(*)");
        } else {
          AggFn fn = ToAggFn(*h.agg);
          AttrId src = fn == AggFn::kCount ? kInvalidAttr : resolve(h.column);
          std::string display =
              AggFnName(fn) + "(" + (h.column.empty() ? "*" : h.column) + ")";
          b.kind = BoundHaving::Kind::kTask;
          b.task = add_task(fn, src, display);
        }
      } else {
        // An alias of a select item, or a grouping column.
        auto id = db->registry().Find(h.column);
        int task = -1;
        if (id.has_value()) {
          for (size_t i = 0; i < out.task_ids.size(); ++i) {
            if (out.task_ids[i] == *id) task = static_cast<int>(i);
          }
        }
        if (task >= 0) {
          b.kind = BoundHaving::Kind::kTask;
          b.task = task;
        } else {
          AttrId a = resolve(h.column);
          if (std::find(out.group.begin(), out.group.end(), a) ==
              out.group.end()) {
            BindError("HAVING column '" + h.column +
                      "' is neither an aggregate alias nor grouped");
          }
          b.kind = BoundHaving::Kind::kGroupCol;
          b.attr = a;
        }
      }
      out.having.push_back(b);
    }
  } else {
    // Select-project-join query.
    if (!q.having.empty()) {
      BindError("HAVING requires GROUP BY or aggregates");
    }
    if (q.select_star) {
      for (AttrId a : avail) {
        out.outputs.push_back(
            {OutputColumn::Kind::kGroup, a, -1, -1});
      }
      out.distinct_projection = false;
    } else {
      for (const SelectItem& it : q.items) {
        AttrId a = resolve(it.column);
        out.outputs.push_back({OutputColumn::Kind::kGroup, a, -1, -1});
        if (std::find(out.group.begin(), out.group.end(), a) ==
            out.group.end()) {
          out.group.push_back(a);
        }
      }
      // A plain projection has set semantics (relational algebra π);
      // DISTINCT makes it explicit.
      out.distinct_projection = true;
    }
  }

  // ORDER BY: restricted to output columns, so both engines can realise it.
  for (const OrderItem& o : q.order_by) {
    auto id = db->registry().Find(o.column);
    if (!id.has_value()) BindError("unknown ORDER BY column '" + o.column + "'");
    bool in_outputs = false;
    for (const OutputColumn& c : out.outputs) {
      if (c.attr == *id) in_outputs = true;
    }
    if (!in_outputs && q.select_star) {
      in_outputs =
          std::find(avail.begin(), avail.end(), *id) != avail.end();
    }
    if (!in_outputs) {
      BindError("ORDER BY column '" + o.column +
                "' must be one of the output columns");
    }
    out.order_by.push_back({*id, o.dir});
  }

  ComputeFingerprint(&out, db->registry());
  return out;
}

void OutputStage::Begin(const RelSchema& raw) {
  const BoundQuery& q = *q_;
  auto group_pos = [&raw](AttrId a) {
    int pos = raw.IndexOf(a);
    if (pos < 0) throw std::logic_error("OutputStage: missing group column");
    return pos;
  };
  task_pos_.assign(q.tasks.size(), -1);
  for (size_t t = 0; t < q.tasks.size(); ++t) {
    task_pos_[t] = raw.IndexOf(q.task_ids[t]);
    if (task_pos_[t] < 0) {
      throw std::logic_error("OutputStage: missing task column");
    }
  }
  col_pos_.clear();
  std::vector<AttrId> out_attrs;
  for (const OutputColumn& c : q.outputs) {
    int pos = -1;
    if (c.kind == OutputColumn::Kind::kGroup) pos = group_pos(c.attr);
    if (c.kind == OutputColumn::Kind::kAgg) pos = task_pos_[c.task];
    col_pos_.push_back(pos);
    out_attrs.push_back(c.attr);
  }
  having_pos_.clear();
  for (const BoundHaving& h : q.having) {
    int pos = -1;
    if (h.kind == BoundHaving::Kind::kGroupCol) pos = group_pos(h.attr);
    if (h.kind == BoundHaving::Kind::kTask) pos = task_pos_[h.task];
    having_pos_.push_back(pos);
  }
  out_.assign(q.outputs.size(), Value());
  dst_->Begin(RelSchema(std::move(out_attrs)));
}

Value OutputStage::Avg(const Tuple& raw, int sum_task, int count_task) const {
  return Value(raw[task_pos_[sum_task]].numeric() /
               raw[task_pos_[count_task]].numeric());
}

bool OutputStage::Add(const Tuple& raw) {
  for (size_t h = 0; h < q_->having.size(); ++h) {
    const BoundHaving& b = q_->having[h];
    bool keep = having_pos_[h] >= 0
                    ? EvalCmp(raw[having_pos_[h]], b.op, b.rhs)
                    : EvalCmp(Avg(raw, b.task, b.task2), b.op, b.rhs);
    if (!keep) return false;
  }
  for (size_t c = 0; c < out_.size(); ++c) {
    const OutputColumn& col = q_->outputs[c];
    out_[c] = col_pos_[c] >= 0 ? raw[col_pos_[c]]
                               : Avg(raw, col.task, col.task2);
  }
  return dst_->Add(out_);
}

std::unique_ptr<RowSink> OutputStage::NewChunk() {
  auto chunk = std::make_unique<OutputStage>(*q_, nullptr);
  chunk->own_ = dst_->NewChunk();
  chunk->dst_ = chunk->own_.get();
  chunk->task_pos_ = task_pos_;
  chunk->col_pos_ = col_pos_;
  chunk->having_pos_ = having_pos_;
  chunk->out_ = out_;
  return chunk;
}

void OutputStage::AppendChunk(std::unique_ptr<RowSink> chunk) {
  dst_->AppendChunk(std::move(static_cast<OutputStage&>(*chunk).own_));
}

}  // namespace fdb
