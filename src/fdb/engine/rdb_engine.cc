#include "fdb/engine/rdb_engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/obs/statements.h"
#include "fdb/obs/trace.h"
#include "fdb/query/parser.h"
#include "fdb/relational/eager.h"
#include "fdb/relational/rdb_ops.h"

namespace fdb {

RdbResult RdbEngine::ExecuteSql(const std::string& sql,
                                const RdbOptions& options) {
  int64_t parse_t0 = obs::NowNs();
  ParsedQuery pq = ParseSql(sql);
  int64_t parse_dur = obs::NowNs() - parse_t0;

  RdbOptions opts = options;
  std::shared_ptr<obs::Trace> owned;
  if (pq.explain_analyze && opts.trace == nullptr) {
    owned = std::make_shared<obs::Trace>();
    opts.trace = owned.get();
  }
  if (opts.trace != nullptr) {
    opts.trace->AddComplete("parse", parse_t0, parse_dur);
  }

  BoundQuery bq;
  {
    obs::SpanScope span(opts.trace, "bind");
    bq = Bind(pq, db_);
  }
  RdbResult result = Execute(bq, opts);
  if (owned != nullptr) result.trace = std::move(owned);
  return result;
}

RdbResult RdbEngine::Execute(const BoundQuery& q, const RdbOptions& options) {
  static obs::Histogram& query_hist = obs::Registry::Instance().GetHistogram(
      "engine.rdb_query_ns", "ns", "RDB baseline query end-to-end latency");
  obs::ScopedLatency query_latency(query_hist);

  // Statement-store / slow-query reporting, mirroring FdbEngine::Execute
  // (system-table queries excluded: introspection must not self-pollute).
  bool track = (obs::MetricsEnabled() || obs::LogEnabled()) &&
               q.fingerprint != 0;
  if (track) {
    for (const std::string& name : q.from) {
      if (Database::IsSystemTable(name)) {
        track = false;
        break;
      }
    }
  }
  if (!track) return ExecuteImpl(q, options);

  int64_t t0 = obs::NowNs();
  try {
    RdbResult result = ExecuteImpl(q, options);
    obs::ReportQueryCompletion(q.fingerprint, q.normalized_sql,
                               /*via_fdb=*/false,
                               static_cast<uint64_t>(obs::NowNs() - t0),
                               result.flat.size(), /*error=*/false);
    return result;
  } catch (...) {
    obs::ReportQueryCompletion(q.fingerprint, q.normalized_sql,
                               /*via_fdb=*/false,
                               static_cast<uint64_t>(obs::NowNs() - t0),
                               /*rows=*/0, /*error=*/true);
    throw;
  }
}

RdbResult RdbEngine::ExecuteImpl(const BoundQuery& q,
                                 const RdbOptions& options) {
  obs::Trace* tr = options.trace;
  std::shared_ptr<obs::Trace> owned;
  if (q.explain_analyze && tr == nullptr) {
    owned = std::make_shared<obs::Trace>();
    tr = owned.get();
  }

  auto t0 = std::chrono::steady_clock::now();

  // Materialise the inputs (flattening factorised views if named).
  std::vector<Relation> inputs;
  {
    obs::SpanScope span(tr, "materialise-inputs");
    for (const std::string& name : q.from) {
      if (const Relation* r = db_->relation(name)) {
        inputs.push_back(*r);
      } else if (std::shared_ptr<const Factorisation> v =
                     db_->ViewSnapshot(name)) {
        // Snapshot held across Flatten: concurrent view swaps cannot
        // retire this version mid-enumeration.
        inputs.push_back(v->Flatten());
      } else if (std::optional<Relation> sys = db_->SystemTable(name)) {
        inputs.push_back(std::move(*sys));
      } else {
        throw std::invalid_argument("RdbEngine: unknown relation '" + name +
                                    "'");
      }
    }
    if (tr != nullptr) {
      int64_t rows = 0;
      for (const Relation& r : inputs) rows += r.size();
      span.NoteInt("inputs", static_cast<int64_t>(inputs.size()));
      span.NoteInt("input_rows", rows);
    }
  }

  Relation raw;
  bool raw_is_final_agg = false;
  {
    obs::SpanScope span(tr, "join");
    // Push constant selections below the joins.
    for (Relation& rel : inputs) {
      for (const auto& [attr, op, c] : q.const_selections) {
        if (rel.schema().Contains(attr)) {
          rel = SelectConst(rel, attr, op, c);
        }
      }
    }

    std::vector<const Relation*> ptrs;
    for (const Relation& r : inputs) ptrs.push_back(&r);

    if (options.eager && q.has_aggregates() && q.eq_selections.empty()) {
      raw = EagerAggregateJoin(ptrs, q.group, q.tasks, q.task_ids,
                               &db_->registry());
      raw_is_final_agg = true;
      span.NoteStr("strategy", "eager-aggregate");
    } else {
      raw = inputs.size() == 1 ? std::move(inputs[0]) : NaturalJoinAll(ptrs);
      for (const auto& [a, b] : q.eq_selections) {
        raw = SelectAttrEq(raw, a, b);
      }
    }
    if (tr != nullptr) span.NoteInt("join_rows", raw.size());
  }

  Relation out;
  {
    obs::SpanScope span(tr, q.has_aggregates() ? "aggregate" : "project");
    if (q.has_aggregates()) {
      if (!raw_is_final_agg) {
        raw = options.grouping == RdbOptions::Grouping::kSort
                  ? SortGroupAggregate(raw, q.group, q.tasks, q.task_ids)
                  : HashGroupAggregate(raw, q.group, q.tasks, q.task_ids);
      }
      // The FDB engine's output stage: HAVING, avg and SELECT order.
      RelationSink assembled;
      OutputStage stage(q, &assembled);
      stage.Begin(raw.schema());
      for (const Tuple& row : raw.rows()) stage.Add(row);
      out = std::move(assembled.relation());
    } else if (q.distinct_projection) {
      std::vector<AttrId> want;
      for (const OutputColumn& c : q.outputs) want.push_back(c.attr);
      out = Project(raw, want, /*dedup=*/true);
    } else {
      std::vector<AttrId> want;
      for (const OutputColumn& c : q.outputs) want.push_back(c.attr);
      out = Project(raw, want, /*dedup=*/false);
    }
    if (tr != nullptr) span.NoteInt("rows", out.size());
  }

  {
    obs::SpanScope span(tr, "sort-limit");
    // Reuse an existing order when the input happens to be sorted already
    // (a pre-sorted materialised view needs only a scan, Experiment 4 /
    // Q10).
    if (!q.order_by.empty() && !out.IsSortedBy(q.order_by)) {
      out.SortBy(q.order_by);
    }
    if (q.limit.has_value()) out = Limit(out, *q.limit);
  }

  RdbResult result;
  result.flat = std::move(out);
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  if (owned != nullptr) result.trace = std::move(owned);
  return result;
}

}  // namespace fdb
