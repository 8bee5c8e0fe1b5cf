#include "fdb/engine/fdb_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_set>

#include "fdb/core/build.h"
#include "fdb/core/order.h"
#include "fdb/core/ops/project.h"
#include "fdb/core/stats.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/obs/statements.h"
#include "fdb/obs/trace.h"
#include "fdb/query/parser.h"

namespace fdb {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* FOpKindName(FOpKind k) {
  switch (k) {
    case FOpKind::kSwap:
      return "swap";
    case FOpKind::kMerge:
      return "merge";
    case FOpKind::kAbsorb:
      return "absorb";
    case FOpKind::kSelectConst:
      return "select";
    case FOpKind::kAggregate:
      return "aggregate";
    case FOpKind::kRename:
      return "rename";
  }
  return "?";
}

// Attaches a factorisation size summary to a trace span — the paper's
// per-query size gap (factorised vs. flat), visible in EXPLAIN ANALYZE.
void NoteFootprint(obs::SpanScope& span, const FactFootprint& fp) {
  if (span.trace() == nullptr) return;
  span.NoteInt("unions", fp.unions);
  span.NoteInt("singletons", fp.singletons);
  span.NoteInt("flat_tuples", fp.tuples);
  span.NoteInt("flat_values", fp.flat_values);
  span.NoteInt("arena_bytes", fp.arena_bytes);
  span.NoteDouble("compression", fp.CompressionRatio());
}

// True if any order-by key references a task output (an aggregate alias):
// those orders are realised by factorising and restructuring the (small)
// aggregated result instead (Q7 in Experiment 3).
bool OrderNeedsResult(const BoundQuery& q) {
  for (const SortKey& k : q.order_by) {
    for (AttrId id : q.task_ids) {
      if (k.attr == id) return true;
    }
  }
  return false;
}

// Visit order over the grouping nodes: order-by nodes first (in order-by
// sequence), then the remaining grouping nodes in topological order.
void GroupVisitOrder(const FTree& tree, const std::vector<AttrId>& group,
                     const std::vector<SortKey>& order,
                     std::vector<int>* visit, std::vector<SortDir>* dirs) {
  std::unordered_set<int> seen;
  for (const SortKey& k : order) {
    int n = tree.NodeOfAttr(k.attr);
    if (n < 0) {
      throw std::logic_error("GroupVisitOrder: order attribute not in tree");
    }
    if (seen.insert(n).second) {
      visit->push_back(n);
      dirs->push_back(k.dir);
    }
  }
  std::unordered_set<int> g_nodes;
  for (AttrId a : group) {
    int n = tree.NodeOfAttr(a);
    if (n < 0) {
      throw std::logic_error("GroupVisitOrder: group attribute not in tree");
    }
    g_nodes.insert(n);
  }
  for (int n : tree.TopologicalOrder()) {
    if (g_nodes.count(n) && seen.insert(n).second) {
      visit->push_back(n);
      dirs->push_back(SortDir::kAsc);
    }
  }
}

// Single-row result of a full aggregation (empty GROUP BY): SQL semantics
// on empty input are count = 0 and NULL for sum/min/max.
Relation FullAggregation(const Factorisation& f, const BoundQuery& q) {
  std::vector<AttrId> attrs = q.task_ids;
  Relation raw{RelSchema(std::move(attrs))};
  Tuple row;
  if (f.empty()) {
    for (const AggTask& t : q.tasks) {
      row.push_back(t.fn == AggFn::kCount ? Value(static_cast<int64_t>(0))
                                          : Value());
    }
  } else {
    std::vector<std::pair<int, const FactNode*>> parts;
    for (size_t r = 0; r < f.roots().size(); ++r) {
      parts.emplace_back(f.tree().roots()[r], f.roots()[r]);
    }
    for (const AggTask& t : q.tasks) {
      row.push_back(EvalAggregateProduct(f.tree(), parts, t));
    }
  }
  raw.Add(std::move(row));
  return raw;
}

}  // namespace

Factorisation FdbEngine::InputFactorisation(const BoundQuery& q) {
  std::vector<const Relation*> rels;
  // System tables materialise fresh per query; FactoriseJoin copies their
  // data into its own arena, so the owned relations may die on return.
  std::vector<std::unique_ptr<Relation>> owned;
  for (const std::string& name : q.from) {
    const Relation* r = db_->relation(name);
    if (r == nullptr) {
      if (db_->ViewSnapshot(name) != nullptr) {
        throw std::invalid_argument(
            "FdbEngine: views can only be queried alone: '" + name + "'");
      }
      if (std::optional<Relation> sys = db_->SystemTable(name)) {
        owned.push_back(std::make_unique<Relation>(std::move(*sys)));
        rels.push_back(owned.back().get());
        continue;
      }
      throw std::invalid_argument("FdbEngine: unknown relation '" + name +
                                  "'");
    }
    rels.push_back(r);
  }
  FTree tree = ChooseFTree(rels);
  return FactoriseJoin(tree, rels);
}

FdbResult FdbEngine::ExecuteSql(const std::string& sql,
                                const FdbOptions& options, RowSink* sink) {
  int64_t parse_t0 = obs::NowNs();
  ParsedQuery pq = ParseSql(sql);
  return ExecuteParsed(pq, parse_t0, obs::NowNs() - parse_t0, options, sink);
}

FdbResult FdbEngine::ExecuteParsed(const ParsedQuery& pq, int64_t parse_t0,
                                   int64_t parse_ns,
                                   const FdbOptions& options, RowSink* sink) {
  FdbOptions opts = options;
  std::shared_ptr<obs::Trace> owned;
  if (pq.explain_analyze && opts.trace == nullptr) {
    owned = std::make_shared<obs::Trace>();
    opts.trace = owned.get();
  }
  if (opts.trace != nullptr) {
    // The parse span is recorded retroactively: whether this query wants
    // a trace is only known after parsing it.
    opts.trace->AddComplete("parse", parse_t0, parse_ns);
  }

  BoundQuery bq;
  {
    obs::SpanScope span(opts.trace, "bind");
    bq = Bind(pq, db_);
  }
  FdbResult result = Execute(bq, opts, sink);
  if (owned != nullptr) result.trace = std::move(owned);
  return result;
}

FdbResult FdbEngine::Execute(const BoundQuery& q, const FdbOptions& options,
                             RowSink* sink) {
  static obs::Histogram& query_hist = obs::Registry::Instance().GetHistogram(
      "engine.query_ns", "ns", "FDB query end-to-end latency");
  obs::ScopedLatency query_latency(query_hist);

  // Statement-store / slow-query reporting. Queries over the system
  // tables are excluded: introspecting the store must not mutate it (and
  // both engines must see identical system-table contents).
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
  if (!track) return ExecuteImpl(q, options, sink);

  int64_t t0 = obs::NowNs();
  try {
    FdbResult result = ExecuteImpl(q, options, sink);
    uint64_t dur = static_cast<uint64_t>(obs::NowNs() - t0);
    obs::StatementFootprint fp;
    if (result.input_footprint.has_value()) {
      fp.valid = true;
      fp.singletons = result.input_footprint->singletons;
      fp.flat_values = result.input_footprint->flat_values;
      fp.compression = result.input_footprint->CompressionRatio();
    }
    uint64_t rows = result.factorised.has_value()
                        ? static_cast<uint64_t>(result.result_singletons)
                        : static_cast<uint64_t>(result.rows);
    obs::ReportQueryCompletion(q.fingerprint, q.normalized_sql,
                               /*via_fdb=*/true, dur, rows, /*error=*/false,
                               fp);
    return result;
  } catch (...) {
    obs::ReportQueryCompletion(q.fingerprint, q.normalized_sql,
                               /*via_fdb=*/true,
                               static_cast<uint64_t>(obs::NowNs() - t0),
                               /*rows=*/0, /*error=*/true);
    throw;
  }
}

FdbResult FdbEngine::ExecuteImpl(const BoundQuery& q,
                                 const FdbOptions& options, RowSink* sink) {
  obs::Trace* tr = options.trace;
  std::shared_ptr<obs::Trace> owned;
  if (q.explain_analyze && tr == nullptr) {
    owned = std::make_shared<obs::Trace>();
    tr = owned.get();
  }

  FdbResult result;
  // One snapshot is both the input and the prefix-cache key: taking them
  // apart could pair one version's data with another version's key.
  std::shared_ptr<const Factorisation> version;
  Factorisation fact;
  {
    obs::SpanScope span(tr, "input");
    if (q.from.size() == 1) version = db_->ViewSnapshot(q.from[0]);
    // A view's copy is cheap: it shares all union nodes, and holding
    // `version` keeps a concurrent UpdateView from retiring them.
    fact = version != nullptr ? *version : InputFactorisation(q);
    if (tr != nullptr) {
      std::string from;
      for (const std::string& name : q.from) {
        if (!from.empty()) from += ",";
        from += name;
      }
      span.NoteStr("from", from);
    }
  }
  if (tr != nullptr) {
    // ComputeFootprint walks the whole DAG, so it runs only on traced
    // queries, in a span of its own; the sample doubles as the statement
    // store's footprint.
    obs::SpanScope span(tr, "footprint");
    result.input_footprint = ComputeFootprint(fact);
    NoteFootprint(span, *result.input_footprint);
  }
  AttributeRegistry* reg = &db_->registry();

  // --- plan ---------------------------------------------------------------
  int plan_span = tr != nullptr ? tr->Begin("optimise") : -1;
  auto t0 = Clock::now();
  PlannerQuery pq;
  pq.eq_selections = q.eq_selections;
  pq.const_selections = q.const_selections;
  pq.group = q.group;
  pq.tasks = q.tasks;
  bool order_via_result = OrderNeedsResult(q);
  if (!order_via_result) {
    for (const SortKey& k : q.order_by) pq.order.push_back(k.attr);
  }
  if (options.planner == FdbOptions::Planner::kExhaustive) {
    auto ex = ExhaustivePlan(fact.tree(), *reg, pq,
                             options.exhaustive_max_states);
    if (ex.has_value()) {
      result.plan = std::move(ex->plan);
      result.used_exhaustive = true;
    }
  }
  if (!result.used_exhaustive) {
    result.plan = GreedyPlan(fact.tree(), *reg, pq);
  }
  result.plan_seconds = Since(t0);
  if (tr != nullptr) {
    tr->NoteStr(plan_span, "planner",
                result.used_exhaustive ? "exhaustive" : "greedy");
    tr->NoteInt(plan_span, "plan_ops",
                static_cast<int64_t>(result.plan.size()));
    tr->NoteStr(plan_span, "plan", PlanToString(result.plan, *reg));
    tr->End(plan_span);
  }

  // --- execute the f-plan --------------------------------------------------
  // The arena this statement last shared with the prefix cache, held until
  // it returns: ArenaForWrite then never finds the statement the arena's
  // sole owner again, so it never appends to an arena another thread has
  // read through the cache (even once every cached copy is gone).
  std::shared_ptr<const FactArena> shared;
  {
    obs::SpanScope ops_span(tr, "ops");
    int64_t ops_t0 = tr != nullptr ? obs::NowNs() : 0;
    t0 = Clock::now();
    // EXPLAIN ANALYZE always collects per-operator stats — that is the
    // point of running it, even though the per-op singleton counts cost
    // extra walks.
    bool stats = options.collect_stats || tr != nullptr;
    const FPlan& plan = result.plan;
    // Resume after the longest cached prefix of the plan over this view
    // version, and cache every intermediate built after it except the
    // final op's output: that op and the enumeration always run.
    PrefixCache& cache = db_->prefix_cache();
    size_t cached =
        version != nullptr ? cache.Restore(q.from[0], version, plan, &fact) : 0;
    if (cached > 0) shared = fact.arena();
    if (stats) {
      for (size_t i = 0; i < cached; ++i) {
        result.op_stats.push_back({plan[i].kind, -1, 0.0, /*cached=*/true});
      }
    }
    ExecutePlan(&fact, reg, plan, stats ? &result.op_stats : nullptr, cached,
                [&](size_t done) {
                  if (version == nullptr || done == plan.size()) return;
                  cache.Insert(q.from[0], version, plan, done, fact);
                  shared = fact.arena();
                });
    result.exec_seconds = Since(t0);
    if (tr != nullptr) {
      ops_span.NoteInt("cached_ops", static_cast<int64_t>(cached));
      // Per-op child spans reconstructed from the operator stats: the ops
      // ran sequentially, so chain their durations from the phase start.
      int64_t cursor = ops_t0;
      for (const FOpStats& s : result.op_stats) {
        int64_t dur = static_cast<int64_t>(s.seconds * 1e9);
        int id = tr->AddComplete(FOpKindName(s.kind), cursor, dur);
        if (s.cached) {
          tr->NoteInt(id, "cached", 1);
        } else {
          tr->NoteInt(id, "singletons_after", s.singletons_after);
        }
        cursor += dur;
      }
    }
  }

  if (options.factorised_output) {
    obs::SpanScope span(tr, "factorised-output");
    if (!q.has_aggregates() && q.distinct_projection) {
      // Distinct projections materialise as the projected top fragment.
      std::vector<int> keep;
      for (AttrId a : q.group) {
        int n = fact.tree().NodeOfAttr(a);
        if (std::find(keep.begin(), keep.end(), n) == keep.end()) {
          keep.push_back(n);
        }
      }
      fact = ProjectToTopFragment(fact, keep);
    }
    result.result_singletons = fact.CountSingletons();
    if (tr != nullptr) {
      span.NoteInt("result_singletons", result.result_singletons);
      NoteFootprint(span, ComputeFootprint(fact));
    }
    result.factorised = std::move(fact);
    if (owned != nullptr) result.trace = std::move(owned);
    return result;
  }

  // --- enumerate -----------------------------------------------------------
  obs::SpanScope enum_span(tr, q.has_aggregates() ? "aggregate" : "enumerate");
  t0 = Clock::now();
  // Enumeration may stop early at LIMIT only when no HAVING filter runs
  // afterwards (HAVING drops rows, so the limit must apply post-filter).
  std::optional<int64_t> enum_limit =
      q.having.empty() ? q.limit : std::nullopt;
  RelationSink collect;
  RowSink* dst = sink != nullptr ? sink : &collect;

  if (q.has_aggregates() || q.distinct_projection) {
    Relation raw;
    if (q.group.empty() && q.has_aggregates()) {
      raw = FullAggregation(fact, q);
    } else {
      std::vector<int> visit;
      std::vector<SortDir> dirs;
      GroupVisitOrder(fact.tree(), q.group,
                      order_via_result ? std::vector<SortKey>{} : q.order_by,
                      &visit, &dirs);
      std::optional<int64_t> raw_limit;
      if (!order_via_result) raw_limit = enum_limit;
      // Unlimited group enumerations fork per root-union chunk on the
      // default pool (see GroupAggToRelation).
      raw = GroupAggToRelation(fact, visit, dirs, q.tasks, q.task_ids,
                               raw_limit);
    }
    Relation out = AssembleOutputs(q, raw, order_via_result
                                               ? std::nullopt
                                               : q.limit);
    if (order_via_result) {
      // Factorise the (small) result grouped by the order-by list and
      // enumerate it back in order — the paper's restructuring of the
      // aggregated result (Q7) — in SELECT column order.
      std::vector<AttrId> path;
      for (const SortKey& k : q.order_by) {
        if (std::find(path.begin(), path.end(), k.attr) == path.end()) {
          path.push_back(k.attr);
        }
      }
      for (AttrId a : out.schema().attrs()) {
        if (std::find(path.begin(), path.end(), a) == path.end()) {
          path.push_back(a);
        }
      }
      Factorisation rf = FactoriseRelation(out, path);
      std::vector<int> visit = rf.tree().TopologicalOrder();
      std::vector<SortDir> dirs(visit.size(), SortDir::kAsc);
      for (const SortKey& k : q.order_by) {
        int n = rf.tree().NodeOfAttr(k.attr);
        for (size_t i = 0; i < visit.size(); ++i) {
          if (visit[i] == n) dirs[i] = k.dir;
        }
      }
      result.rows = EnumerateInto(rf, visit, dirs, q.limit,
                                  out.schema().attrs(), dst);
    } else {
      // The group relation is small: hand it over whole.
      dst->Begin(out.schema());
      for (const Tuple& row : out.rows()) dst->Add(row);
      result.rows = out.size();
    }
  } else {
    // SELECT * over an SPJ query: ordered full enumeration.
    std::vector<int> o_nodes;
    for (const SortKey& k : q.order_by) {
      int n = fact.tree().NodeOfAttr(k.attr);
      if (n < 0) {
        throw std::logic_error("FdbEngine: order attribute not in tree");
      }
      if (std::find(o_nodes.begin(), o_nodes.end(), n) == o_nodes.end()) {
        o_nodes.push_back(n);
      }
    }
    std::vector<int> visit = OrderedVisitSequence(fact.tree(), o_nodes);
    std::vector<SortDir> dirs(visit.size(), SortDir::kAsc);
    for (const SortKey& k : q.order_by) {
      int n = fact.tree().NodeOfAttr(k.attr);
      for (size_t i = 0; i < visit.size(); ++i) {
        if (visit[i] == n) dirs[i] = k.dir;
      }
    }
    std::vector<AttrId> want;
    for (const OutputColumn& c : q.outputs) want.push_back(c.attr);
    result.rows = EnumerateInto(fact, visit, dirs, enum_limit, want, dst);
  }
  result.flat = std::move(collect.relation());  // empty when streamed
  result.enum_seconds = Since(t0);
  if (tr != nullptr) {
    enum_span.NoteInt("rows", result.rows);
    if (q.limit.has_value()) enum_span.NoteInt("limit", *q.limit);
  }
  if (options.collect_stats || tr != nullptr) {
    result.result_singletons = fact.CountSingletons();
  }
  if (owned != nullptr) result.trace = std::move(owned);
  return result;
}

}  // namespace fdb
