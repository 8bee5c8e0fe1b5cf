#include "fdb/engine/fdb_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

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

// True if an aggregate query orders on a key that is not a group column
// (an aggregate or AVG alias): no enumeration visits it, so those orders
// sort the small aggregated result instead (Q7 in Experiment 3).
bool OrderNeedsResult(const BoundQuery& q) {
  if (!q.has_aggregates()) return false;
  for (const SortKey& k : q.order_by) {
    if (std::find(q.group.begin(), q.group.end(), k.attr) == q.group.end()) {
      return true;
    }
  }
  return false;
}

// Streams the raw rows of a grouped, DISTINCT or full aggregation query
// (group attributes, then task columns) into `sink`, grouping nodes
// visited order-by list first, until the sink has kept `limit` rows;
// returns the number kept. No GROUP BY is the one group of every root.
int64_t GroupsInto(const Factorisation& f, const BoundQuery& q,
                   const std::vector<SortKey>& order,
                   std::optional<int64_t> limit, RowSink* sink) {
  std::vector<int> g_nodes;
  for (AttrId a : q.group) g_nodes.push_back(f.tree().NodeOfAttr(a));
  VisitOrder v = OrderedVisitSequence(f.tree(), order, g_nodes);
  // Unlimited group enumerations fork per root-union chunk on the
  // default pool (see GroupAggInto).
  return GroupAggInto(f, v.nodes, v.dirs, q.tasks, q.task_ids, limit, sink);
}

}  // namespace

Factorisation FdbEngine::InputFactorisation(const BoundQuery& q,
                                            int* sorted_reused) {
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
  return FactoriseJoin(tree, rels, sorted_reused);
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
    // `version` keeps a concurrent commit from retiring them.
    int sorted_reused = 0;
    fact = version != nullptr ? *version
                              : InputFactorisation(q, &sorted_reused);
    if (tr != nullptr) {
      std::string from;
      for (const std::string& name : q.from) {
        if (!from.empty()) from += ",";
        from += name;
      }
      span.NoteStr("from", from);
      if (version == nullptr) span.NoteInt("sorted_reused", sorted_reused);
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
    auto ex = ExhaustivePlan(fact.tree(), pq, options.exhaustive_max_states);
    if (ex.has_value()) {
      result.plan = std::move(ex->plan);
      result.used_exhaustive = true;
    }
  }
  if (!result.used_exhaustive) {
    result.plan = GreedyPlan(fact.tree(), pq);
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
    // A traced run (EXPLAIN ANALYZE among them) collects per-operator
    // stats — that is the point of tracing, even though the per-op
    // singleton counts cost extra walks.
    bool stats = tr != nullptr;
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
  RelationSink collect;
  RowSink* dst = sink != nullptr ? sink : &collect;

  if (q.has_aggregates() || q.distinct_projection) {
    if (order_via_result) {
      // Collect the (small) result through the output stage and sort it,
      // stably, as RdbEngine's sort-limit stage does (Q7); its first
      // `limit` rows go to the sink.
      RelationSink collected;
      OutputStage stage(q, &collected);
      GroupsInto(fact, q, {}, std::nullopt, &stage);
      Relation& out = collected.relation();
      out.SortBy(q.order_by);
      dst->Begin(out.schema());
      for (const Tuple& row : out.rows()) {
        if (q.limit.has_value() && result.rows >= *q.limit) break;
        result.rows += dst->Add(row) ? 1 : 0;
      }
    } else {
      // Each group streams through the output stage (HAVING, avg, SELECT
      // order) into the sink as it is enumerated; LIMIT stops the
      // enumeration at the limit-th row HAVING keeps.
      OutputStage stage(q, dst);
      result.rows = GroupsInto(fact, q, q.order_by, q.limit, &stage);
    }
  } else {
    // SELECT * over an SPJ query: ordered full enumeration.
    VisitOrder v = OrderedVisitSequence(fact.tree(), q.order_by,
                                        fact.tree().TopologicalOrder());
    std::vector<AttrId> want;
    for (const OutputColumn& c : q.outputs) want.push_back(c.attr);
    result.rows = EnumerateInto(fact, v.nodes, v.dirs, q.limit, want, dst);
  }
  result.flat = std::move(collect.relation());  // empty when streamed
  result.enum_seconds = Since(t0);
  if (tr != nullptr) {
    enum_span.NoteInt("rows", result.rows);
    if (q.limit.has_value()) enum_span.NoteInt("limit", *q.limit);
  }
  if (tr != nullptr) {
    result.result_singletons = fact.CountSingletons();
  }
  if (owned != nullptr) result.trace = std::move(owned);
  return result;
}

}  // namespace fdb
