#include "fdb/core/enumerate.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "fdb/exec/cancel.h"
#include "fdb/exec/task_pool.h"

namespace fdb {

namespace {

// Cooperative limit hook for the enumeration output loops. Output rows
// are plain Tuples, not arena nodes, so a flattening blow-up (huge
// cross-product) escapes FactArena's charge hook — charge the row
// footprint here, every 256 rows, alongside the time/cancel poll. With
// no token armed each call is a counter bump and (rarely) one
// thread-local load.
class EnumLimiter {
 public:
  explicit EnumLimiter(int arity) : arity_(arity) {}
  void Row() {
    if ((++poll_ & 255u) != 0) return;
    if (exec::CancelToken* t = exec::CurrentCancelToken()) {
      t->ChargeMemory(256 * static_cast<int64_t>(arity_) *
                      static_cast<int64_t>(sizeof(Value)));
      t->Check();
    }
  }

 private:
  uint32_t poll_ = 0;
  int arity_;
};

}  // namespace

Enumerator::Enumerator(const Factorisation& f, std::vector<int> visit_order,
                       std::vector<SortDir> dirs)
    : f_(&f), arena_(f.arena()), roots_(f.roots()) {
  if (visit_order.size() != dirs.size()) {
    throw std::invalid_argument("Enumerator: order/dirs size mismatch");
  }
  const FTree& tree = f.tree();
  std::unordered_map<int, int> pos_of;
  std::vector<AttrId> cols;
  for (size_t p = 0; p < visit_order.size(); ++p) {
    Pos pos;
    pos.node = visit_order[p];
    pos.dir = dirs[p];
    pos.k = static_cast<int>(tree.children(pos.node).size());
    int parent = tree.parent(pos.node);
    if (parent < 0) {
      pos.parent_pos = -1;
      pos.slot = tree.SlotOf(pos.node);
    } else {
      auto it = pos_of.find(parent);
      if (it == pos_of.end()) {
        throw std::invalid_argument(
            "Enumerator: visit order lists a child before its parent");
      }
      pos.parent_pos = it->second;
      pos.slot = tree.SlotOf(pos.node);
    }
    const FTreeNode& nd = tree.node(pos.node);
    if (nd.is_aggregate()) {
      pos.slots.push_back(static_cast<int>(cols.size()));
      cols.push_back(nd.agg->id);
    } else {
      for (AttrId a : nd.attrs) {
        pos.slots.push_back(static_cast<int>(cols.size()));
        cols.push_back(a);
      }
    }
    pos_of[pos.node] = static_cast<int>(p);
    order_.push_back(pos);
  }
  schema_ = RelSchema(std::move(cols));
  row_arity_ = schema_.arity();
  done_ = f.empty();
}

Enumerator::Enumerator(const Factorisation& f)
    : Enumerator(f, f.tree().TopologicalOrder(),
                 std::vector<SortDir>(f.tree().TopologicalOrder().size(),
                                      SortDir::kAsc)) {}

void Enumerator::SelectColumns(const std::vector<AttrId>& cols) {
  if (started_) {
    throw std::logic_error("Enumerator: SelectColumns after enumeration began");
  }
  // Schema column -> visit position.
  std::vector<int> pos_of_col(static_cast<size_t>(schema_.arity()));
  for (size_t p = 0; p < order_.size(); ++p) {
    for (int c : order_[p].slots) pos_of_col[c] = static_cast<int>(p);
    order_[p].slots.clear();
  }
  for (size_t i = 0; i < cols.size(); ++i) {
    int c = schema_.IndexOf(cols[i]);
    if (c < 0) {
      throw std::invalid_argument(
          "Enumerator: selected attribute is not enumerated");
    }
    order_[pos_of_col[c]].slots.push_back(static_cast<int>(i));
  }
  row_arity_ = static_cast<int>(cols.size());
}

void Enumerator::RestrictRoot(int64_t lo, int64_t hi) {
  if (started_) {
    throw std::logic_error("Enumerator: RestrictRoot after enumeration began");
  }
  root_lo_ = std::max<int64_t>(0, lo);
  root_hi_ = hi;
}

// The effective end rank of position 0's window given its current union.
static int64_t RootWindowEnd(const FactNode& top, int64_t root_hi) {
  int64_t size = top.size();
  return root_hi < 0 ? size : std::min(size, root_hi);
}

void Enumerator::Reset(int p) {
  Pos& pos = order_[p];
  if (pos.parent_pos < 0) {
    pos.cur = roots_[pos.slot];
  } else {
    const Pos& par = order_[pos.parent_pos];
    pos.cur = par.cur->child(par.idx, par.k, pos.slot);
  }
  if (p == 0) {
    // Position 0 starts at its window's first rank, not the union's.
    root_rank_ = root_lo_;
    pos.idx = pos.dir == SortDir::kAsc
                  ? static_cast<int>(root_rank_)
                  : static_cast<int>(pos.cur->size() - 1 - root_rank_);
  } else {
    pos.idx = pos.dir == SortDir::kAsc ? 0 : pos.cur->size() - 1;
  }
}

bool Enumerator::Next() {
  if (done_) return false;
  if (!started_) {
    started_ = true;
    changed_from_ = 0;
    // Check each position right after its Reset, before resetting any
    // child off it: an empty union (only possible for an empty root,
    // which f.empty() caught, or an empty root window — stay defensive)
    // must not be indexed by a dependent Reset.
    for (size_t p = 0; p < order_.size(); ++p) {
      Reset(static_cast<int>(p));
      if (order_[p].cur->values.empty()) {
        done_ = true;
        return false;
      }
      if (p == 0 && root_rank_ >= RootWindowEnd(*order_[0].cur, root_hi_)) {
        done_ = true;  // empty root window
        return false;
      }
    }
    return true;
  }
  int p = static_cast<int>(order_.size()) - 1;
  while (p >= 0) {
    Pos& pos = order_[p];
    int next = pos.idx + (pos.dir == SortDir::kAsc ? 1 : -1);
    bool in_range =
        p == 0 ? root_rank_ + 1 < RootWindowEnd(*pos.cur, root_hi_)
               : next >= 0 && next < pos.cur->size();
    if (in_range) {
      if (p == 0) ++root_rank_;
      pos.idx = next;
      for (size_t q = p + 1; q < order_.size(); ++q) {
        Reset(static_cast<int>(q));
      }
      changed_from_ = p;
      return true;
    }
    --p;
  }
  done_ = true;
  return false;
}

void Enumerator::Fill(Tuple* out) const { FillFrom(out, 0); }

void Enumerator::FillFrom(Tuple* out, int from_pos) const {
  for (size_t p = from_pos; p < order_.size(); ++p) {
    const Pos& pos = order_[p];
    if (pos.slots.empty()) continue;
    Value v = pos.cur->values[pos.idx].ToValue();
    for (size_t i = 0; i + 1 < pos.slots.size(); ++i) {
      (*out)[pos.slots[i]] = v;
    }
    (*out)[pos.slots.back()] = std::move(v);
  }
}

GroupAggEnumerator::GroupAggEnumerator(const Factorisation& f,
                                       std::vector<int> visit_order,
                                       std::vector<SortDir> dirs,
                                       std::vector<AggTask> tasks,
                                       std::vector<AttrId> task_ids)
    : inner_(f, visit_order, dirs), tasks_(std::move(tasks)) {
  if (tasks_.size() != task_ids.size()) {
    throw std::invalid_argument("GroupAggEnumerator: task/ids mismatch");
  }
  const FTree& tree = f.tree();
  std::unordered_set<int> group(visit_order.begin(), visit_order.end());
  // Validate the Theorem 1 condition and locate the frontier.
  for (size_t p = 0; p < visit_order.size(); ++p) {
    int n = visit_order[p];
    int par = tree.parent(n);
    if (par >= 0 && !group.count(par)) {
      throw std::invalid_argument(
          "GroupAggEnumerator: grouping nodes do not form a top fragment "
          "(Theorem 1)");
    }
    const std::vector<int>& kids = tree.children(n);
    for (size_t c = 0; c < kids.size(); ++c) {
      if (!group.count(kids[c])) {
        frontier_slots_.emplace_back(static_cast<int>(p),
                                     static_cast<int>(c));
      }
    }
  }
  for (size_t r = 0; r < tree.roots().size(); ++r) {
    int root = tree.roots()[r];
    bool has_group = false;
    for (int n : tree.SubtreeNodes(root)) {
      if (group.count(n)) has_group = true;
    }
    if (!has_group) {
      fixed_parts_.emplace_back(root, f.roots()[r]);
    } else if (!group.count(root)) {
      throw std::invalid_argument(
          "GroupAggEnumerator: grouping node below a non-grouping root");
    }
  }
  std::vector<AttrId> cols = inner_.schema().attrs();
  cols.insert(cols.end(), task_ids.begin(), task_ids.end());
  schema_ = RelSchema(std::move(cols));

  // Prepare one evaluator per task over the fixed part-node list (the data
  // instances change per group; the nodes do not).
  std::vector<int> part_nodes;
  for (const auto& [node, n] : fixed_parts_) part_nodes.push_back(node);
  for (const auto& [p, slot] : frontier_slots_) {
    part_nodes.push_back(tree.children(inner_.order_[p].node)[slot]);
  }
  for (const AggTask& t : tasks_) {
    evaluators_.emplace_back(tree, part_nodes, t);
  }
  parts_ = fixed_parts_;
  parts_.resize(part_nodes.size());
  // With no grouping node (a full aggregation) the one group exists even
  // over the empty relation; Eval then yields count 0 and NULLs.
  if (visit_order.empty()) inner_.done_ = false;
}

bool GroupAggEnumerator::Next() { return inner_.Next(); }

void GroupAggEnumerator::Fill(Tuple* out) const {
  // Full fill: per-group cost is dominated by the aggregate evaluation, and
  // a suffix-only fill would silently require callers to reuse one tuple.
  inner_.Fill(out);
  // Collect the frontier: the non-grouping subtrees under the current
  // grouping binding, plus the grouping-free root trees.
  const FTree& tree = inner_.f_->tree();
  size_t i = fixed_parts_.size();
  for (const auto& [p, slot] : frontier_slots_) {
    const Enumerator::Pos& pos = inner_.order_[p];
    parts_[i++] = {tree.children(pos.node)[slot],
                   pos.cur->child(pos.idx, pos.k, slot)};
  }
  int base = inner_.schema().arity();
  for (size_t t = 0; t < tasks_.size(); ++t) {
    (*out)[base + static_cast<int>(t)] = evaluators_[t].Eval(parts_);
  }
}

void RelationSink::AppendChunk(std::unique_ptr<RowSink> chunk) {
  for (Tuple& t : static_cast<RelationSink&>(*chunk).rel_.mutable_rows()) {
    rel_.Add(std::move(t));
  }
}

namespace {

// Below this many top-union entries, forking costs more than it saves.
constexpr int64_t kMinParallelRootEntries = 64;

// Entries of the union enumeration splits on: position 0's root union.
// visit_order[0] is always a root (the Enumerator ctor rejects orders
// listing a child before its parent).
int64_t RootUnionEntries(const Factorisation& f,
                         const std::vector<int>& visit_order) {
  if (visit_order.empty() || f.empty()) return 0;
  return f.roots()[f.tree().SlotOf(visit_order[0])]->size();
}

// The enumeration loop: drains `e` into `sink` until the sink has kept
// `limit` rows; returns the number it kept.
template <class E>
int64_t Drain(E& e, std::optional<int64_t> limit, RowSink* sink) {
  Tuple row(e.row_arity());
  EnumLimiter lim(e.schema().arity());
  int64_t n = 0;
  while ((!limit.has_value() || n < *limit) && e.Next()) {
    lim.Row();
    if constexpr (std::is_same_v<E, Enumerator>) {
      // Only the columns of the changed visit-order suffix need rewriting.
      e.FillFrom(&row, e.ChangedFrom());
    } else {
      e.Fill(&row);
    }
    if (sink->Add(row)) ++n;
  }
  return n;
}

// Runs the unstarted enumerator `probe` into `sink`. Unlimited
// enumerations over a large top union split its ranks into a few chunks
// per pool thread (via ParallelFor's own grain partitioning): the chunk
// at rank 0 reuses `probe`, every other one gets an enumerator from
// `make(&local)`; each drains into its own chunk sink, and the chunks are
// appended in rank order. The chunk->thread assignment is dynamic but the
// output order is rank order regardless.
template <class E, class Make>
int64_t Run(const Factorisation& f, const std::vector<int>& visit_order,
            E* probe, const Make& make, std::optional<int64_t> limit,
            const RelSchema& schema, RowSink* sink) {
  sink->Begin(schema);
  exec::TaskPool& pool = exec::TaskPool::Default();
  int64_t top = RootUnionEntries(f, visit_order);
  if (limit.has_value() || pool.num_threads() <= 1 ||
      top < kMinParallelRootEntries) {
    return Drain(*probe, limit, sink);
  }
  int64_t chunks = std::min<int64_t>(top, pool.num_threads() * int64_t{4});
  int64_t grain = (top + chunks - 1) / chunks;
  std::vector<std::unique_ptr<RowSink>> parts((top + grain - 1) / grain);
  std::vector<int64_t> counts(parts.size(), 0);
  for (std::unique_ptr<RowSink>& part : parts) part = sink->NewChunk();
  pool.ParallelFor(top, grain, [&](int, int64_t lo, int64_t hi) {
    std::optional<E> local;
    if (lo != 0) make(&local);
    E& ce = lo == 0 ? *probe : *local;
    ce.RestrictRoot(lo, hi);
    counts[lo / grain] = Drain(ce, std::nullopt, parts[lo / grain].get());
  });
  int64_t n = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    sink->AppendChunk(std::move(parts[i]));
    n += counts[i];
  }
  return n;
}

}  // namespace

int64_t EnumerateInto(const Factorisation& f,
                      const std::vector<int>& visit_order,
                      const std::vector<SortDir>& dirs,
                      std::optional<int64_t> limit,
                      const std::vector<AttrId>& out_cols, RowSink* sink) {
  auto make = [&](std::optional<Enumerator>* e) {
    e->emplace(f, visit_order, dirs);
    if (!out_cols.empty()) (*e)->SelectColumns(out_cols);
  };
  std::optional<Enumerator> probe;
  make(&probe);
  const RelSchema schema =
      out_cols.empty() ? probe->schema() : RelSchema(out_cols);
  return Run(f, visit_order, &*probe, make, limit, schema, sink);
}

Relation EnumerateToRelation(const Factorisation& f,
                             const std::vector<int>& visit_order,
                             const std::vector<SortDir>& dirs,
                             std::optional<int64_t> limit) {
  RelationSink sink;
  EnumerateInto(f, visit_order, dirs, limit, {}, &sink);
  return std::move(sink.relation());
}

int64_t GroupAggInto(const Factorisation& f,
                     const std::vector<int>& visit_order,
                     const std::vector<SortDir>& dirs,
                     const std::vector<AggTask>& tasks,
                     const std::vector<AttrId>& task_ids,
                     std::optional<int64_t> limit, RowSink* sink) {
  // Chunks other than rank 0 build their own enumerator (and per-task
  // composition analyses); rank 0 reuses the probe's.
  auto make = [&](std::optional<GroupAggEnumerator>* e) {
    e->emplace(f, visit_order, dirs, tasks, task_ids);
  };
  std::optional<GroupAggEnumerator> probe;
  make(&probe);
  return Run(f, visit_order, &*probe, make, limit, probe->schema(), sink);
}

}  // namespace fdb
