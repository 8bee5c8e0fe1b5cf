#include "fdb/optimizer/exhaustive.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "fdb/core/order.h"
#include "fdb/optimizer/cost.h"

namespace fdb {
namespace {

// Canonical encoding of an f-tree state: structure and labels with children
// sorted, so that plans reaching the same logical tree by different routes
// share a search node. Aggregate labels are encoded by function, source and
// `over` set (their synthesised attribute ids are path-dependent).
std::string EncodeNode(const FTree& t, int n) {
  const FTreeNode& nd = t.node(n);
  std::ostringstream os;
  if (nd.is_aggregate()) {
    os << AggFnName(nd.agg->fn) << "_" << nd.agg->source << "(";
    for (AttrId a : nd.agg->over) os << a << ",";
    os << ")";
  } else {
    for (AttrId a : nd.attrs) os << a << ",";
  }
  std::vector<std::string> kids;
  for (int c : nd.children) kids.push_back(EncodeNode(t, c));
  std::sort(kids.begin(), kids.end());
  os << "[";
  for (const std::string& k : kids) os << k << ";";
  os << "]";
  return os.str();
}

std::string EncodeState(const FTree& t,
                        const std::vector<std::pair<AttrId, AttrId>>& pending) {
  std::vector<std::string> roots;
  for (int r : t.roots()) roots.push_back(EncodeNode(t, r));
  std::sort(roots.begin(), roots.end());
  std::ostringstream os;
  for (const std::string& r : roots) os << r << "|";
  os << "#";
  for (const auto& [a, b] : pending) os << a << "=" << b << ",";
  return os.str();
}

struct State {
  double cost;
  FTree tree;
  std::vector<std::pair<AttrId, AttrId>> pending;
  FPlan plan;
};

struct StateGreater {
  bool operator()(const State& a, const State& b) const {
    return a.cost > b.cost;
  }
};

}  // namespace

std::optional<ExhaustiveResult> ExhaustivePlan(const FTree& tree,
                                               const PlannerQuery& q,
                                               int max_states) {
  auto is_goal = [&](const State& s) {
    if (!s.pending.empty()) return false;
    if (!q.tasks.empty()) {
      // Every atomic attribute still live must be a grouping attribute.
      for (int n : s.tree.TopologicalOrder()) {
        const FTreeNode& nd = s.tree.node(n);
        if (nd.is_aggregate()) continue;
        for (AttrId a : nd.attrs) {
          if (std::find(q.group.begin(), q.group.end(), a) ==
              q.group.end()) {
            return false;
          }
        }
      }
    }
    return SupportsOrder(s.tree, NodesOfAttrs(s.tree, q.order)) &&
           SupportsGrouping(s.tree, NodesOfAttrs(s.tree, q.group));
  };

  // A binary heap under StateGreater, kept by hand (as std::priority_queue
  // does) so that a popped state can be moved out rather than copied.
  std::vector<State> heap;
  std::set<std::string> settled;
  AttrId next_id = FirstFreshAttr(tree, q);

  // Constant selections are applied up-front, outside the search (§5.1).
  State init{0.0, tree, q.eq_selections, SelectionPrefix(tree, q)};
  DropSatisfied(init.tree, &init.pending);
  heap.push_back(std::move(init));

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), StateGreater());
    State s = std::move(heap.back());
    heap.pop_back();
    std::string key = EncodeState(s.tree, s.pending);
    if (settled.count(key)) continue;
    settled.insert(key);
    if (is_goal(s)) {
      return ExhaustiveResult{std::move(s.plan), s.cost,
                              static_cast<int>(settled.size())};
    }
    if (static_cast<int>(settled.size()) > max_states) return std::nullopt;

    auto push_successor = [&](FOp op) {
      State t = s;
      SimulateOp(&t.tree, op, &next_id);
      DropSatisfied(t.tree, &t.pending);
      t.cost += FTreeCost(t.tree);
      t.plan.push_back(std::move(op));
      heap.push_back(std::move(t));
      std::push_heap(heap.begin(), heap.end(), StateGreater());
    };

    // Permissible selection operators (Prop. 3).
    for (const auto& sel : s.pending) {
      if (std::optional<FOp> op = SelectionOp(s.tree, sel)) {
        push_successor(std::move(*op));
      }
    }

    // Permissible aggregation operators: any subtree avoiding grouping,
    // pending-selection and order attributes.
    if (!q.tasks.empty()) {
      std::vector<AttrId> blocked = BlockedAttrs(q, s.pending);
      for (int u : s.tree.TopologicalOrder()) {
        if (!SubtreeAggregatable(s.tree, u, blocked)) continue;
        push_successor(FOp::Aggregate(u, PartialTasks(s.tree, u, q.tasks)));
      }
    }

    // Any swap operator.
    for (int n : s.tree.TopologicalOrder()) {
      if (s.tree.parent(n) >= 0) push_successor(FOp::Swap(n));
    }
  }
  return std::nullopt;
}

}  // namespace fdb
