#include "fdb/optimizer/exhaustive.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>

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
  AttributeRegistry reg;
  std::vector<std::pair<AttrId, AttrId>> pending;
  FPlan plan;
};

struct StateGreater {
  bool operator()(const State& a, const State& b) const {
    return a.cost > b.cost;
  }
};

// Mirrors ApplyAggregate's tree mutation for simulation.
void SimAggregate(FTree* tree, AttributeRegistry* reg, int u,
                  const std::vector<AggTask>& tasks) {
  std::vector<AttrId> over = tree->SubtreeOriginalAttrs(u);
  std::vector<AggregateLabel> labels;
  for (const AggTask& t : tasks) {
    AggregateLabel l;
    l.fn = t.fn;
    l.source = t.source;
    l.over = over;
    std::string base = AggFnName(t.fn) + "_x(" + std::to_string(u) + ")";
    while (reg->Find(base).has_value()) base += "'";
    l.id = reg->Intern(base);
    labels.push_back(std::move(l));
  }
  tree->ReplaceSubtreeWithAggregates(u, std::move(labels));
}

void DropSatisfied(const FTree& t,
                   std::vector<std::pair<AttrId, AttrId>>* pending) {
  std::erase_if(*pending, [&](const auto& s) {
    return t.NodeOfAttr(s.first) == t.NodeOfAttr(s.second);
  });
}

}  // namespace

std::optional<ExhaustiveResult> ExhaustivePlan(const FTree& tree,
                                               const AttributeRegistry& reg,
                                               const PlannerQuery& q,
                                               int max_states) {
  // Constant selections are applied up-front, outside the search (§5.1).
  FPlan prefix;
  for (const auto& [attr, cmp, c] : q.const_selections) {
    int n = tree.NodeOfAttr(attr);
    if (n < 0) {
      throw std::invalid_argument(
          "ExhaustivePlan: unknown selection attribute");
    }
    prefix.push_back(FOp::Select(n, cmp, c));
  }

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
    std::vector<int> o_nodes, g_nodes;
    for (AttrId a : q.order) {
      int n = s.tree.NodeOfAttr(a);
      if (n < 0) return false;
      if (std::find(o_nodes.begin(), o_nodes.end(), n) == o_nodes.end()) {
        o_nodes.push_back(n);
      }
    }
    for (AttrId a : q.group) {
      int n = s.tree.NodeOfAttr(a);
      if (n < 0) return false;
      g_nodes.push_back(n);
    }
    return SupportsOrder(s.tree, o_nodes) &&
           SupportsGrouping(s.tree, g_nodes);
  };

  std::priority_queue<State, std::vector<State>, StateGreater> queue;
  std::set<std::string> settled;

  State init{0.0, tree, reg, q.eq_selections, prefix};
  DropSatisfied(init.tree, &init.pending);
  queue.push(std::move(init));

  while (!queue.empty()) {
    State s = queue.top();
    queue.pop();
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
      switch (op.kind) {
        case FOpKind::kSwap:
          t.tree.SwapUp(op.b);
          break;
        case FOpKind::kMerge:
          t.tree.MergeSiblings(op.a, op.b);
          break;
        case FOpKind::kAbsorb:
          t.tree.AbsorbDescendant(op.a, op.b);
          break;
        case FOpKind::kAggregate:
          SimAggregate(&t.tree, &t.reg, op.a, op.tasks);
          break;
        default:
          throw std::logic_error("ExhaustivePlan: unexpected operator");
      }
      DropSatisfied(t.tree, &t.pending);
      t.cost += FTreeCost(t.tree);
      t.plan.push_back(std::move(op));
      queue.push(std::move(t));
    };

    // Permissible selection operators (Prop. 3).
    for (size_t i = 0; i < s.pending.size(); ++i) {
      int na = s.tree.NodeOfAttr(s.pending[i].first);
      int nb = s.tree.NodeOfAttr(s.pending[i].second);
      if (na < 0 || nb < 0) continue;
      if (s.tree.parent(na) == s.tree.parent(nb)) {
        push_successor(FOp::Merge(na, nb));
      } else if (s.tree.IsAncestor(na, nb)) {
        push_successor(FOp::Absorb(na, nb));
      } else if (s.tree.IsAncestor(nb, na)) {
        push_successor(FOp::Absorb(nb, na));
      }
    }

    // Permissible aggregation operators: any subtree avoiding grouping and
    // pending-selection attributes.
    if (!q.tasks.empty()) {
      std::vector<AttrId> blocked = q.group;
      for (const auto& [a, b] : s.pending) {
        blocked.push_back(a);
        blocked.push_back(b);
      }
      for (AttrId o : q.order) blocked.push_back(o);
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
