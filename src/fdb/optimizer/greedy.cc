#include "fdb/optimizer/greedy.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "fdb/core/order.h"
#include "fdb/optimizer/cost.h"

namespace fdb {
namespace {

int Depth(const FTree& t, int n) {
  int d = 0;
  for (int p = t.parent(n); p >= 0; p = t.parent(p)) ++d;
  return d;
}

}  // namespace

FPlan SelectionPrefix(const FTree& tree, const PlannerQuery& q) {
  auto node = [&](AttrId a) {
    int n = tree.NodeOfAttr(a);
    if (n < 0) {
      throw std::invalid_argument("planner: unknown selection attribute");
    }
    return n;
  };
  for (const auto& [a, b] : q.eq_selections) {
    node(a);
    node(b);
  }
  FPlan prefix;
  for (const auto& [attr, cmp, c] : q.const_selections) {
    prefix.push_back(FOp::Select(node(attr), cmp, c));
  }
  return prefix;
}

AttrId FirstFreshAttr(const FTree& tree, const PlannerQuery& q) {
  AttrId top = kInvalidAttr;
  auto see = [&](AttrId a) { top = std::max(top, a); };
  for (int n = 0; n < tree.num_nodes(); ++n) {
    const FTreeNode& nd = tree.node(n);
    for (AttrId a : nd.attrs) see(a);
    if (nd.is_aggregate()) {
      see(nd.agg->id);
      see(nd.agg->source);
      for (AttrId a : nd.agg->over) see(a);
    }
  }
  for (const Hyperedge& e : tree.edges()) {
    for (AttrId a : e.attrs) see(a);
  }
  // BlockedAttrs lists the group, equality and order attributes.
  for (AttrId a : BlockedAttrs(q, q.eq_selections)) see(a);
  for (const auto& s : q.const_selections) see(std::get<0>(s));
  for (const AggTask& t : q.tasks) see(t.source);
  return top + 1;
}

std::optional<FOp> SelectionOp(const FTree& tree,
                               const std::pair<AttrId, AttrId>& sel) {
  int na = tree.NodeOfAttr(sel.first);
  int nb = tree.NodeOfAttr(sel.second);
  if (tree.parent(na) == tree.parent(nb)) return FOp::Merge(na, nb);
  if (tree.IsAncestor(na, nb)) return FOp::Absorb(na, nb);
  if (tree.IsAncestor(nb, na)) return FOp::Absorb(nb, na);
  return std::nullopt;
}

void DropSatisfied(const FTree& tree,
                   std::vector<std::pair<AttrId, AttrId>>* pending) {
  std::erase_if(*pending, [&](const auto& s) {
    return tree.NodeOfAttr(s.first) == tree.NodeOfAttr(s.second);
  });
}

std::vector<AttrId> BlockedAttrs(
    const PlannerQuery& q,
    const std::vector<std::pair<AttrId, AttrId>>& pending) {
  std::vector<AttrId> blocked = q.group;
  for (const auto& [a, b] : pending) {
    blocked.push_back(a);
    blocked.push_back(b);
  }
  blocked.insert(blocked.end(), q.order.begin(), q.order.end());
  return blocked;
}

std::vector<int> NodesOfAttrs(const FTree& tree,
                              const std::vector<AttrId>& attrs) {
  std::vector<int> nodes;
  for (AttrId a : attrs) {
    int n = tree.NodeOfAttr(a);
    if (n < 0) throw std::invalid_argument("planner: unknown attribute");
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
      nodes.push_back(n);
    }
  }
  return nodes;
}

std::vector<AggTask> PartialTasks(const FTree& tree, int u,
                                  const std::vector<AggTask>& final_tasks) {
  std::vector<AttrId> inside = tree.SubtreeAttrIds(u);
  auto in_subtree = [&](AttrId a) {
    if (std::binary_search(inside.begin(), inside.end(), a)) return true;
    // The source may already have been folded into an aggregate node.
    for (int n : tree.SubtreeNodes(u)) {
      const FTreeNode& nd = tree.node(n);
      if (nd.is_aggregate() && nd.agg->source == a) return true;
    }
    return false;
  };
  std::vector<AggTask> out;
  for (const AggTask& t : final_tasks) {
    AggTask p = t;
    if (t.fn != AggFn::kCount && !in_subtree(t.source)) {
      p = {AggFn::kCount, kInvalidAttr};
    }
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  }
  return out;
}

bool SubtreeAggregatable(const FTree& tree, int u,
                         const std::vector<AttrId>& blocked) {
  bool has_atomic = false;
  for (int n : tree.SubtreeNodes(u)) {
    const FTreeNode& nd = tree.node(n);
    if (!nd.is_aggregate()) {
      has_atomic = true;
      for (AttrId a : nd.attrs) {
        if (std::find(blocked.begin(), blocked.end(), a) != blocked.end()) {
          return false;
        }
      }
    }
  }
  return has_atomic;
}

FPlan GreedyPlan(const FTree& tree, const PlannerQuery& q) {
  // Selections with constants need no restructuring: one traversal each.
  FPlan plan = SelectionPrefix(tree, q);
  FTree sim = tree;
  AttrId next_id = FirstFreshAttr(tree, q);
  auto apply = [&](FOp op) {
    SimulateOp(&sim, op, &next_id);
    plan.push_back(std::move(op));
  };

  std::vector<std::pair<AttrId, AttrId>> pending = q.eq_selections;

  // Step 1 + 3: resolve all equality selections, restructuring when needed.
  while (true) {
    // Drop selections already satisfied by earlier merges.
    DropSatisfied(sim, &pending);
    if (pending.empty()) break;

    // Step 1: a permissible merge/absorb, preferring the highest-placed.
    int best = -1;
    int best_depth = std::numeric_limits<int>::max();
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!SelectionOp(sim, pending[i]).has_value()) continue;
      int d = std::min(Depth(sim, sim.NodeOfAttr(pending[i].first)),
                       Depth(sim, sim.NodeOfAttr(pending[i].second)));
      if (d < best_depth) {
        best_depth = d;
        best = static_cast<int>(i);
      }
    }
    if (best >= 0) {
      apply(*SelectionOp(sim, pending[best]));
      pending.erase(pending.begin() + best);
      continue;
    }

    // Step 3: no selection is directly applicable; push nodes together.
    // Try (a) pushing up A, (b) pushing up B, (c) alternating (the deeper
    // first), and keep the cheapest by the size-bound metric.
    const auto [attr_a, attr_b] = pending.front();
    double best_cost = std::numeric_limits<double>::infinity();
    std::vector<int> best_swaps;
    for (int strategy = 0; strategy < 3; ++strategy) {
      FTree trial = sim;
      std::vector<int> swaps;
      double cost = 0.0;
      while (!SelectionOp(trial, pending.front()).has_value()) {
        int na = trial.NodeOfAttr(attr_a);
        int nb = trial.NodeOfAttr(attr_b);
        int target;
        switch (strategy) {
          case 0:
            target = na;
            break;
          case 1:
            target = nb;
            break;
          default:
            target = Depth(trial, na) >= Depth(trial, nb) ? na : nb;
        }
        if (trial.parent(target) < 0) {
          // Already a root; push the other one instead.
          target = target == na ? nb : na;
        }
        swaps.push_back(target);
        trial.SwapUp(target);
        cost += FTreeCost(trial);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_swaps = std::move(swaps);
      }
    }
    for (int b : best_swaps) apply(FOp::Swap(b));
  }

  // Alternate step 2 (maximal partial aggregates) with steps 4–5
  // (restructuring for group-by and order-by) until a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;

    if (!q.tasks.empty()) {
      std::vector<AttrId> blocked = BlockedAttrs(q, pending);
      bool more = true;
      while (more) {
        more = false;
        for (int u : sim.TopologicalOrder()) {
          if (!SubtreeAggregatable(sim, u, blocked)) continue;
          int p = sim.parent(u);
          if (p >= 0 && SubtreeAggregatable(sim, p, blocked)) continue;
          apply(FOp::Aggregate(u, PartialTasks(sim, u, q.tasks)));
          more = true;
          changed = true;
          break;  // tree changed; recompute the traversal
        }
      }
    }

    // Steps 4–5: push order-by nodes into list order, then the remaining
    // grouping nodes above everything else.
    for (int b : PlanRestructure(sim, NodesOfAttrs(sim, q.order),
                                 NodesOfAttrs(sim, q.group))) {
      apply(FOp::Swap(b));
      changed = true;
    }
  }
  return plan;
}

}  // namespace fdb
