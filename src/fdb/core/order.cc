#include "fdb/core/order.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace fdb {

bool SupportsGrouping(const FTree& tree, const std::vector<int>& g_nodes) {
  std::unordered_set<int> g(g_nodes.begin(), g_nodes.end());
  for (int n : g_nodes) {
    int p = tree.parent(n);
    if (p >= 0 && !g.count(p)) return false;
  }
  return true;
}

bool SupportsOrder(const FTree& tree, const std::vector<int>& o_nodes) {
  std::unordered_set<int> before;
  for (int n : o_nodes) {
    int p = tree.parent(n);
    if (p >= 0 && !before.count(p)) return false;
    before.insert(n);
  }
  return true;
}

std::vector<int> PlanRestructure(const FTree& tree,
                                 const std::vector<int>& o_nodes,
                                 const std::vector<int>& g_nodes) {
  FTree sim = tree;  // simulate swaps on a copy
  std::vector<int> plan;
  std::unordered_set<int> settled;

  // Settle the order-by nodes left to right: push each up until its parent
  // is an earlier (settled) order node or it becomes a root. Settled nodes
  // are never moved by later swaps, so the existing grouping below them is
  // reused (partial re-sorting, Experiment 4).
  for (int n : o_nodes) {
    while (sim.parent(n) >= 0 && !settled.count(sim.parent(n))) {
      plan.push_back(n);
      sim.SwapUp(n);
    }
    settled.insert(n);
  }
  // Settle the remaining grouping nodes (order within the group does not
  // matter, Theorem 1): shallowest first.
  std::vector<int> rest;
  for (int n : g_nodes) {
    if (!settled.count(n)) rest.push_back(n);
  }
  auto depth = [&sim](int n) {
    int d = 0;
    for (int p = sim.parent(n); p >= 0; p = sim.parent(p)) ++d;
    return d;
  };
  std::sort(rest.begin(), rest.end(),
            [&](int a, int b) { return depth(a) < depth(b); });
  for (int n : rest) {
    while (sim.parent(n) >= 0 && !settled.count(sim.parent(n))) {
      plan.push_back(n);
      sim.SwapUp(n);
    }
    settled.insert(n);
  }
  return plan;
}

VisitOrder OrderedVisitSequence(const FTree& tree,
                                const std::vector<SortKey>& order,
                                const std::vector<int>& nodes) {
  VisitOrder v;
  std::unordered_set<int> seen;
  for (const SortKey& k : order) {
    int n = tree.NodeOfAttr(k.attr);
    if (n < 0) {
      throw std::logic_error(
          "OrderedVisitSequence: order attribute not in tree");
    }
    if (seen.insert(n).second) {
      v.nodes.push_back(n);
      v.dirs.push_back(k.dir);
    }
  }
  if (!SupportsOrder(tree, v.nodes)) {
    throw std::invalid_argument(
        "OrderedVisitSequence: tree does not support the requested order "
        "(Theorem 2)");
  }
  std::unordered_set<int> rest;
  for (int n : nodes) {
    if (n < 0) {
      throw std::logic_error("OrderedVisitSequence: node not in tree");
    }
    rest.insert(n);
  }
  for (int n : tree.TopologicalOrder()) {
    if (rest.count(n) && seen.insert(n).second) {
      v.nodes.push_back(n);
      v.dirs.push_back(SortDir::kAsc);
    }
  }
  return v;
}

}  // namespace fdb
