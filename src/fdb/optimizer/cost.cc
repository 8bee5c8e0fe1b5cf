#include "fdb/optimizer/cost.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fdb/optimizer/simplex.h"

namespace fdb {

double FractionalCoverLog(const FTree& tree, const std::vector<int>& nodes) {
  const std::vector<Hyperedge>& edges = tree.edges();
  int n = static_cast<int>(edges.size());

  auto covers = [&](const Hyperedge& e, int node) {
    for (AttrId a : tree.node(node).AllAttrIds()) {
      if (std::binary_search(e.attrs.begin(), e.attrs.end(), a)) return true;
    }
    return false;
  };

  std::vector<std::vector<double>> a;
  for (int node : nodes) {
    std::vector<double> row(n, 0.0);
    bool any = false;
    for (int e = 0; e < n; ++e) {
      if (covers(edges[e], node)) {
        row[e] = 1.0;
        any = true;
      }
    }
    if (any) a.push_back(std::move(row));
  }
  if (a.empty()) return 0.0;

  std::vector<double> b(a.size(), 1.0);
  std::vector<double> c(n);
  for (int e = 0; e < n; ++e) {
    c[e] = std::log(std::max(2.0, edges[e].weight));
  }
  auto sol = SolveCoveringLp(a, b, c);
  if (!sol.has_value()) {
    throw std::logic_error("FractionalCoverLog: covering LP infeasible");
  }
  return sol->objective;
}

double NodeSizeBoundLog(const FTree& tree, int n) {
  std::vector<int> path;
  for (int u = n; u >= 0; u = tree.parent(u)) path.push_back(u);
  return FractionalCoverLog(tree, path);
}

double FTreeCost(const FTree& tree) {
  double total = 0.0;
  for (int n : tree.TopologicalOrder()) {
    total += std::exp(NodeSizeBoundLog(tree, n));
  }
  return total;
}

}  // namespace fdb
