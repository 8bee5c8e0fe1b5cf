#ifndef FDB_OPTIMIZER_EXHAUSTIVE_H_
#define FDB_OPTIMIZER_EXHAUSTIVE_H_

#include <optional>

#include "fdb/optimizer/greedy.h"

namespace fdb {

/// Result of the exhaustive plan search.
struct ExhaustiveResult {
  FPlan plan;
  double cost = 0.0;    ///< sum of size bounds of all intermediate f-trees
  int explored = 0;     ///< number of states settled by Dijkstra
};

/// Exhaustive search over the space of f-plans (§5.1): the graph whose nodes
/// are f-trees (plus the set of pending selections) and whose edges are the
/// permissible operators of Proposition 3, weighted by the size bound of the
/// resulting f-tree. Dijkstra's algorithm finds the minimum-cost f-plan
/// reaching a state where all selections are applied, all non-grouping
/// atomic attributes are aggregated away, and the order-by/group-by
/// enumeration conditions (Theorems 1 and 2) hold.
///
/// Exponential in query size; returns nullopt once `max_states` states have
/// been settled without reaching a goal (callers fall back to GreedyPlan).
std::optional<ExhaustiveResult> ExhaustivePlan(const FTree& tree,
                                               const PlannerQuery& q,
                                               int max_states = 20000);

}  // namespace fdb

#endif  // FDB_OPTIMIZER_EXHAUSTIVE_H_
