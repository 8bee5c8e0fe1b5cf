#ifndef FDB_OPTIMIZER_GREEDY_H_
#define FDB_OPTIMIZER_GREEDY_H_

#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "fdb/optimizer/fplan.h"

namespace fdb {

/// The core-level description of a query handed to the planners (§5.1):
/// selections, grouping attributes, aggregation tasks and order-by list,
/// all referring to attributes of the input f-tree.
struct PlannerQuery {
  std::vector<std::pair<AttrId, AttrId>> eq_selections;
  std::vector<std::tuple<AttrId, CmpOp, Value>> const_selections;
  /// Group-by attributes (for aggregate queries) or distinct-projection
  /// attributes (for SPJ queries with DISTINCT).
  std::vector<AttrId> group;
  /// Aggregation functions; empty for select-project-join queries.
  std::vector<AggTask> tasks;
  /// Order-by attributes that label f-tree nodes, in order-by sequence.
  std::vector<AttrId> order;
};

// --- decisions shared by GreedyPlan and ExhaustivePlan -------------------
// Both planners are pure functions of (f-tree, query): they simulate each
// op they record on a tree copy (SimulateOp), naming simulated aggregates
// from FirstFreshAttr up. Plans name nodes, the exhaustive search keys
// aggregates by (fn, source, over) and the cost LP only tests hyperedge
// membership, so those ids cannot change a plan, a cost or a tie.

/// The plan's prefix (§5.1): one σ_{A θ c} per constant selection, applied
/// before any restructuring. Throws std::invalid_argument if a selection
/// (constant or equality) names an attribute outside `tree`.
FPlan SelectionPrefix(const FTree& tree, const PlannerQuery& q);

/// One past the largest attribute id that `tree` (node classes, aggregate
/// labels, hyperedges) or `q` mentions: simulated aggregate ids start here,
/// so none aliases an attribute the planners look up.
AttrId FirstFreshAttr(const FTree& tree, const PlannerQuery& q);

/// The selection operator for equality `sel` that is permissible on `tree`
/// now (Prop. 3): a merge of sibling nodes (or roots), or an absorb of a
/// descendant into its ancestor; nullopt when the nodes are unrelated.
std::optional<FOp> SelectionOp(const FTree& tree,
                               const std::pair<AttrId, AttrId>& sel);

/// Drops the equalities whose attributes already share a node.
void DropSatisfied(const FTree& tree,
                   std::vector<std::pair<AttrId, AttrId>>* pending);

/// The attributes γ must not consume: grouping, pending-equality and
/// order-by attributes.
std::vector<AttrId> BlockedAttrs(
    const PlannerQuery& q,
    const std::vector<std::pair<AttrId, AttrId>>& pending);

/// The distinct nodes of `attrs` in first-mention order (the order-by or
/// group-by node list). Throws std::invalid_argument for an attribute
/// outside `tree`.
std::vector<int> NodesOfAttrs(const FTree& tree,
                              const std::vector<AttrId>& attrs);

/// Derives the partial-aggregation tasks for the subtree rooted at `u` from
/// the query's final tasks per the composition rules of Prop. 2: sum_A stays
/// sum_A when A is inside the subtree and decays to count otherwise; count
/// stays count; min/max stay themselves when their source is inside and
/// decay to count otherwise. Duplicates are removed.
std::vector<AggTask> PartialTasks(const FTree& tree, int u,
                                  const std::vector<AggTask>& final_tasks);

/// True if γ over the subtree rooted at `u` is permissible (§5.1): the
/// subtree contains no blocked attribute (BlockedAttrs) and at least one
/// atomic node (so the operator makes progress).
bool SubtreeAggregatable(const FTree& tree, int u,
                         const std::vector<AttrId>& blocked);

/// The greedy heuristic of §5.2: resolves selections (merging/absorbing,
/// pushing nodes together where needed, choosing the cheapest push by the
/// size-bound cost metric), applies maximal permissible partial aggregates,
/// and restructures for the group-by and order-by clauses. Returns the
/// f-plan.
FPlan GreedyPlan(const FTree& tree, const PlannerQuery& q);

}  // namespace fdb

#endif  // FDB_OPTIMIZER_GREEDY_H_
