#ifndef FDB_CORE_ORDER_H_
#define FDB_CORE_ORDER_H_

#include <vector>

#include "fdb/core/factorisation.h"

namespace fdb {

/// Theorem 1: tuples can be enumerated with constant delay grouped by the
/// attributes of `g_nodes` iff each of those nodes is a root of the f-tree
/// or a child of another node in `g_nodes`.
bool SupportsGrouping(const FTree& tree, const std::vector<int>& g_nodes);

/// Theorem 2: tuples can be enumerated with constant delay in lexicographic
/// order by the node list `o_nodes` iff each listed node is a root or a
/// child of a node appearing *earlier* in the list.
bool SupportsOrder(const FTree& tree, const std::vector<int>& o_nodes);

/// Plans the partial restructuring of §4.2: the sequence of swap operators
/// (given as node ids to swap up with their parent, applied in order) after
/// which the tree supports ordering by `o_nodes` (in list order) and
/// grouping by `g_nodes` (a superset or disjoint extra set). The plan is
/// computed on a copy of `tree`; replay it with ApplySwap. Settled nodes are
/// never moved again, so only the necessary fragment is restructured — an
/// existing order is reused rather than re-sorted from scratch.
std::vector<int> PlanRestructure(const FTree& tree,
                                 const std::vector<int>& o_nodes,
                                 const std::vector<int>& g_nodes);

/// An enumeration visit order: the nodes and the direction each one's
/// values are visited in.
struct VisitOrder {
  std::vector<int> nodes;
  std::vector<SortDir> dirs;
};

/// The visit order enumerating in ORDER BY `order` (Theorem 2): the nodes
/// of the order attributes in key order, then the rest of `nodes` (the
/// grouping nodes, or every live node) in topological order. The first
/// key on a node sets its direction, so a later key on an attribute
/// equated into the same node cannot reverse it; every other node is
/// ascending. Throws std::invalid_argument unless the order nodes satisfy
/// SupportsOrder, and std::logic_error for an attribute outside the tree
/// or a negative node id.
VisitOrder OrderedVisitSequence(const FTree& tree,
                                const std::vector<SortKey>& order,
                                const std::vector<int>& nodes);

}  // namespace fdb

#endif  // FDB_CORE_ORDER_H_
