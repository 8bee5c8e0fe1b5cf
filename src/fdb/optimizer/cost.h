#ifndef FDB_OPTIMIZER_COST_H_
#define FDB_OPTIMIZER_COST_H_

#include <vector>

#include "fdb/core/ftree.h"

namespace fdb {

/// The minimum-weight fractional edge cover of a set of f-tree nodes by the
/// tree's dependency hyperedges ([13], [22]): minimises Σ_e x_e · log w_e
/// subject to Σ_{e covers node} x_e ≥ 1 per node. A hyperedge covers a node
/// if it intersects the node's attribute-id set. Returns the optimum in log
/// space (log of the size bound Π_e w_e^{x_e}). Nodes covered by no edge
/// are skipped (they cannot constrain the bound). Edge weights below 2 are
/// clamped to 2 so that covering more nodes never looks free.
double FractionalCoverLog(const FTree& tree, const std::vector<int>& nodes);

/// The asymptotically tight size bound (in log space) for the unions at node
/// `n` of a factorisation over `tree` ([22], §2.1): the minimum-weight
/// fractional edge cover of the nodes on the root-to-`n` path.
double NodeSizeBoundLog(const FTree& tree, int n);

/// The f-tree cost metric used for plan search (§5): the sum over live
/// nodes of their size bounds, i.e. an upper bound on the number of
/// singletons of any factorisation over `tree`.
double FTreeCost(const FTree& tree);

}  // namespace fdb

#endif  // FDB_OPTIMIZER_COST_H_
