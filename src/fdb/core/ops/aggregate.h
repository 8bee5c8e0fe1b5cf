#ifndef FDB_CORE_OPS_AGGREGATE_H_
#define FDB_CORE_OPS_AGGREGATE_H_

#include <utility>
#include <vector>

#include "fdb/core/factorisation.h"

namespace fdb {

/// The one aggregate evaluator (§3.2): evaluates `task` over the product
/// of several subtree instances ("parts") in time linear in their size,
/// under the composition rules of Proposition 2. It serves the γ operator
/// (ApplyAggregate, one part: the subtree at u), on-the-fly aggregation
/// during grouped enumeration (§1 scenario 3: the non-grouping subtrees
/// below a group binding) and full aggregation (every root tree). The
/// composition analysis (Prop. 2 ownership rules, carrier search) depends
/// only on the f-tree, the part *nodes* and the task, so it runs once at
/// construction; Eval then walks dense per-node tables for each binding.
class ProductAggEvaluator {
 public:
  /// `part_nodes` are the f-tree nodes of the parts, in the exact order the
  /// parts will be passed to Eval(). Throws std::invalid_argument on
  /// compositions outside Proposition 2.
  ProductAggEvaluator(const FTree& tree, const std::vector<int>& part_nodes,
                      const AggTask& task);

  /// `parts` must pair the construction-time node ids (same order) with the
  /// current subtree instances. A null or empty part makes the product
  /// empty: count 0, NULL for sum/min/max (SQL semantics). Sum uses
  /// sum(E_j) · Π count(E_i); min/max exploit sorted unions. Every union is
  /// reduced in fixed 256-entry chunks folded in chunk order; a part's own
  /// union forks on TaskPool::Default() from 2048 entries, so a double sum
  /// is bit-identical at every thread count.
  Value Eval(const std::vector<std::pair<int, const FactNode*>>& parts) const;

 private:
  const FTree* tree_ = nullptr;
  AggTask task_;
  int carrier_ = -1;          // node id for sum/min/max
  int carrier_part_ = -1;     // index into parts for sum/min/max
  // Dense per-node tables (indexed by node id).
  std::vector<uint8_t> is_value_;  // count nodes contributing their count
  std::vector<int> cstar_;  // child slot leading towards the carrier, or -1
};

/// The aggregation operator γ_F(U) of §3, for a composite list of tasks:
/// replaces the subtree rooted at `u` by one aggregate leaf per task, in
/// every branch of the factorisation, and updates the f-tree and its
/// dependency hypergraph. Fresh aggregate attribute names are interned in
/// `reg`. Returns the new aggregate node ids (aligned with `tasks`).
std::vector<int> ApplyAggregate(Factorisation* f, AttributeRegistry* reg,
                                int u, const std::vector<AggTask>& tasks);

}  // namespace fdb

#endif  // FDB_CORE_OPS_AGGREGATE_H_
