#ifndef FDB_CORE_OPS_AGGREGATE_H_
#define FDB_CORE_OPS_AGGREGATE_H_

#include <utility>
#include <vector>

#include "fdb/core/factorisation.h"

namespace fdb {

/// The node inside the subtree at `u` that carries `source`: either the
/// atomic class containing it, or a compatible aggregate node whose function
/// matches `task.fn` with the same source. Returns -1 if absent.
int FindCarrierNode(const FTree& tree, int u, const AggTask& task);

/// Linear-time cardinality of the relation represented by the union `n` at
/// f-tree node `node` (§3.2.1), interpreting count-aggregate singletons as
/// pre-computed counts. Throws on non-count aggregate nodes.
int64_t EvalCount(const FTree& tree, int node, const FactNode& n);

/// Linear-time evaluation of `task` over the union `n` at f-tree node `node`
/// (§3.2.1–§3.2.3). For sum, uses sum(E_j) · Π count(E_i); for min/max,
/// exploits sorted unions. Throws std::invalid_argument when the
/// composition is invalid per Proposition 2.
Value EvalAggregate(const FTree& tree, int node, const FactNode& n,
                    const AggTask& task);

/// Evaluates `task` over the *product* of several subtree instances — used
/// for on-the-fly aggregation during enumeration (§1 scenario 3), where the
/// non-grouping subtrees hanging below the current group binding are
/// combined without materialising anything.
Value EvalAggregateProduct(
    const FTree& tree,
    const std::vector<std::pair<int, const FactNode*>>& parts,
    const AggTask& task);

/// EvalAggregateProduct with the composition analysis hoisted out: the
/// validation walk (Prop. 2 ownership rules, carrier search) depends only
/// on the f-tree, the part *nodes* and the task, so a group-by enumerator
/// runs it once and evaluates millions of group bindings against dense
/// per-node tables instead of re-analysing per output tuple.
class ProductAggEvaluator {
 public:
  /// `part_nodes` are the f-tree nodes of the parts, in the exact order the
  /// parts will be passed to Eval(). Throws std::invalid_argument on
  /// compositions outside Proposition 2.
  ProductAggEvaluator(const FTree& tree, const std::vector<int>& part_nodes,
                      const AggTask& task);

  /// `parts` must pair the construction-time node ids (same order) with the
  /// current subtree instances.
  Value Eval(const std::vector<std::pair<int, const FactNode*>>& parts) const;

 private:
  const FTree* tree_ = nullptr;
  AggTask task_;
  bool nullary_ = false;      // aggregate over the empty product {()}
  int carrier_ = -1;          // node id for sum/min/max
  int carrier_part_ = -1;     // index into parts for sum/min/max
  // Dense per-node tables (indexed by node id).
  std::vector<uint8_t> factor_is_value_;  // count nodes contributing factors
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
