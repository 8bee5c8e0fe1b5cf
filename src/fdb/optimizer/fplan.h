#ifndef FDB_OPTIMIZER_FPLAN_H_
#define FDB_OPTIMIZER_FPLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fdb/core/factorisation.h"
#include "fdb/core/ops/aggregate.h"

namespace fdb {

/// The kinds of low-level f-plan operators (§2.1, §3): mappings between
/// factorisations, referencing nodes of the evolving f-tree by id (node ids
/// are stable across all operators).
enum class FOpKind {
  kSwap,         ///< swap node `b` with its parent (χ)
  kMerge,        ///< selection on sibling nodes: merge `b` into `a`
  kAbsorb,       ///< selection on ancestor `a` / descendant `b`
  kSelectConst,  ///< σ_{A θ c} at node `a`
  kAggregate,    ///< γ_tasks over the subtree rooted at `a`
  kRename,       ///< rename the aggregate attribute of node `a`
};

/// One f-plan operator.
struct FOp {
  FOpKind kind = FOpKind::kSwap;
  int a = -1;
  int b = -1;
  CmpOp cmp = CmpOp::kEq;
  Value constant;
  std::vector<AggTask> tasks;
  std::string rename_to;

  static FOp Swap(int b) { return {FOpKind::kSwap, -1, b, {}, {}, {}, {}}; }
  static FOp Merge(int a, int b) {
    return {FOpKind::kMerge, a, b, {}, {}, {}, {}};
  }
  static FOp Absorb(int a, int b) {
    return {FOpKind::kAbsorb, a, b, {}, {}, {}, {}};
  }
  static FOp Select(int a, CmpOp cmp, Value c) {
    return {FOpKind::kSelectConst, a, -1, cmp, std::move(c), {}, {}};
  }
  static FOp Aggregate(int a, std::vector<AggTask> tasks) {
    return {FOpKind::kAggregate, a, -1, {}, {}, std::move(tasks), {}};
  }
  static FOp Rename(int a, std::string to) {
    return {FOpKind::kRename, a, -1, {}, {}, {}, std::move(to)};
  }

  /// Structural equality: two equal ops map equal inputs to equal
  /// outputs. The constant must match in type too (1 and 1.0 compare
  /// equal as values but are different ops).
  bool operator==(const FOp& o) const {
    return kind == o.kind && a == o.a && b == o.b && cmp == o.cmp &&
           constant == o.constant &&
           constant.is_double() == o.constant.is_double() &&
           tasks == o.tasks && rename_to == o.rename_to;
  }
};

/// An f-plan: a sequence of operators (§5).
using FPlan = std::vector<FOp>;

/// Execution statistics for one operator. An op the engine restored
/// from its f-plan prefix cache did not run: `cached` is set, `seconds`
/// is 0 and `singletons_after` is -1 (not measured).
struct FOpStats {
  FOpKind kind;
  int64_t singletons_after = 0;
  double seconds = 0.0;
  bool cached = false;
};

/// Applies one operator to the factorisation (tree and data).
/// For kAggregate, returns the new aggregate node ids; otherwise empty.
std::vector<int> ExecuteOp(Factorisation* f, AttributeRegistry* reg,
                           const FOp& op);

/// The tree-only twin of ExecuteOp, for plan search: applies a swap,
/// merge, absorb or γ to `tree` alone. γ names its aggregates *next_id,
/// *next_id + 1, ... and advances *next_id past them; the caller starts it
/// beyond every id the tree mentions. Throws std::invalid_argument for any
/// other operator.
void SimulateOp(FTree* tree, const FOp& op, AttrId* next_id);

/// Applies plan[first..] to `f`, which must already hold the result of
/// the ops before `first`, optionally appending per-operator statistics.
/// `after_op`, when set, runs after each op with the number of the plan's
/// ops applied so far.
void ExecutePlan(Factorisation* f, AttributeRegistry* reg, const FPlan& plan,
                 std::vector<FOpStats>* stats = nullptr, size_t first = 0,
                 const std::function<void(size_t)>& after_op = nullptr);

/// Human-readable plan rendering for logs and tests.
std::string PlanToString(const FPlan& plan, const AttributeRegistry& reg);

}  // namespace fdb

#endif  // FDB_OPTIMIZER_FPLAN_H_
