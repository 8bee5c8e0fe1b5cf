#include "fdb/optimizer/fplan.h"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "fdb/core/ops/restructure.h"
#include "fdb/core/ops/selection.h"
#include "fdb/core/ops/swap.h"

namespace fdb {

std::vector<int> ExecuteOp(Factorisation* f, AttributeRegistry* reg,
                           const FOp& op) {
  switch (op.kind) {
    case FOpKind::kSwap:
      ApplySwap(f, op.b);
      return {};
    case FOpKind::kMerge:
      ApplyMerge(f, op.a, op.b);
      return {};
    case FOpKind::kAbsorb:
      ApplyAbsorb(f, op.a, op.b);
      return {};
    case FOpKind::kSelectConst:
      ApplySelectConst(f, op.a, op.cmp, op.constant);
      return {};
    case FOpKind::kAggregate:
      return ApplyAggregate(f, reg, op.a, op.tasks);
    case FOpKind::kRename:
      ApplyRename(f, reg, op.a, op.rename_to);
      return {};
  }
  return {};
}

void SimulateOp(FTree* tree, const FOp& op, AttrId* next_id) {
  switch (op.kind) {
    case FOpKind::kSwap:
      tree->SwapUp(op.b);
      return;
    case FOpKind::kMerge:
      tree->MergeSiblings(op.a, op.b);
      return;
    case FOpKind::kAbsorb:
      tree->AbsorbDescendant(op.a, op.b);
      return;
    case FOpKind::kAggregate: {
      std::vector<AttrId> over = tree->SubtreeOriginalAttrs(op.a);
      std::vector<AggregateLabel> labels;
      for (const AggTask& t : op.tasks) {
        labels.push_back({t.fn, t.source, over, (*next_id)++});
      }
      tree->ReplaceSubtreeWithAggregates(op.a, std::move(labels));
      return;
    }
    default:
      throw std::invalid_argument("SimulateOp: not a tree operator");
  }
}

void ExecutePlan(Factorisation* f, AttributeRegistry* reg, const FPlan& plan,
                 std::vector<FOpStats>* stats, size_t first,
                 const std::function<void(size_t)>& after_op) {
  for (size_t i = first; i < plan.size(); ++i) {
    auto t0 = std::chrono::steady_clock::now();
    ExecuteOp(f, reg, plan[i]);
    if (stats != nullptr) {
      auto t1 = std::chrono::steady_clock::now();
      FOpStats s;
      s.kind = plan[i].kind;
      s.seconds = std::chrono::duration<double>(t1 - t0).count();
      s.singletons_after = f->CountSingletons();
      stats->push_back(s);
    }
    if (after_op) after_op(i + 1);
  }
}

std::string PlanToString(const FPlan& plan, const AttributeRegistry& reg) {
  std::ostringstream os;
  for (const FOp& op : plan) {
    switch (op.kind) {
      case FOpKind::kSwap:
        os << "swap(node " << op.b << " up)";
        break;
      case FOpKind::kMerge:
        os << "merge(" << op.a << ", " << op.b << ")";
        break;
      case FOpKind::kAbsorb:
        os << "absorb(" << op.a << ", " << op.b << ")";
        break;
      case FOpKind::kSelectConst:
        os << "select(node " << op.a << " " << CmpOpName(op.cmp) << " "
           << op.constant << ")";
        break;
      case FOpKind::kAggregate: {
        os << "aggregate(subtree " << op.a << "; ";
        for (size_t i = 0; i < op.tasks.size(); ++i) {
          if (i) os << ", ";
          os << AggFnName(op.tasks[i].fn);
          if (op.tasks[i].source != kInvalidAttr) {
            os << "_" << reg.Name(op.tasks[i].source);
          }
        }
        os << ")";
        break;
      }
      case FOpKind::kRename:
        os << "rename(node " << op.a << " -> " << op.rename_to << ")";
        break;
    }
    os << "; ";
  }
  return os.str();
}

}  // namespace fdb
