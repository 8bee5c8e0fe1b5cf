#include "fdb/core/ops/aggregate.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "fdb/core/ops/restructure.h"
#include "fdb/exec/task_pool.h"

namespace fdb {
namespace {

[[noreturn]] void BadComposition(const std::string& what) {
  throw std::invalid_argument("aggregation: invalid composition: " + what);
}

bool IsCarrierNode(const FTreeNode& nd, const AggTask& task) {
  if (task.fn == AggFn::kCount) return false;
  if (nd.is_aggregate()) {
    return nd.agg->fn == task.fn && nd.agg->source == task.source;
  }
  return std::binary_search(nd.attrs.begin(), nd.attrs.end(), task.source);
}

// Validates `task` over the disjoint union of the subtrees at `roots` (a
// product of independent fragments) and writes its evaluation plan as dense
// per-node-id tables, so the per-group recursions do no hash lookups or
// ancestor walks: (*is_value)[n] marks a count node whose stored count
// multiplies the multiplicity product, (*cstar)[n] is the child slot of n
// leading towards the carrier, or -1. Returns the carrier: the node that
// carries the source for sum/min/max, -1 for count. Throws
// std::invalid_argument on compositions outside Prop. 2.
//
// The composition rules are those of Prop. 2, generalised to the sibling
// representation of composite aggregates: leaves created by the same
// operator share an identical `over` set, the count leaf carries the
// multiplicity of that set and its siblings contribute factor 1. Such
// siblings may be spread across different roots, so the ownership rules
// apply globally, not per root.
int Analyze(const FTree& tree, const std::vector<int>& roots,
            const AggTask& task, std::vector<uint8_t>* is_value,
            std::vector<int>* cstar) {
  std::vector<int> nodes;
  for (int r : roots) {
    std::vector<int> sub = tree.SubtreeNodes(r);
    nodes.insert(nodes.end(), sub.begin(), sub.end());
  }

  int carrier = -1;
  if (task.fn != AggFn::kCount) {
    for (int n : nodes) {
      if (IsCarrierNode(tree.node(n), task)) {
        if (carrier >= 0) BadComposition("multiple carrier nodes");
        carrier = n;
      }
    }
    if (carrier < 0) {
      BadComposition(AggFnName(task.fn) + ": source attribute not in subtree");
    }
  }
  is_value->assign(tree.num_nodes(), 0);
  cstar->assign(tree.num_nodes(), -1);
  for (int x = carrier; x >= 0 && tree.parent(x) >= 0; x = tree.parent(x)) {
    (*cstar)[tree.parent(x)] = tree.SlotOf(x);
  }
  // Min/max ignore multiplicities entirely.
  if (task.fn == AggFn::kMin || task.fn == AggFn::kMax) return carrier;

  // For count and sum, every original attribute's multiplicity must be
  // accounted for exactly once: by its atomic node, by a count node's
  // `over` set, or (for sum) by the carrier itself.
  const std::vector<AttrId> carrier_over =
      carrier >= 0 && tree.node(carrier).is_aggregate()
          ? tree.node(carrier).agg->over
          : std::vector<AttrId>{};
  std::vector<AttrId> covered;
  for (int n : nodes) {
    const FTreeNode& nd = tree.node(n);
    if (!nd.is_aggregate()) {
      covered.insert(covered.end(), nd.attrs.begin(), nd.attrs.end());
      continue;
    }
    if (n == carrier) {
      covered.insert(covered.end(), nd.agg->over.begin(), nd.agg->over.end());
      continue;
    }
    if (nd.agg->fn == AggFn::kCount) {
      // A count node whose range equals the carrier's is a composite
      // sibling: the carrier already owns that multiplicity.
      if (carrier_over.empty() || nd.agg->over != carrier_over) {
        (*is_value)[n] = 1;
        covered.insert(covered.end(), nd.agg->over.begin(),
                       nd.agg->over.end());
      }
      continue;
    }
    // A non-count aggregate node that is not the carrier: its multiplicity
    // must be owned by a count sibling with an identical range or by the
    // carrier; otherwise the composition loses multiplicities (Prop. 2).
    bool owned = !carrier_over.empty() && nd.agg->over == carrier_over;
    for (int m : nodes) {
      const FTreeNode& md = tree.node(m);
      if (m != n && md.is_aggregate() && md.agg->fn == AggFn::kCount &&
          md.agg->over == nd.agg->over) {
        owned = true;
      }
    }
    if (!owned) {
      BadComposition(AggFnName(task.fn) + " over a " +
                     AggFnName(nd.agg->fn) + " node with uncounted range");
    }
  }
  // Coverage must be exact and disjoint.
  std::sort(covered.begin(), covered.end());
  if (std::adjacent_find(covered.begin(), covered.end()) != covered.end()) {
    BadComposition("attribute multiplicity counted twice");
  }
  std::vector<AttrId> original;
  for (int r : roots) {
    std::vector<AttrId> sub = tree.SubtreeOriginalAttrs(r);
    original.insert(original.end(), sub.begin(), sub.end());
  }
  std::sort(original.begin(), original.end());
  original.erase(std::unique(original.begin(), original.end()),
                 original.end());
  if (covered != original) {
    BadComposition("attribute multiplicities not fully covered");
  }
  return carrier;
}

// Non-owning view of a ProductAggEvaluator's tables for the recursions.
struct DenseAnalysis {
  int carrier = -1;
  const uint8_t* is_value = nullptr;
  const int* cstar = nullptr;
};

// Ref-native numeric accumulator with the same promotion rules as
// AddValues/MulByCount: the result stays an int iff every operand was one.
struct Num {
  bool is_int = true;
  int64_t i = 0;
  double d = 0;

  static Num OfRef(ValueRef r) {
    if (r.is_int()) return {true, r.as_int(), 0};
    if (!r.is_double()) {
      throw std::invalid_argument("AddValues: non-numeric operand");
    }
    return {false, 0, r.as_double()};
  }
  void AddScaled(const Num& v, int64_t cnt) {
    if (is_int && v.is_int) {
      i += v.i * cnt;
      return;
    }
    double dv = (v.is_int ? static_cast<double>(v.i) : v.d) * cnt;
    if (is_int) {
      d = static_cast<double>(i) + dv;
      is_int = false;
    } else {
      d += dv;
    }
  }
  void Scale(int64_t cnt) {
    if (is_int) {
      i *= cnt;
    } else {
      d *= cnt;
    }
  }
  Value ToValue() const { return is_int ? Value(i) : Value(d); }
};

// Every union is reduced in fixed 256-entry chunks whose partials fold in
// chunk order, serial or parallel, so a SUM over doubles associates the
// same way — and is bit-identical — at every thread count and on either
// side of the parallel-dispatch threshold.
constexpr int64_t kAggChunkEntries = 256;
// A top-level union this large is reduced on TaskPool::Default().
constexpr int64_t kAggParallelMin = 2048;

// Reduces the entries of a union of `size` entries: `add(i, &chunk)` folds
// entry i into its chunk's accumulator, `fold(&total, chunk)` folds the
// chunk partials in chunk order. Only the `top` call of an evaluation (a
// part's own union) may fork; the recursion below it stays on its thread.
template <class Acc, class Add, class Fold>
Acc ChunkedReduce(int64_t size, bool top, const Add& add, const Fold& fold) {
  auto chunk = [&](int64_t lo, int64_t hi) {
    Acc acc{};
    for (int64_t i = lo; i < hi; ++i) add(static_cast<int>(i), &acc);
    return acc;
  };
  // A one-chunk union is its own partial: folding it into the zero
  // accumulator would change no bit, only cost a step per recursion.
  if (size <= kAggChunkEntries) return chunk(0, size);
  Acc total{};
  if (top && size >= kAggParallelMin) {
    std::vector<Acc> partial((size + kAggChunkEntries - 1) / kAggChunkEntries);
    exec::TaskPool::Default().ParallelFor(
        size, kAggChunkEntries, [&](int, int64_t lo, int64_t hi) {
          partial[lo / kAggChunkEntries] = chunk(lo, hi);
        });
    for (const Acc& p : partial) fold(&total, p);
  } else {
    for (int64_t lo = 0; lo < size; lo += kAggChunkEntries) {
      fold(&total, chunk(lo, std::min(size, lo + kAggChunkEntries)));
    }
  }
  return total;
}

// The multiplicity of the relation represented by union `n` at `node`
// (§3.2.1): Σ over entries of the stored count (count nodes) or 1, times
// the children's counts.
int64_t CountRec(const FTree& tree, int node, const FactNode& n,
                 const DenseAnalysis& a, bool top = false) {
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  bool use_value = a.is_value[node];
  return ChunkedReduce<int64_t>(
      n.size(), top,
      [&](int i, int64_t* total) {
        int64_t prod = use_value ? n.values[i].as_int() : 1;
        for (int c = 0; c < k && prod != 0; ++c) {
          prod *= CountRec(tree, kids[c], *n.child(i, k, c), a);
        }
        *total += prod;
      },
      [](int64_t* total, int64_t p) { *total += p; });
}

// The sum of the source over the relation at `node` (§3.2.2): at the
// carrier, Σ vᵢ · Π_c count(child); elsewhere Σ over entries of the sum
// below the carrier slot weighted by the other children's counts.
Num SumRec(const FTree& tree, int node, const FactNode& n,
           const DenseAnalysis& a, bool top = false) {
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  bool at_carrier = node == a.carrier;
  // Exactly one child subtree contains the carrier below a non-carrier.
  int cstar = at_carrier ? -1 : a.cstar[node];
  if (!at_carrier && cstar < 0) BadComposition("sum: carrier not below node");
  bool use_value = a.is_value[node];
  return ChunkedReduce<Num>(
      n.size(), top,
      [&](int i, Num* total) {
        if (at_carrier) {
          // The children never contain the source.
          int64_t cnt = 1;
          for (int c = 0; c < k; ++c) {
            cnt *= CountRec(tree, kids[c], *n.child(i, k, c), a);
          }
          total->AddScaled(Num::OfRef(n.values[i]), cnt);
          return;
        }
        int64_t w = use_value ? n.values[i].as_int() : 1;
        for (int c = 0; c < k; ++c) {
          if (c != cstar) w *= CountRec(tree, kids[c], *n.child(i, k, c), a);
        }
        total->AddScaled(SumRec(tree, kids[cstar], *n.child(i, k, cstar), a),
                         w);
      },
      [](Num* total, const Num& p) { total->AddScaled(p, 1); });
}

// The extremum of the source over the relation at `node` (§3.2.3).
ValueRef MinMaxRec(const FTree& tree, int node, const FactNode& n,
                   const DenseAnalysis& a, bool is_min, bool top = false) {
  if (node == a.carrier) {
    // Unions are sorted, so the extremum is at an end (§4.1 invariant).
    return is_min ? n.values.front() : n.values.back();
  }
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  int cstar = a.cstar[node];
  if (cstar < 0) BadComposition("min/max: carrier not below node");
  // Keeps the better candidate; ties keep the earlier one.
  auto keep = [is_min](std::optional<ValueRef>* best,
                       std::optional<ValueRef> v) {
    if (v && (!*best || (is_min ? *v < **best : **best < *v))) *best = v;
  };
  return ChunkedReduce<std::optional<ValueRef>>(
             n.size(), top,
             [&](int i, std::optional<ValueRef>* best) {
               keep(best, MinMaxRec(tree, kids[cstar],
                                    *n.child(i, k, cstar), a, is_min));
             },
             keep)
      .value_or(ValueRef());
}

}  // namespace

ProductAggEvaluator::ProductAggEvaluator(const FTree& tree,
                                         const std::vector<int>& part_nodes,
                                         const AggTask& task)
    : tree_(&tree), task_(task) {
  // The parts form a product of independent fragments, but composite
  // sibling leaves (e.g. a sum and its count twin) may be spread across
  // parts, so the ownership analysis must span all of them.
  carrier_ = Analyze(tree, part_nodes, task, &is_value_, &cstar_);
  if (task.fn != AggFn::kCount) {
    for (size_t p = 0; p < part_nodes.size(); ++p) {
      if (part_nodes[p] == carrier_ ||
          tree.IsAncestor(part_nodes[p], carrier_)) {
        carrier_part_ = static_cast<int>(p);
      }
    }
    if (carrier_part_ < 0) BadComposition("sum/min/max: source not found");
  }
}

Value ProductAggEvaluator::Eval(
    const std::vector<std::pair<int, const FactNode*>>& parts) const {
  for (const auto& [node, n] : parts) {
    if (n == nullptr || n->values.empty()) {
      // The product is empty: count 0, NULL for sum/min/max.
      return task_.fn == AggFn::kCount ? Value(int64_t{0}) : Value();
    }
  }
  DenseAnalysis a{carrier_, is_value_.data(), cstar_.data()};
  if (task_.fn == AggFn::kMin || task_.fn == AggFn::kMax) {
    const auto& [node, n] = parts[carrier_part_];
    return MinMaxRec(*tree_, node, *n, a, task_.fn == AggFn::kMin,
                     /*top=*/true)
        .ToValue();
  }
  // Count multiplies every part's count (1 over no parts: the product {()}
  // holds the nullary tuple); sum scales the carrier part's sum by the
  // other parts' counts.
  int64_t cnt = 1;
  for (size_t p = 0; p < parts.size(); ++p) {
    if (static_cast<int>(p) == carrier_part_) continue;
    cnt *= CountRec(*tree_, parts[p].first, *parts[p].second, a,
                    /*top=*/true);
  }
  if (task_.fn == AggFn::kCount) return Value(cnt);
  const auto& [node, n] = parts[carrier_part_];
  Num s = SumRec(*tree_, node, *n, a, /*top=*/true);
  s.Scale(cnt);
  return s.ToValue();
}

namespace {

std::string AggName(const AttributeRegistry& reg, const AggTask& task,
                    const std::vector<AttrId>& over) {
  std::string s = AggFnName(task.fn);
  if (task.source != kInvalidAttr) s += "_" + reg.Name(task.source);
  s += "(";
  for (size_t i = 0; i < over.size(); ++i) {
    if (i) s += ",";
    s += reg.Name(over[i]);
  }
  s += ")";
  return s;
}

AttrId FreshAttr(AttributeRegistry* reg, const std::string& base) {
  if (!reg->Find(base).has_value()) return reg->Intern(base);
  // Suffix seeded by the registry size so finding a free name is O(1) even
  // after millions of aggregate queries (scanning #2, #3, ... from the
  // start is quadratic across a query workload).
  for (int i = reg->size() + 2;; ++i) {
    std::string name = base + "#" + std::to_string(i);
    if (!reg->Find(name).has_value()) return reg->Intern(name);
  }
}

}  // namespace

std::vector<int> ApplyAggregate(Factorisation* f, AttributeRegistry* reg,
                                int u, const std::vector<AggTask>& tasks) {
  if (tasks.empty()) {
    throw std::invalid_argument("ApplyAggregate: no aggregation tasks");
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (size_t j = i + 1; j < tasks.size(); ++j) {
      if (tasks[i] == tasks[j]) {
        throw std::invalid_argument("ApplyAggregate: duplicate task");
      }
    }
  }
  const FTree& tree = f->tree();
  // One evaluator per task over the part {u}; building them validates
  // every task before anything is rewritten.
  std::vector<ProductAggEvaluator> evaluators;
  for (const AggTask& t : tasks) {
    evaluators.emplace_back(tree, std::vector<int>{u}, t);
  }

  std::vector<AttrId> over = tree.SubtreeOriginalAttrs(u);
  std::vector<AggregateLabel> labels;
  for (const AggTask& t : tasks) {
    AggregateLabel l;
    l.fn = t.fn;
    l.source = t.source;
    l.over = over;
    // Reuse the canonical name when this tree does not already carry it:
    // re-running a query then labels its aggregate identically instead of
    // growing the shared registry by one fresh name per execution.
    std::string name = AggName(*reg, t, over);
    std::optional<AttrId> existing = reg->Find(name);
    if (existing.has_value() && tree.NodeOfAttr(*existing) < 0) {
      l.id = *existing;
    } else {
      l.id = FreshAttr(reg, name);
    }
    labels.push_back(std::move(l));
  }

  bool was_empty = f->empty();
  int parent = tree.parent(u);
  if (was_empty) {
    // Normalise the empty relation: all roots become empty unions so the
    // data stays shape-consistent with the mutated tree below.
    for (FactPtr& r : f->mutable_roots()) r = FactArena::EmptyNode();
  } else {
    FactArena& arena = f->ArenaForWrite();
    ValueDict& dict = ValueDict::Default();
    std::vector<std::pair<int, const FactNode*>> part = {{u, nullptr}};
    auto eval_all = [&](const FactNode& sub) {
      part[0].second = &sub;
      std::vector<FactPtr> leaves;
      for (const ProductAggEvaluator& e : evaluators) {
        ValueRef r = dict.Encode(e.Eval(part));
        leaves.push_back(arena.NewNode(&r, 1, nullptr, 0));
      }
      return leaves;
    };
    if (parent < 0) {
      // Aggregating a whole root tree: one value per task.
      int slot = tree.SlotOf(u);
      std::vector<FactPtr> leaves = eval_all(*f->roots()[slot]);
      auto& roots = f->mutable_roots();
      roots[slot] = leaves[0];
      for (size_t i = 1; i < leaves.size(); ++i) {
        roots.push_back(leaves[i]);
      }
    } else {
      int kp = static_cast<int>(tree.children(parent).size());
      int slot = tree.SlotOf(u);
      RewriteInFactorisation(f, parent, [&](const FactNode& np) {
        FactBuilder out;
        out.values.assign(np.values.begin(), np.values.end());
        for (int i = 0; i < np.size(); ++i) {
          std::vector<FactPtr> leaves = eval_all(*np.child(i, kp, slot));
          // First task takes u's slot; the rest are appended at the end,
          // mirroring FTree::ReplaceSubtreeWithAggregates.
          for (int c = 0; c < kp; ++c) {
            out.children.push_back(c == slot ? leaves[0]
                                             : np.child(i, kp, c));
          }
          for (size_t t = 1; t < leaves.size(); ++t) {
            out.children.push_back(leaves[t]);
          }
        }
        return out.Finish(arena);
      });
    }
  }

  std::vector<int> ids =
      f->mutable_tree().ReplaceSubtreeWithAggregates(u, std::move(labels));
  if (was_empty) {
    // Keep roots aligned with the tree on the empty relation.
    f->mutable_roots().resize(f->tree().roots().size(),
                              FactArena::EmptyNode());
  }
  return ids;
}

}  // namespace fdb
