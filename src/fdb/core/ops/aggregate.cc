#include "fdb/core/ops/aggregate.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

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

// How one subtree node contributes to the multiplicity product during the
// count/sum recursions (the composition rules of Prop. 2, generalised to the
// sibling representation of composite aggregates, where leaves created by
// the same operator share an identical `over` set: the count leaf carries
// the multiplicity of that set and its siblings contribute factor 1).
enum class Factor {
  kOne,    // atomic node, or an aggregate whose multiplicity is owned
           // elsewhere (a count sibling with equal `over`, or the carrier)
  kValue,  // count node: multiply by the stored count
};

// The validated evaluation plan for one task over one subtree.
struct Analysis {
  int carrier = -1;  // node id for sum/min/max; -1 for count
  std::unordered_map<int, Factor> factor;  // per aggregate node id
};

// Validates `task` over the subtree at `u` and computes the factor map.
// Throws std::invalid_argument on compositions outside Prop. 2.
// Validates `task` over the disjoint union of the subtrees at `roots` (a
// product of independent fragments) and computes the factor map. Composite
// sibling leaves may be spread across different roots, so the carrier/count
// ownership rules must be applied globally, not per root.
Analysis Analyze(const FTree& tree, const std::vector<int>& roots,
                 const AggTask& task) {
  Analysis a;
  std::vector<int> nodes;
  for (int r : roots) {
    std::vector<int> sub = tree.SubtreeNodes(r);
    nodes.insert(nodes.end(), sub.begin(), sub.end());
  }

  if (task.fn != AggFn::kCount) {
    for (int n : nodes) {
      if (IsCarrierNode(tree.node(n), task)) {
        if (a.carrier >= 0) BadComposition("multiple carrier nodes");
        a.carrier = n;
      }
    }
    if (a.carrier < 0) {
      BadComposition(AggFnName(task.fn) + ": source attribute not in subtree");
    }
  }
  if (task.fn == AggFn::kMin || task.fn == AggFn::kMax) {
    // Min/max ignore multiplicities entirely; all other nodes are ignored.
    for (int n : nodes) a.factor[n] = Factor::kOne;
    return a;
  }

  // For count and sum, every original attribute's multiplicity must be
  // accounted for exactly once: by its atomic node, by a count node's
  // `over` set, or (for sum) by the carrier itself.
  const std::vector<AttrId> carrier_over =
      a.carrier >= 0 && tree.node(a.carrier).is_aggregate()
          ? tree.node(a.carrier).agg->over
          : std::vector<AttrId>{};
  std::vector<AttrId> covered;
  std::vector<std::vector<AttrId>> count_overs;
  for (int n : nodes) {
    const FTreeNode& nd = tree.node(n);
    if (!nd.is_aggregate()) {
      a.factor[n] = Factor::kOne;
      covered.insert(covered.end(), nd.attrs.begin(), nd.attrs.end());
      continue;
    }
    if (n == a.carrier) {
      covered.insert(covered.end(), nd.agg->over.begin(), nd.agg->over.end());
      continue;
    }
    if (nd.agg->fn == AggFn::kCount) {
      // A count node whose range equals the carrier's is a composite
      // sibling: the carrier already owns that multiplicity.
      if (!carrier_over.empty() && nd.agg->over == carrier_over) {
        a.factor[n] = Factor::kOne;
      } else {
        a.factor[n] = Factor::kValue;
        covered.insert(covered.end(), nd.agg->over.begin(),
                       nd.agg->over.end());
        count_overs.push_back(nd.agg->over);
      }
      continue;
    }
    // A non-count aggregate node that is not the carrier: its multiplicity
    // must be owned by a count sibling with an identical range or by the
    // carrier; otherwise the composition loses multiplicities (Prop. 2).
    a.factor[n] = Factor::kOne;
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
  return a;
}

// Dense (per-node-id) rendering of an Analysis: no hash lookups or
// ancestor walks inside the per-group evaluation recursions. The view is
// non-owning; DenseTables below holds the storage.
struct DenseAnalysis {
  int carrier = -1;
  const uint8_t* is_value = nullptr;  // count nodes contributing their value
  const int* cstar = nullptr;  // child slot towards the carrier, or -1
};

struct DenseTables {
  std::vector<uint8_t> is_value;
  std::vector<int> cstar;

  DenseAnalysis View(int carrier) const {
    return {carrier, is_value.data(), cstar.data()};
  }
};

DenseTables MakeDense(const FTree& tree, const Analysis& a) {
  DenseTables d;
  d.is_value.assign(tree.num_nodes(), 0);
  for (const auto& [node, f] : a.factor) {
    if (f == Factor::kValue) d.is_value[node] = 1;
  }
  d.cstar.assign(tree.num_nodes(), -1);
  for (int x = a.carrier; x >= 0 && tree.parent(x) >= 0; x = tree.parent(x)) {
    d.cstar[tree.parent(x)] = tree.SlotOf(x);
  }
  return d;
}

int64_t CountRec(const FTree& tree, int node, const FactNode& n,
                 const DenseAnalysis& a);

// One entry's multiplicity product. Shared by the recursive loop and the
// chunked top-level reduction so the two bodies cannot drift.
int64_t CountEntry(const FTree& tree, const std::vector<int>& kids, int k,
                   bool use_value, const FactNode& n, int i,
                   const DenseAnalysis& a) {
  int64_t prod = use_value ? n.values[i].as_int() : 1;
  for (int c = 0; c < k && prod != 0; ++c) {
    prod *= CountRec(tree, kids[c], *n.child(i, k, c), a);
  }
  return prod;
}

int64_t CountRec(const FTree& tree, int node, const FactNode& n,
                 const DenseAnalysis& a) {
  const FTreeNode& nd = tree.node(node);
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  bool use_value = nd.is_aggregate() && a.is_value[node];
  int64_t total = 0;
  for (int i = 0; i < n.size(); ++i) {
    total += CountEntry(tree, kids, k, use_value, n, i, a);
  }
  return total;
}

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

// Fixed reduction granularity for double sums: partials are accumulated
// per 256-entry chunk and combined in chunk order *everywhere* — the
// serial recursion and the parallel top-level reduction share the same
// association — so a SUM over doubles is bit-identical at every thread
// count and on either side of the parallel-dispatch threshold.
constexpr int64_t kAggChunkEntries = 256;

Num SumRec(const FTree& tree, int node, const FactNode& n,
           const DenseAnalysis& a);

// Accumulates one entry's sum contribution into *total: at the carrier,
// vᵢ · Π_c count(child); elsewhere the weighted recursion towards the
// carrier slot. Shared by SumRec and the chunked top-level reduction.
void AddSumEntry(const FTree& tree, const std::vector<int>& kids, int k,
                 bool at_carrier, int cstar, bool use_value,
                 const FactNode& n, int i, const DenseAnalysis& a,
                 Num* total) {
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
  total->AddScaled(SumRec(tree, kids[cstar], *n.child(i, k, cstar), a), w);
}

Num SumRec(const FTree& tree, int node, const FactNode& n,
           const DenseAnalysis& a) {
  const FTreeNode& nd = tree.node(node);
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  bool at_carrier = node == a.carrier;
  // Exactly one child subtree contains the carrier below a non-carrier.
  int cstar = at_carrier ? -1 : a.cstar[node];
  if (!at_carrier && cstar < 0) BadComposition("sum: carrier not below node");
  bool use_value = nd.is_aggregate() && a.is_value[node];
  // Accumulate with the fixed chunk association (see kAggChunkEntries):
  // integer sums are exact either way, but double sums must associate
  // identically to the chunked top-level reduction so serial and
  // parallel evaluations agree to the last bit.
  Num total;
  Num chunk;
  int64_t in_chunk = 0;
  for (int i = 0; i < n.size(); ++i) {
    AddSumEntry(tree, kids, k, at_carrier, cstar, use_value, n, i, a,
                &chunk);
    if (++in_chunk == kAggChunkEntries) {
      total.AddScaled(chunk, 1);
      chunk = Num();
      in_chunk = 0;
    }
  }
  if (in_chunk > 0) total.AddScaled(chunk, 1);
  return total;
}

// --- chunked top-level evaluation -----------------------------------------
//
// The per-entry bodies of CountRec/SumRec are independent, so the top
// union of a (potentially huge) part can be reduced in fixed-size chunks
// across TaskPool::Default(). Partials are stored per chunk and combined
// in chunk order, and the chunk boundaries depend only on the data, so
// the result is identical for every thread count — including one, where
// the same chunked loop runs sequentially. Below the size threshold the
// plain recursion runs instead; SumRec shares the chunk association, so
// the threshold is purely a dispatch decision, never a numeric one.

constexpr int64_t kAggParallelMin = 2048;

int64_t CountTop(const FTree& tree, int node, const FactNode& n,
                 const DenseAnalysis& a) {
  int64_t size = n.size();
  if (size < kAggParallelMin) return CountRec(tree, node, n, a);
  const FTreeNode& nd = tree.node(node);
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  bool use_value = nd.is_aggregate() && a.is_value[node];
  std::vector<int64_t> partial((size + kAggChunkEntries - 1) /
                               kAggChunkEntries);
  exec::TaskPool::Default().ParallelFor(
      size, kAggChunkEntries, [&](int, int64_t lo, int64_t hi) {
        int64_t total = 0;
        for (int64_t i = lo; i < hi; ++i) {
          total += CountEntry(tree, kids, k, use_value, n,
                              static_cast<int>(i), a);
        }
        partial[lo / kAggChunkEntries] = total;
      });
  int64_t total = 0;
  for (int64_t p : partial) total += p;
  return total;
}

ValueRef MinMaxRec(const FTree& tree, int node, const FactNode& n,
                   const DenseAnalysis& a, bool is_min) {
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  if (node == a.carrier) {
    // Unions are sorted, so the extremum is at an end (§4.1 invariant).
    return is_min ? n.values.front() : n.values.back();
  }
  int cstar = a.cstar[node];
  if (cstar < 0) BadComposition("min/max: carrier not below node");
  ValueRef best;
  for (int i = 0; i < n.size(); ++i) {
    ValueRef v =
        MinMaxRec(tree, kids[cstar], *n.child(i, k, cstar), a, is_min);
    if (i == 0) {
      best = v;
    } else if (is_min ? (v < best) : (best < v)) {
      best = v;
    }
  }
  return best;
}

Num SumTop(const FTree& tree, int node, const FactNode& n,
           const DenseAnalysis& a) {
  int64_t size = n.size();
  if (size < kAggParallelMin) return SumRec(tree, node, n, a);
  const FTreeNode& nd = tree.node(node);
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  bool at_carrier = node == a.carrier;
  int cstar = at_carrier ? -1 : a.cstar[node];
  if (!at_carrier && cstar < 0) BadComposition("sum: carrier not below node");
  bool use_value = nd.is_aggregate() && a.is_value[node];
  std::vector<Num> partial((size + kAggChunkEntries - 1) / kAggChunkEntries);
  exec::TaskPool::Default().ParallelFor(
      size, kAggChunkEntries, [&](int, int64_t lo, int64_t hi) {
        Num total;
        for (int64_t j = lo; j < hi; ++j) {
          AddSumEntry(tree, kids, k, at_carrier, cstar, use_value, n,
                      static_cast<int>(j), a, &total);
        }
        partial[lo / kAggChunkEntries] = total;
      });
  Num total;
  for (const Num& p : partial) total.AddScaled(p, 1);
  return total;
}

ValueRef MinMaxTop(const FTree& tree, int node, const FactNode& n,
                   const DenseAnalysis& a, bool is_min) {
  int64_t size = n.size();
  if (node == a.carrier || size < kAggParallelMin) {
    return MinMaxRec(tree, node, n, a, is_min);
  }
  const std::vector<int>& kids = tree.children(node);
  int k = static_cast<int>(kids.size());
  int cstar = a.cstar[node];
  if (cstar < 0) BadComposition("min/max: carrier not below node");
  std::vector<ValueRef> partial((size + kAggChunkEntries - 1) /
                                kAggChunkEntries);
  exec::TaskPool::Default().ParallelFor(
      size, kAggChunkEntries, [&](int, int64_t lo, int64_t hi) {
        ValueRef best;
        for (int64_t j = lo; j < hi; ++j) {
          int i = static_cast<int>(j);
          ValueRef v =
              MinMaxRec(tree, kids[cstar], *n.child(i, k, cstar), a, is_min);
          if (j == lo) {
            best = v;
          } else if (is_min ? (v < best) : (best < v)) {
            best = v;
          }
        }
        partial[lo / kAggChunkEntries] = best;
      });
  ValueRef best = partial[0];
  for (size_t p = 1; p < partial.size(); ++p) {
    if (is_min ? (partial[p] < best) : (best < partial[p])) best = partial[p];
  }
  return best;
}

Value Eval(const FTree& tree, int node, const FactNode& n, const AggTask& task,
           const DenseAnalysis& a) {
  switch (task.fn) {
    case AggFn::kCount:
      return Value(CountTop(tree, node, n, a));
    case AggFn::kSum:
      return SumTop(tree, node, n, a).ToValue();
    case AggFn::kMin:
    case AggFn::kMax:
      return MinMaxTop(tree, node, n, a, task.fn == AggFn::kMin).ToValue();
  }
  throw std::logic_error("EvalAggregate: unreachable");
}

}  // namespace

int FindCarrierNode(const FTree& tree, int u, const AggTask& task) {
  int found = -1;
  for (int n : tree.SubtreeNodes(u)) {
    if (IsCarrierNode(tree.node(n), task)) {
      if (found >= 0) BadComposition("multiple carrier nodes");
      found = n;
    }
  }
  return found;
}

int64_t EvalCount(const FTree& tree, int node, const FactNode& n) {
  Analysis a = Analyze(tree, {node}, {AggFn::kCount, kInvalidAttr});
  DenseTables t = MakeDense(tree, a);
  return CountTop(tree, node, n, t.View(a.carrier));
}

Value EvalAggregate(const FTree& tree, int node, const FactNode& n,
                    const AggTask& task) {
  Analysis a = Analyze(tree, {node}, task);
  DenseTables t = MakeDense(tree, a);
  return Eval(tree, node, n, task, t.View(a.carrier));
}

Value EvalAggregateProduct(
    const FTree& tree,
    const std::vector<std::pair<int, const FactNode*>>& parts,
    const AggTask& task) {
  std::vector<int> roots;
  for (const auto& [node, n] : parts) roots.push_back(node);
  return ProductAggEvaluator(tree, roots, task).Eval(parts);
}

ProductAggEvaluator::ProductAggEvaluator(const FTree& tree,
                                         const std::vector<int>& part_nodes,
                                         const AggTask& task)
    : tree_(&tree), task_(task) {
  if (part_nodes.empty()) {
    // Aggregate over the empty product {()}: one nullary tuple.
    nullary_ = true;
    if (task.fn != AggFn::kCount) {
      BadComposition("sum/min/max over no attributes");
    }
    return;
  }
  // The parts form a product of independent fragments, but composite
  // sibling leaves (e.g. a sum and its count twin) may be spread across
  // parts, so the ownership analysis must span all of them.
  Analysis a = Analyze(tree, part_nodes, task);
  carrier_ = a.carrier;
  DenseTables dense = MakeDense(tree, a);
  factor_is_value_ = std::move(dense.is_value);
  cstar_ = std::move(dense.cstar);
  if (task.fn != AggFn::kCount) {
    for (size_t p = 0; p < part_nodes.size(); ++p) {
      if (part_nodes[p] == a.carrier ||
          tree.IsAncestor(part_nodes[p], a.carrier)) {
        carrier_part_ = static_cast<int>(p);
      }
    }
    if (carrier_part_ < 0) BadComposition("sum/min/max: source not found");
  }
}

Value ProductAggEvaluator::Eval(
    const std::vector<std::pair<int, const FactNode*>>& parts) const {
  if (nullary_) return Value(static_cast<int64_t>(1));
  // Borrow the precomputed dense tables (no per-group copies).
  DenseAnalysis a{carrier_, factor_is_value_.data(), cstar_.data()};
  switch (task_.fn) {
    case AggFn::kCount: {
      int64_t prod = 1;
      for (const auto& [node, n] : parts) {
        prod *= CountTop(*tree_, node, *n, a);
      }
      return Value(prod);
    }
    case AggFn::kSum: {
      // Exactly one part carries the source; the rest contribute counts.
      Num s = SumTop(*tree_, parts[carrier_part_].first,
                     *parts[carrier_part_].second, a);
      int64_t cnt = 1;
      for (size_t p = 0; p < parts.size(); ++p) {
        if (static_cast<int>(p) == carrier_part_) continue;
        cnt *= CountTop(*tree_, parts[p].first, *parts[p].second, a);
      }
      s.Scale(cnt);
      return s.ToValue();
    }
    case AggFn::kMin:
    case AggFn::kMax: {
      return MinMaxTop(*tree_, parts[carrier_part_].first,
                       *parts[carrier_part_].second, a,
                       task_.fn == AggFn::kMin)
          .ToValue();
    }
  }
  throw std::logic_error("ProductAggEvaluator::Eval: unreachable");
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
  std::vector<Analysis> analyses;
  for (const AggTask& t : tasks) analyses.push_back(Analyze(tree, {u}, t));
  std::vector<DenseTables> tables;
  for (const Analysis& a : analyses) tables.push_back(MakeDense(tree, a));

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
    auto eval_all = [&](const FactNode& sub) {
      std::vector<FactPtr> leaves;
      for (size_t t = 0; t < tasks.size(); ++t) {
        ValueRef r = dict.Encode(Eval(
            tree, u, sub, tasks[t], tables[t].View(analyses[t].carrier)));
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
