#include "fdb/core/ops/selection.h"

#include <algorithm>
#include <stdexcept>

#include "fdb/core/ops/restructure.h"

namespace fdb {
namespace {

// Intersects unions `na` and `nb` (sorted); the result keeps a's children
// slots first, then b's, matching FTree::MergeSiblings.
FactPtr IntersectUnions(const FactNode& na, int ka, const FactNode& nb,
                        int kb, FactArena& arena) {
  FactBuilder out;
  size_t cap = std::min(na.values.size(), nb.values.size());
  out.values.reserve(cap);
  out.children.reserve(cap * (ka + kb));
  size_t i = 0, j = 0;
  while (i < na.values.size() && j < nb.values.size()) {
    auto c = na.values[i] <=> nb.values[j];
    if (c == std::strong_ordering::less) {
      ++i;
    } else if (c == std::strong_ordering::greater) {
      ++j;
    } else {
      out.values.push_back(na.values[i]);
      for (int s = 0; s < ka; ++s) {
        out.children.push_back(na.child(static_cast<int>(i), ka, s));
      }
      for (int s = 0; s < kb; ++s) {
        out.children.push_back(nb.child(static_cast<int>(j), kb, s));
      }
      ++i;
      ++j;
    }
  }
  return out.Finish(arena);
}

}  // namespace

void ApplyMerge(Factorisation* f, int a, int b) {
  const FTree& tree = f->tree();
  if (tree.parent(a) != tree.parent(b)) {
    throw std::invalid_argument("ApplyMerge: nodes are not siblings");
  }
  const int ka = static_cast<int>(tree.children(a).size());
  const int kb = static_cast<int>(tree.children(b).size());
  int parent = tree.parent(a);
  FactArena& arena = f->ArenaForWrite();

  if (parent < 0) {
    // Both roots: intersect the two root unions of the forest product.
    int sa = tree.SlotOf(a), sb = tree.SlotOf(b);
    FactPtr merged =
        IntersectUnions(*f->roots()[sa], ka, *f->roots()[sb], kb, arena);
    auto& roots = f->mutable_roots();
    roots[sa] = merged;
    roots.erase(roots.begin() + sb);
  } else {
    int sa = tree.SlotOf(a), sb = tree.SlotOf(b);
    int kp = static_cast<int>(tree.children(parent).size());
    RewriteInFactorisation(f, parent, [&](const FactNode& np) {
      FactBuilder out;
      for (int i = 0; i < np.size(); ++i) {
        FactPtr merged = IntersectUnions(*np.child(i, kp, sa), ka,
                                         *np.child(i, kp, sb), kb, arena);
        if (merged->values.empty()) continue;  // prune this entry
        out.values.push_back(np.values[i]);
        for (int c = 0; c < kp; ++c) {
          if (c == sa) {
            out.children.push_back(merged);
          } else if (c != sb) {
            out.children.push_back(np.child(i, kp, c));
          }
        }
      }
      return out.Finish(arena);
    });
  }
  f->mutable_tree().MergeSiblings(a, b);
}

namespace {

// Restricts the chain below `node` (current union `n`) so that the union at
// the final chain node keeps only the entry with value `bound`; that entry's
// children are returned through *spliced and the union itself disappears
// (its slot is erased in its parent, and the children are appended there).
// Returns nullptr when the bound value is absent (prune).
FactPtr RestrictRec(const FTree& tree, int node, const FactNode& n,
                    const std::vector<int>& chain, size_t depth,
                    ValueRef bound, FactArena& arena) {
  int k = static_cast<int>(tree.children(node).size());
  int slot = chain[depth];
  int next = tree.children(node)[slot];
  FactBuilder out;
  if (depth + 1 == chain.size()) {
    // `next` is b itself: select `bound` in each child union at `slot` and
    // splice its children into this entry (erase slot, append b's children).
    int kb = static_cast<int>(tree.children(next).size());
    for (int i = 0; i < n.size(); ++i) {
      const FactNode& ub = *n.child(i, k, slot);
      auto it = std::lower_bound(ub.values.begin(), ub.values.end(), bound);
      if (it == ub.values.end() || !(*it == bound)) continue;
      int j = static_cast<int>(it - ub.values.begin());
      out.values.push_back(n.values[i]);
      for (int c = 0; c < k; ++c) {
        if (c != slot) out.children.push_back(n.child(i, k, c));
      }
      for (int c = 0; c < kb; ++c) {
        out.children.push_back(ub.child(j, kb, c));
      }
    }
  } else {
    for (int i = 0; i < n.size(); ++i) {
      FactPtr r = RestrictRec(tree, next, *n.child(i, k, slot), chain,
                              depth + 1, bound, arena);
      if (r == nullptr || r->values.empty()) continue;
      out.values.push_back(n.values[i]);
      for (int c = 0; c < k; ++c) {
        out.children.push_back(c == slot ? r : n.child(i, k, c));
      }
    }
  }
  return out.Finish(arena);
}

}  // namespace

void ApplyAbsorb(Factorisation* f, int a, int b) {
  const FTree& tree = f->tree();
  if (!tree.IsAncestor(a, b)) {
    throw std::invalid_argument("ApplyAbsorb: b is not a descendant of a");
  }
  // Slot chain from a (exclusive) down to b (inclusive).
  std::vector<int> nodes;
  for (int n = b; n != a; n = tree.parent(n)) nodes.push_back(n);
  std::reverse(nodes.begin(), nodes.end());
  std::vector<int> chain;
  for (int n : nodes) chain.push_back(tree.SlotOf(n));

  const int ka = static_cast<int>(tree.children(a).size());
  FactArena& arena = f->ArenaForWrite();
  RewriteInFactorisation(f, a, [&](const FactNode& ua) -> FactPtr {
    FactBuilder out;
    for (int i = 0; i < ua.size(); ++i) {
      // Bind b to the value of a in this entry and restrict downwards.
      ValueRef bound = ua.values[i];
      // Build a one-entry view of this a-entry to reuse RestrictRec's frame:
      // directly handle the first chain level here instead.
      int slot = chain[0];
      int next = tree.children(a)[slot];
      FactPtr r;
      if (chain.size() == 1) {
        // b is a direct child of a.
        const FactNode& ub = *ua.child(i, ka, slot);
        auto it =
            std::lower_bound(ub.values.begin(), ub.values.end(), bound);
        if (it == ub.values.end() || !(*it == bound)) continue;
        int j = static_cast<int>(it - ub.values.begin());
        int kb = static_cast<int>(tree.children(b).size());
        out.values.push_back(bound);
        for (int c = 0; c < ka; ++c) {
          if (c != slot) out.children.push_back(ua.child(i, ka, c));
        }
        for (int c = 0; c < kb; ++c) {
          out.children.push_back(ub.child(j, kb, c));
        }
        continue;
      }
      std::vector<int> rest(chain.begin() + 1, chain.end());
      r = RestrictRec(tree, next, *ua.child(i, ka, slot), rest, 0, bound,
                      arena);
      if (r == nullptr || r->values.empty()) continue;
      out.values.push_back(bound);
      for (int c = 0; c < ka; ++c) {
        out.children.push_back(c == slot ? r : ua.child(i, ka, c));
      }
    }
    return out.Finish(arena);
  });
  f->mutable_tree().AbsorbDescendant(a, b);
}

void ApplySelectConst(Factorisation* f, int node, CmpOp op, const Value& c) {
  const FTree& tree = f->tree();
  int k = static_cast<int>(tree.children(node).size());
  // Interning the constant (rather than a lookup) keeps inequality
  // comparisons exact for strings the dictionary has not seen yet.
  ValueRef cref = ValueDict::Default().Encode(c);
  FactArena& arena = f->ArenaForWrite();
  RewriteInFactorisation(f, node, [&](const FactNode& n) {
    FactBuilder out;
    for (int i = 0; i < n.size(); ++i) {
      if (!EvalCmpRef(n.values[i], op, cref)) continue;
      out.values.push_back(n.values[i]);
      for (int s = 0; s < k; ++s) out.children.push_back(n.child(i, k, s));
    }
    return out.Finish(arena);
  });
}

}  // namespace fdb
