#include "fdb/core/build.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "fdb/core/fact_arena.h"
#include "fdb/exec/cancel.h"
#include "fdb/exec/task_pool.h"
#include "fdb/obs/metrics.h"

namespace fdb {
namespace {

// A base relation prepared for trie construction: the path columns are
// dictionary-encoded into contiguous per-step arrays (column-major) and
// sorted by the concatenated path order, so the leapfrog intersection
// below compares raw 8-byte codes instead of boxed values.
struct PreparedRel {
  // (*cols)[step][row], sorted; shared with the relation's memo.
  std::shared_ptr<const Relation::SortedColumns> cols;
  std::vector<int> node_path;               // f-tree nodes, root-to-leaf
  std::vector<std::vector<int>> node_cols;  // column positions per path node
  const std::vector<ValueRef>& col(int step) const { return (*cols)[step]; }
  size_t num_rows() const { return cols->empty() ? 0 : (*cols)[0].size(); }
};

obs::Counter& SortedInputHits() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "build.sorted_inputs.hits", "relations",
      "FactoriseJoin inputs served sorted from the relation's memo");
  return c;
}

obs::Counter& SortedInputMisses() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "build.sorted_inputs.misses", "relations",
      "FactoriseJoin inputs sorted afresh and memoised");
  return c;
}

// Filters `rel` to the rows whose columns agree within each path step,
// dictionary-encodes each step's column and sorts the rows by the
// concatenated path order (`node_cols` lists the columns of each step).
std::shared_ptr<const Relation::SortedColumns> SortPathColumns(
    const Relation& rel, const Relation::SortedColumnsKey& node_cols) {
  ValueDict& dict = ValueDict::Default();
  // Keep only rows whose columns agree within each equivalence class.
  std::vector<const Tuple*> kept;
  kept.reserve(rel.rows().size());
  for (const Tuple& row : rel.rows()) {
    bool ok = true;
    for (const auto& cols : node_cols) {
      for (size_t i = 1; i < cols.size() && ok; ++i) {
        ok = row[cols[0]] == row[cols[i]];
      }
    }
    if (ok) kept.push_back(&row);
  }
  // Bulk-intern the string cells of the path columns in sorted order so
  // dictionary codes are assigned with (mostly) append-only ranks.
  std::vector<std::string_view> strs;
  for (const auto& cols : node_cols) {
    for (const Tuple* row : kept) {
      const Value& v = (*row)[cols[0]];
      if (v.is_string()) strs.push_back(v.as_string());
    }
  }
  if (!strs.empty()) dict.InternBulk(std::move(strs));
  // Encode the path columns column-major, then sort by path order using
  // packed row-major 64-bit order keys (one contiguous integer compare
  // per column; exact ref comparison only on the rare key collision).
  size_t steps = node_cols.size();
  size_t nrows = kept.size();
  std::vector<std::vector<ValueRef>> cols(steps);
  for (size_t s = 0; s < steps; ++s) {
    int c = node_cols[s][0];
    cols[s].reserve(nrows);
    for (size_t r = 0; r < nrows; ++r) {
      cols[s].push_back(dict.Encode((*kept[r])[c]));  // may intern
    }
  }
  // The rank keys and every sort consuming them run with rank shifts
  // frozen: a concurrent out-of-order intern (e.g. a commit to another
  // view) must not move string ranks between two key reads
  // or mid-sort. All interning for this relation happened above, and
  // the freeze is shared — only writers are excluded.
  auto frozen = dict.FreezeRanks();
  std::vector<uint64_t> rowkeys(nrows * steps);
  for (size_t s = 0; s < steps; ++s) {
    for (size_t r = 0; r < nrows; ++r) {
      rowkeys[r * steps + s] = cols[s][r].OrderKey();
    }
  }
  // Column-at-a-time run refinement: sort contiguous (key, row) pairs
  // by the first column, then recursively re-sort each run of equal
  // keys by the next column. All sorts touch sequential memory.
  std::vector<uint32_t> perm(nrows);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::pair<uint64_t, uint32_t>> buf(nrows);
  struct Seg {
    uint32_t lo, hi, col;
  };
  std::vector<Seg> segs;
  if (nrows > 1 && steps > 0) segs.push_back({0, (uint32_t)nrows, 0});
  while (!segs.empty()) {
    Seg seg = segs.back();
    segs.pop_back();
    uint32_t s = seg.col;
    for (uint32_t i = seg.lo; i < seg.hi; ++i) {
      buf[i] = {rowkeys[perm[i] * steps + s], perm[i]};
    }
    std::sort(buf.begin() + seg.lo, buf.begin() + seg.hi);
    for (uint32_t i = seg.lo; i < seg.hi; ++i) perm[i] = buf[i].second;
    for (uint32_t i = seg.lo; i < seg.hi;) {
      uint32_t j = i + 1;
      while (j < seg.hi && buf[j].first == buf[i].first) ++j;
      if (j - i > 1) {
        // Key collisions (distinct values mapping to one key) are rare;
        // detect them and finish such runs with the exact comparator.
        bool collided = false;
        for (uint32_t t = i + 1; t < j && !collided; ++t) {
          collided = !(cols[s][perm[t]] == cols[s][perm[i]]);
        }
        if (collided) {
          std::sort(perm.begin() + i, perm.begin() + j,
                    [&cols, s, steps](uint32_t a, uint32_t b) {
                      for (size_t t = s; t < steps; ++t) {
                        auto cmp = cols[t][a] <=> cols[t][b];
                        if (cmp != std::strong_ordering::equal) {
                          return cmp == std::strong_ordering::less;
                        }
                      }
                      return false;
                    });
        } else if (s + 1 < steps) {
          segs.push_back({i, j, s + 1});
        }
      }
      i = j;
    }
  }
  auto sorted = std::make_shared<Relation::SortedColumns>(steps);
  for (size_t s = 0; s < steps; ++s) {
    (*sorted)[s].reserve(nrows);
    for (uint32_t i : perm) (*sorted)[s].push_back(cols[s][i]);
  }
  return sorted;
}

// Per-branch cursor into one prepared relation.
struct RelState {
  int rel;   // index into prepared relations
  int step;  // next entry of node_path to consume
  int lo, hi;  // active row range [lo, hi)
};

class TrieBuilder {
 public:
  struct Frame {
    std::vector<RelState> here, waiting, routed;
    std::vector<int> ends;
    std::vector<FactPtr> kid_nodes;
    FactBuilder out;
  };

  TrieBuilder(const FTree& tree, const std::vector<const Relation*>& relations)
      : tree_(tree) {
    depth_.assign(tree.num_nodes(), 0);
    for (int n : tree.TopologicalOrder()) {
      depth_[n] = tree.parent(n) < 0 ? 0 : depth_[tree.parent(n)] + 1;
    }
    Prepare(relations);
  }

  // Per-thread build state: the arena new nodes freeze into plus one
  // scratch frame per recursion depth. The prepared relations and the
  // f-tree are shared read-only across contexts.
  struct Ctx {
    explicit Ctx(const FTree& tree, FactArena* a) : arena(a) {
      frames.resize(tree.num_nodes() + 1);
    }
    FactArena* arena;
    std::vector<Frame> frames;
    uint32_t cancel_poll = 0;  // PollCancel counter for BuildNode's loop
  };

  std::vector<FactPtr> BuildRoots(FactArena& arena) {
    Ctx ctx(tree_, &arena);
    std::vector<FactPtr> roots;
    bool empty = false;
    for (int root : tree_.roots()) {
      std::vector<RelState> routed = RouteInitial(root);
      FactPtr f = BuildNode(root, routed, 0, ctx);
      if (f->values.empty()) empty = true;
      roots.push_back(f);
    }
    if (empty) {
      // Normalise: the empty relation is represented by empty root unions.
      for (FactPtr& r : roots) r = FactArena::EmptyNode();
    }
    return roots;
  }

  /// Parallel build: the entries of each root union are scanned up front
  /// (one leapfrog pass that records, per matched root value, the row
  /// range of that value's run in every participating relation) and their
  /// child subtrees are built concurrently, each worker freezing nodes
  /// into its own private arena. The root unions themselves go into
  /// `main`, which must Adopt() every arena returned in `*worker_arenas`
  /// that allocated nodes. The produced factorisation is structurally
  /// identical to BuildRoots(): value order, pruning decisions and child
  /// wiring are all decided per candidate, independent of the number of
  /// threads executing — only which arena holds which subtree differs.
  std::vector<FactPtr> BuildRootsParallel(
      exec::TaskPool& pool, FactArena& main,
      std::vector<std::shared_ptr<FactArena>>* worker_arenas) {
    int parts = pool.num_threads();
    std::vector<std::shared_ptr<FactArena>> arenas;
    std::vector<Ctx> ctxs;
    ctxs.reserve(parts);
    for (int p = 0; p < parts; ++p) {
      arenas.push_back(std::make_shared<FactArena>());
      ctxs.emplace_back(tree_, arenas[p].get());
    }
    std::vector<FactPtr> roots;
    bool empty = false;
    for (int root : tree_.roots()) {
      std::vector<RelState> routed = RouteInitial(root);
      FactPtr f = BuildRootUnion(root, routed, pool, ctxs, main);
      if (f->values.empty()) empty = true;
      roots.push_back(f);
    }
    if (empty) {
      for (FactPtr& r : roots) r = FactArena::EmptyNode();
    }
    for (std::shared_ptr<FactArena>& a : arenas) {
      if (a->num_nodes() > 0) worker_arenas->push_back(std::move(a));
    }
    return roots;
  }

  /// Total prepared input rows — the work estimate FactoriseJoin gates
  /// the parallel path on (tiny query-time joins stay serial: spinning
  /// up per-worker arenas costs more than the build).
  int64_t TotalRows() const {
    int64_t total = 0;
    for (const PreparedRel& p : rels_) {
      total += static_cast<int64_t>(p.num_rows());
    }
    return total;
  }

  /// How many inputs came sorted from their relation's memo.
  int sorted_reused() const { return sorted_reused_; }

 private:
  std::vector<RelState> RouteInitial(int root) const {
    std::vector<RelState> routed;
    for (size_t r = 0; r < rels_.size(); ++r) {
      RelState s{static_cast<int>(r), 0, 0,
                 static_cast<int>(rels_[r].num_rows())};
      if (NextNodeIn(s, root)) routed.push_back(s);
    }
    return routed;
  }

  void Prepare(const std::vector<const Relation*>& relations) {
    for (const Relation* rel : relations) {
      PreparedRel p;
      // Map each attribute to its f-tree node; collect per-node columns.
      std::vector<std::pair<int, int>> node_col;  // (node, column position)
      for (int i = 0; i < rel->schema().arity(); ++i) {
        int n = tree_.NodeOfAttr(rel->schema().attr(i));
        if (n < 0) {
          throw std::invalid_argument(
              "FactoriseJoin: relation attribute missing from f-tree");
        }
        node_col.emplace_back(n, i);
      }
      std::stable_sort(node_col.begin(), node_col.end(),
                       [this](const auto& a, const auto& b) {
                         return depth_[a.first] < depth_[b.first];
                       });
      for (const auto& [n, col] : node_col) {
        if (p.node_path.empty() || p.node_path.back() != n) {
          p.node_path.push_back(n);
          p.node_cols.emplace_back();
        }
        p.node_cols.back().push_back(col);
      }
      // The nodes must form a chain (path constraint).
      for (size_t i = 1; i < p.node_path.size(); ++i) {
        if (!tree_.IsAncestor(p.node_path[i - 1], p.node_path[i])) {
          throw std::invalid_argument(
              "FactoriseJoin: relation attributes not on one root-to-leaf "
              "path of the f-tree");
        }
      }
      // A relation is sorted once per path order: later builds over the
      // same order reuse its memoised columns.
      p.cols = rel->FindSortedInput(p.node_cols);
      if (p.cols != nullptr) {
        ++sorted_reused_;
        SortedInputHits().Inc();
      } else {
        p.cols = SortPathColumns(*rel, p.node_cols);
        rel->StoreSortedInput(p.node_cols, p.cols);
        SortedInputMisses().Inc();
      }
      rels_.push_back(std::move(p));
    }
  }

  // True if the state's next unconsumed node lies in the subtree rooted at u.
  bool NextNodeIn(const RelState& s, int u) const {
    const PreparedRel& p = rels_[s.rel];
    if (s.step >= static_cast<int>(p.node_path.size())) return false;
    int n = p.node_path[s.step];
    return n == u || tree_.IsAncestor(u, n);
  }

  ValueRef ValueAt(const RelState& s, int row) const {
    return rels_[s.rel].col(s.step)[row];
  }

  // Advances s.lo to the first row in [lo, hi) with column value >= v,
  // galloping from the current cursor (runs of equal values are short, so
  // exponential probing beats a full-range binary search).
  int LowerBound(const RelState& s, ValueRef v) const {
    const ValueRef* col = rels_[s.rel].col(s.step).data();
    int lo = s.lo, hi = s.hi;
    if (lo >= hi || !(col[lo] < v)) return lo;
    int step = 1;
    while (lo + step < hi && col[lo + step] < v) {
      lo += step;
      step <<= 1;
    }
    // col[lo] < v, so the answer lies in (lo, min(hi, lo + step)].
    int right = std::min(hi, lo + step);
    ++lo;
    while (lo < right) {
      int mid = lo + (right - lo) / 2;
      if (col[mid] < v) {
        lo = mid + 1;
      } else {
        right = mid;
      }
    }
    return lo;
  }

  // One step of the sorted leapfrog intersection, shared by BuildNode
  // and the parallel root scan so the two paths cannot drift: advances
  // `here` to the next value every participant agrees on. On true, *cand
  // is that value, each here[i].lo sits at the start of its run and
  // ends[i] at the run's end; the caller moves lo to ends[i] once done
  // with the value. Returns false when any participant is exhausted.
  bool NextAgreedValue(std::vector<RelState>& here, ValueRef* cand,
                       std::vector<int>& ends) const {
    while (true) {
      for (const RelState& s : here) {
        if (s.lo >= s.hi) return false;
      }
      // Candidate: the maximum of the current heads.
      ValueRef c = ValueAt(here[0], here[0].lo);
      for (size_t i = 1; i < here.size(); ++i) {
        ValueRef v = ValueAt(here[i], here[i].lo);
        if (c < v) c = v;
      }
      // Advance everyone to >= c; restart if someone jumps past it.
      bool agreed = true;
      for (RelState& s : here) {
        s.lo = LowerBound(s, c);
        if (s.lo >= s.hi || !(ValueAt(s, s.lo) == c)) agreed = false;
      }
      if (!agreed) continue;
      // The end of each participant's run of `c`, computed once and
      // reused for every child slot and for the final advance.
      for (size_t i = 0; i < here.size(); ++i) {
        ends[i] = UpperBound(here[i], c);
      }
      *cand = c;
      return true;
    }
  }

  // First row in [lo, hi) with column value > v, galloping from the cursor.
  int UpperBound(const RelState& s, ValueRef v) const {
    const ValueRef* col = rels_[s.rel].col(s.step).data();
    int lo = s.lo, hi = s.hi;
    if (lo >= hi || v < col[lo]) return lo;
    int step = 1;
    while (lo + step < hi && !(v < col[lo + step])) {
      lo += step;
      step <<= 1;
    }
    int right = std::min(hi, lo + step);
    ++lo;
    while (lo < right) {
      int mid = lo + (right - lo) / 2;
      if (!(v < col[mid])) {
        lo = mid + 1;
      } else {
        right = mid;
      }
    }
    return lo;
  }

  // Builds the union at node u constrained by `states` (all of which have
  // their next node in u's subtree). Returns a (possibly empty) FactNode
  // frozen into the context's arena. Per-depth frames keep all scratch
  // state free of per-call allocation.
  FactPtr BuildNode(int u, const std::vector<RelState>& states, int depth,
                    Ctx& ctx) {
    Frame& fr = ctx.frames[depth];
    // Split the states into those constraining u itself and the waiters.
    fr.here.clear();
    fr.waiting.clear();
    for (const RelState& s : states) {
      if (rels_[s.rel].node_path[s.step] == u) {
        fr.here.push_back(s);
      } else {
        fr.waiting.push_back(s);
      }
    }
    if (fr.here.empty()) {
      throw std::invalid_argument(
          "FactoriseJoin: f-tree node not covered by any relation");
    }
    const std::vector<int>& kids = tree_.children(u);
    int k = static_cast<int>(kids.size());

    fr.out.clear();
    fr.kid_nodes.assign(k, nullptr);
    fr.ends.resize(fr.here.size());
    // Leapfrog-style sorted intersection over the participants.
    ValueRef cand;
    while (NextAgreedValue(fr.here, &cand, fr.ends)) {
      // Time/cancel poll for the serving layer's limits: this loop is the
      // build hot path (arena memory is charged separately in Allocate).
      exec::PollCancel(&ctx.cancel_poll);
      // Matched value `cand`: recurse into children with narrowed ranges.
      bool all_ok = true;
      for (int c = 0; c < k && all_ok; ++c) {
        fr.routed.clear();
        for (size_t i = 0; i < fr.here.size(); ++i) {
          RelState t = fr.here[i];
          t.step++;
          t.hi = fr.ends[i];
          // t.lo unchanged (rows with value == cand start here).
          if (NextNodeIn(t, kids[c])) fr.routed.push_back(t);
        }
        for (const RelState& s : fr.waiting) {
          if (NextNodeIn(s, kids[c])) fr.routed.push_back(s);
        }
        FactPtr f = BuildNode(kids[c], fr.routed, depth + 1, ctx);
        if (f->values.empty()) {
          all_ok = false;
        } else {
          fr.kid_nodes[c] = f;
        }
      }
      if (all_ok) {
        fr.out.values.push_back(cand);
        for (int c = 0; c < k; ++c) {
          fr.out.children.push_back(fr.kid_nodes[c]);
        }
      }
      // Move past `cand` in all participants.
      for (size_t i = 0; i < fr.here.size(); ++i) {
        fr.here[i].lo = fr.ends[i];
      }
    }
    return fr.out.Finish(*ctx.arena);
  }

  // One matched value of a root union: the row range of its run in every
  // `here` participant (waiting participants are unconstrained at the
  // root and shared by all candidates).
  struct RootCand {
    ValueRef v;
    std::vector<std::pair<int, int>> ranges;  // per here-state [lo, hi)
  };

  // Builds the union at root node u like BuildNode, but runs the
  // value-matching leapfrog as a standalone scan first and then builds
  // each matched value's child subtrees in parallel across the contexts.
  // Per-candidate results land in slots indexed by candidate, so the
  // assembled union is identical no matter how chunks map to threads.
  FactPtr BuildRootUnion(int u, const std::vector<RelState>& states,
                         exec::TaskPool& pool, std::vector<Ctx>& ctxs,
                         FactArena& main) {
    std::vector<RelState> here, waiting;
    for (const RelState& s : states) {
      if (rels_[s.rel].node_path[s.step] == u) {
        here.push_back(s);
      } else {
        waiting.push_back(s);
      }
    }
    if (here.empty()) {
      throw std::invalid_argument(
          "FactoriseJoin: f-tree node not covered by any relation");
    }
    const std::vector<int>& kids = tree_.children(u);
    int k = static_cast<int>(kids.size());

    // --- scan: the leapfrog of BuildNode without the recursion ----------
    std::vector<RootCand> cands;
    std::vector<int> ends(here.size());
    ValueRef cand;
    while (NextAgreedValue(here, &cand, ends)) {
      RootCand rc;
      rc.v = cand;
      rc.ranges.reserve(here.size());
      for (size_t i = 0; i < here.size(); ++i) {
        rc.ranges.emplace_back(here[i].lo, ends[i]);
      }
      cands.push_back(std::move(rc));
      for (size_t i = 0; i < here.size(); ++i) here[i].lo = ends[i];
    }

    // Routing of participants into child slots depends only on (rel,
    // step), so it is shared by every candidate.
    std::vector<std::vector<int>> here_route(k);
    std::vector<std::vector<RelState>> waiting_route(k);
    for (int c = 0; c < k; ++c) {
      for (size_t i = 0; i < here.size(); ++i) {
        RelState t = here[i];
        t.step++;
        if (NextNodeIn(t, kids[c])) here_route[c].push_back(int(i));
      }
      for (const RelState& s : waiting) {
        if (NextNodeIn(s, kids[c])) waiting_route[c].push_back(s);
      }
    }

    // --- fork: per-candidate subtree builds into worker arenas ----------
    int64_t n = static_cast<int64_t>(cands.size());
    std::vector<FactPtr> kid_results(cands.size() * k, nullptr);
    std::vector<uint8_t> ok(cands.size(), 0);
    pool.ParallelFor(n, /*grain=*/1, [&](int part, int64_t lo, int64_t hi) {
      Ctx& ctx = ctxs[part];
      std::vector<RelState> routed;
      for (int64_t ci = lo; ci < hi; ++ci) {
        const RootCand& rc = cands[ci];
        bool all_ok = true;
        for (int c = 0; c < k && all_ok; ++c) {
          routed.clear();
          for (int i : here_route[c]) {
            RelState t = here[i];
            t.step++;
            t.lo = rc.ranges[i].first;
            t.hi = rc.ranges[i].second;
            routed.push_back(t);
          }
          routed.insert(routed.end(), waiting_route[c].begin(),
                        waiting_route[c].end());
          FactPtr f = BuildNode(kids[c], routed, 0, ctx);
          if (f->values.empty()) {
            all_ok = false;
          } else {
            kid_results[ci * k + c] = f;
          }
        }
        ok[ci] = all_ok;
      }
    });

    // --- join: assemble the root union in candidate order ---------------
    FactBuilder out;
    for (size_t ci = 0; ci < cands.size(); ++ci) {
      if (!ok[ci]) continue;
      out.values.push_back(cands[ci].v);
      for (int c = 0; c < k; ++c) {
        out.children.push_back(kid_results[ci * k + c]);
      }
    }
    return out.Finish(main);
  }

  const FTree& tree_;
  std::vector<int> depth_;
  std::vector<PreparedRel> rels_;
  int sorted_reused_ = 0;
};

}  // namespace

namespace {
// Below this many total input rows a build is too small to fork.
constexpr int64_t kMinParallelBuildRows = 256;
}  // namespace

Factorisation FactoriseJoin(const FTree& tree,
                            const std::vector<const Relation*>& relations,
                            int* sorted_reused) {
  auto arena = std::make_shared<FactArena>();
  TrieBuilder b(tree, relations);
  if (sorted_reused != nullptr) *sorted_reused = b.sorted_reused();
  exec::TaskPool& pool = exec::TaskPool::Default();
  std::vector<FactPtr> roots;
  if (pool.num_threads() > 1 && b.TotalRows() >= kMinParallelBuildRows) {
    // Root union entries are built concurrently, each worker allocating
    // into a private arena the result adopts: workers never contend on
    // allocation, and subtrees handed over stay alive with the result.
    std::vector<std::shared_ptr<FactArena>> worker_arenas;
    roots = b.BuildRootsParallel(pool, *arena, &worker_arenas);
    for (const std::shared_ptr<FactArena>& a : worker_arenas) {
      arena->Adopt(a);
    }
  } else {
    roots = b.BuildRoots(*arena);
  }
  return Factorisation(tree, std::move(roots), std::move(arena));
}

Factorisation FactoriseRelation(const Relation& rel,
                                const std::vector<AttrId>& attr_order) {
  if (attr_order.size() != static_cast<size_t>(rel.schema().arity())) {
    throw std::invalid_argument(
        "FactoriseRelation: order must cover all attributes");
  }
  FTree tree;
  int parent = -1;
  for (AttrId a : attr_order) {
    parent = tree.AddNode({a}, parent);
  }
  Hyperedge e;
  e.attrs = attr_order;
  std::sort(e.attrs.begin(), e.attrs.end());
  e.weight = static_cast<double>(rel.size());
  e.name = "R";
  tree.AddEdge(std::move(e));
  return FactoriseJoin(tree, {&rel});
}

}  // namespace fdb
