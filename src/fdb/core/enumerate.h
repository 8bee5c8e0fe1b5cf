#ifndef FDB_CORE_ENUMERATE_H_
#define FDB_CORE_ENUMERATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fdb/core/factorisation.h"
#include "fdb/core/ops/aggregate.h"

namespace fdb {

/// Constant-delay tuple enumerator over a factorisation (paper §4.1).
///
/// The enumerator maintains one iterator per f-tree node (a "hierarchy of
/// iterators in the parse tree"), visited in a fixed order in which parents
/// precede children. Successive tuples differ only in a suffix of that
/// order, so the delay between tuples is O(#nodes · branching) — constant in
/// data size. Because unions are kept sorted, tuples are emitted in
/// lexicographic order of the visit sequence, honouring the per-node
/// direction (ascending or descending); by Theorem 2 this realises any
/// order-by list whose attributes sit suitably high in the f-tree.
///
/// The enumerator snapshots the factorisation at construction: it pins
/// the arena and captures the root pointers, so persistent updates on the
/// source (which replace roots and may trigger generational compaction,
/// retiring old arenas) cannot invalidate an enumeration in progress — it
/// keeps enumerating the construction-time version. The Factorisation
/// object must still outlive the enumerator, and restructuring its f-tree
/// mid-enumeration remains unsupported.
class Enumerator {
 public:
  /// `visit_order` must contain every live node exactly once, parents before
  /// children; `dirs` is parallel to it.
  Enumerator(const Factorisation& f, std::vector<int> visit_order,
             std::vector<SortDir> dirs);

  /// Convenience: topological order, all ascending.
  explicit Enumerator(const Factorisation& f);

  /// Output columns: the attributes of the visited nodes, in visit order
  /// (an atomic class contributes all of its attributes).
  const RelSchema& schema() const { return schema_; }

  /// Makes Fill/FillFrom write the row `cols` instead of schema(): slot i
  /// receives attribute cols[i] (an attribute of schema(); it may repeat,
  /// and attributes not listed are never materialised). Throws
  /// std::invalid_argument for an attribute outside schema(). Must be
  /// called before the first Next().
  void SelectColumns(const std::vector<AttrId>& cols);

  /// Slots of the row Fill/FillFrom write: schema().arity(), or the
  /// SelectColumns list's length.
  int row_arity() const { return row_arity_; }

  /// Advances to the next tuple; the first call positions on the first one.
  /// Returns false when exhausted.
  bool Next();

  /// Writes the current tuple; `out` must have row_arity() slots.
  void Fill(Tuple* out) const;

  /// The first visit position whose binding changed in the last Next()
  /// (successive tuples differ only in a suffix of the visit order). After
  /// the first tuple this is 0.
  int ChangedFrom() const { return changed_from_; }

  /// Rewrites only the columns of positions >= from_pos; combined with
  /// ChangedFrom() this rehydrates each singleton once per change instead
  /// of once per tuple.
  void FillFrom(Tuple* out, int from_pos) const;

  /// Restricts enumeration to ranks [lo, hi) of the first visit
  /// position's union, where rank 0 is that position's first entry in its
  /// visit direction. Successive tuples differ in a suffix of the visit
  /// order, so partitioning the top union's ranks partitions the output
  /// into contiguous runs: enumerating [0,c1), [c1,c2), … and
  /// concatenating reproduces the unrestricted sequence exactly — the
  /// parallel enumeration hook. Must be called before the first Next().
  void RestrictRoot(int64_t lo, int64_t hi);

 private:
  friend class GroupAggEnumerator;

  struct Pos {
    int node = -1;
    int parent_pos = -1;  ///< index into order_, or -1 for roots
    int slot = 0;         ///< child slot in the parent node / root slot
    int k = 0;            ///< number of f-tree children of `node`
    std::vector<int> slots;  ///< row slots this node's value is written to
    SortDir dir = SortDir::kAsc;
    const FactNode* cur = nullptr;
    int idx = 0;
  };

  // Re-resolves position p from its parent's state and resets its index.
  void Reset(int p);

  const Factorisation* f_;
  // Construction-time snapshot: the arena pin keeps the nodes alive
  // across compaction, the captured roots keep Reset() off roots swapped
  // in (and possibly compacted away) by later updates.
  std::shared_ptr<const FactArena> arena_;
  std::vector<FactPtr> roots_;
  std::vector<Pos> order_;
  RelSchema schema_;
  int row_arity_ = 0;
  bool started_ = false;
  bool done_ = false;
  int changed_from_ = 0;
  // Rank window of position 0 (RestrictRoot) and the current rank within
  // it; root_hi_ < 0 means unbounded.
  int64_t root_lo_ = 0;
  int64_t root_hi_ = -1;
  int64_t root_rank_ = 0;
};

/// Enumerates the distinct bindings of a set of *grouping* nodes that form a
/// top fragment of the f-tree (each grouping node is a root or the child of
/// another grouping node — the Theorem 1 condition), while evaluating
/// aggregation tasks over the non-grouping subtrees on the fly (§1,
/// scenario 3). This is how FDB produces flat output for group-by aggregate
/// queries without materialising the aggregated factorisation. An empty
/// grouping set is a full aggregation: one group, the product of every root
/// tree, which exists even over the empty relation (count 0, NULL for
/// sum/min/max).
class GroupAggEnumerator {
 public:
  /// `visit_order`/`dirs` cover exactly the grouping nodes (parents first).
  /// `task_ids` provides the output attribute of each task's column.
  GroupAggEnumerator(const Factorisation& f, std::vector<int> visit_order,
                     std::vector<SortDir> dirs, std::vector<AggTask> tasks,
                     std::vector<AttrId> task_ids);

  const RelSchema& schema() const { return schema_; }
  int row_arity() const { return schema_.arity(); }
  bool Next();
  void Fill(Tuple* out) const;

  /// Restricts the grouping enumeration to ranks [lo, hi) of the first
  /// grouping position's union (see Enumerator::RestrictRoot). Groups
  /// never straddle the boundary: each top-union entry owns a contiguous
  /// run of groups, so chunked enumerations concatenate exactly.
  void RestrictRoot(int64_t lo, int64_t hi) { inner_.RestrictRoot(lo, hi); }

 private:
  Enumerator inner_;  // over the grouping nodes only
  std::vector<AggTask> tasks_;
  // One prepared evaluator per task: the Prop. 2 composition analysis runs
  // once here instead of once per emitted group.
  std::vector<ProductAggEvaluator> evaluators_;
  // Root trees containing no grouping node: constant frontier parts.
  std::vector<std::pair<int, const FactNode*>> fixed_parts_;
  // Child slots of grouping nodes that lead outside the grouping set:
  // (position in inner_.order_, slot).
  std::vector<std::pair<int, int>> frontier_slots_;
  // Scratch for Fill: fixed parts followed by the current frontier.
  mutable std::vector<std::pair<int, const FactNode*>> parts_;
  RelSchema schema_;
};

/// Receives an enumeration's output rows, in order. A parallel
/// enumeration fills one chunk sink per rank chunk of the top union,
/// concurrently, and appends the chunks back in rank order, so every sink
/// sees the same row sequence at any thread count.
class RowSink {
 public:
  virtual ~RowSink() = default;
  /// Called once, before the first row, with the output columns.
  virtual void Begin(const RelSchema& schema) = 0;
  /// One output row; the reference is valid only during the call. Returns
  /// whether the sink kept it: a filtering sink (HAVING) may drop rows,
  /// and an enumeration's limit counts kept rows only.
  virtual bool Add(const Tuple& row) = 0;
  /// A fresh sink for one rank chunk. Begin is never called on it; it is
  /// filled on a pool worker and handed back to AppendChunk.
  virtual std::unique_ptr<RowSink> NewChunk() = 0;
  /// Appends the rows of a sink this sink's NewChunk made.
  virtual void AppendChunk(std::unique_ptr<RowSink> chunk) = 0;
};

/// Collects the rows into a Relation.
class RelationSink : public RowSink {
 public:
  void Begin(const RelSchema& schema) override { rel_ = Relation(schema); }
  bool Add(const Tuple& row) override {
    rel_.Add(row);
    return true;
  }
  std::unique_ptr<RowSink> NewChunk() override {
    return std::make_unique<RelationSink>();
  }
  void AppendChunk(std::unique_ptr<RowSink> chunk) override;

  Relation& relation() { return rel_; }

 private:
  Relation rel_;
};

/// Enumerates `f` in the given visit order and directions into `sink`,
/// stopping once the sink has kept `limit` rows if provided (operator
/// λ_k), and returns the number of rows it kept. Each row is written once,
/// with the columns `out_cols` (attributes of the enumerated schema, in
/// output order; empty = every attribute in visit order).
///
/// Unlimited enumerations of large factorisations run in parallel on
/// TaskPool::Default(): the first visit position's union is split into
/// rank chunks, each worker enumerates its chunk with a root-restricted
/// Enumerator into a chunk sink, and the chunks are appended in rank
/// order — the output is identical (same rows, same order) for any thread
/// count. Every row passes the cancellation poll and memory charge of the
/// current exec::CancelToken, serial or parallel, whatever the sink.
int64_t EnumerateInto(const Factorisation& f,
                      const std::vector<int>& visit_order,
                      const std::vector<SortDir>& dirs,
                      std::optional<int64_t> limit,
                      const std::vector<AttrId>& out_cols, RowSink* sink);

/// EnumerateInto a RelationSink, all columns.
Relation EnumerateToRelation(const Factorisation& f,
                             const std::vector<int>& visit_order,
                             const std::vector<SortDir>& dirs,
                             std::optional<int64_t> limit = std::nullopt);

/// Enumerates the grouping fragment with on-the-fly aggregate evaluation
/// (GroupAggEnumerator) into `sink`: one row per group, the grouping
/// attributes in visit order followed by the task columns; an empty
/// `visit_order` is a full aggregation, one row even over empty input. Like
/// EnumerateInto it stops once the sink has kept `limit` rows, returns the
/// number kept, and splits unlimited enumerations into rank chunks — one
/// GroupAggEnumerator per chunk, each group's aggregates evaluated wholly
/// within the chunk that owns it — so the output is thread-count
/// independent.
int64_t GroupAggInto(const Factorisation& f,
                     const std::vector<int>& visit_order,
                     const std::vector<SortDir>& dirs,
                     const std::vector<AggTask>& tasks,
                     const std::vector<AttrId>& task_ids,
                     std::optional<int64_t> limit, RowSink* sink);

}  // namespace fdb

#endif  // FDB_CORE_ENUMERATE_H_
