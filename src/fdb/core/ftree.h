#ifndef FDB_CORE_FTREE_H_
#define FDB_CORE_FTREE_H_

#include <optional>
#include <string>
#include <vector>

#include "fdb/relational/agg.h"
#include "fdb/relational/schema.h"

namespace fdb {

/// Label of an aggregate f-tree node F(X) (paper §3.1).
///
/// An aggregate attribute carries along its aggregation function, the atomic
/// source attribute (for sum/min/max) and the set `over` of original
/// attributes it consumed, so that later aggregation operators can interpret
/// the stored value as a pre-computed aggregate of a relation over `over`
/// (Example 6) and apply the composition rules of Proposition 2.
struct AggregateLabel {
  AggFn fn = AggFn::kCount;
  /// The aggregated atomic attribute A for sum_A/min_A/max_A;
  /// kInvalidAttr for count.
  AttrId source = kInvalidAttr;
  /// The original atomic attributes X this aggregate ranges over (sorted).
  std::vector<AttrId> over;
  /// Fresh attribute id naming the aggregate result, e.g. "sum(price,item)".
  AttrId id = kInvalidAttr;
};

/// One node of an f-tree: either an equivalence class of atomic attributes
/// (non-empty `attrs`) or an aggregate attribute (`agg` set).
struct FTreeNode {
  /// Atomic attribute equivalence class, sorted; empty for aggregate nodes.
  std::vector<AttrId> attrs;
  std::optional<AggregateLabel> agg;
  int parent = -1;  ///< -1 for roots.
  std::vector<int> children;
  bool alive = true;

  bool is_aggregate() const { return agg.has_value(); }
  /// All attribute ids named by this node: the class or the aggregate id.
  std::vector<AttrId> AllAttrIds() const;
};

/// A dependency hyperedge: the attribute set of one input relation (or, after
/// projections/aggregations, a merged set). Two f-tree nodes are *dependent*
/// iff some hyperedge intersects both of their attribute-id sets; the path
/// constraint (Prop. 1) requires dependent nodes to share a root-to-leaf path.
struct Hyperedge {
  std::vector<AttrId> attrs;  ///< sorted attribute ids (atomic or aggregate)
  double weight = 1.0;        ///< relation size, used by the cost metric
  std::string name;           ///< originating relation, for diagnostics
};

/// A factorisation tree (Definition 2): a rooted forest whose nodes are
/// labelled by disjoint attribute classes or aggregate attributes, plus the
/// dependency hypergraph used to validate restructuring operators and to
/// compute size bounds.
///
/// Node ids are stable across mutations; removed nodes are tombstoned
/// (`alive == false`). The order of `roots()` and of each node's `children`
/// is significant: factorised data is aligned slot-by-slot with it.
class FTree {
 public:
  FTree() = default;

  /// Adds a node labelled by attribute class `attrs` under `parent`
  /// (-1 for a new root). Returns the node id.
  int AddNode(std::vector<AttrId> attrs, int parent);

  /// Adds an aggregate-labelled node under `parent` (-1 for a root).
  int AddAggregateNode(AggregateLabel label, int parent);

  /// Registers a dependency hyperedge (one per input relation). The
  /// attribute list is sorted and deduplicated.
  void AddEdge(Hyperedge edge);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const FTreeNode& node(int id) const { return nodes_[id]; }
  const std::vector<int>& roots() const { return roots_; }
  const std::vector<Hyperedge>& edges() const { return edges_; }
  int parent(int id) const { return nodes_[id].parent; }
  const std::vector<int>& children(int id) const {
    return nodes_[id].children;
  }

  /// All live node ids, parents before children (roots in order, then DFS).
  std::vector<int> TopologicalOrder() const;

  /// Node ids of the subtree rooted at `u` (including `u`), DFS preorder.
  std::vector<int> SubtreeNodes(int u) const;

  /// All attribute ids (atomic and aggregate) in the subtree rooted at `u`.
  std::vector<AttrId> SubtreeAttrIds(int u) const;

  /// The *original* atomic attributes of the subtree at `u`: atomic classes
  /// plus the `over` sets of aggregate nodes.
  std::vector<AttrId> SubtreeOriginalAttrs(int u) const;

  /// The live node whose class or aggregate id contains `a`, or -1.
  int NodeOfAttr(AttrId a) const;

  /// True if `anc` is a proper ancestor of `desc`.
  bool IsAncestor(int anc, int desc) const;

  /// The root of the tree containing `u`.
  int RootOf(int u) const;

  /// Position of `child` in its parent's children (or in roots()). Requires
  /// that `child` is live.
  int SlotOf(int child) const;

  /// True if some hyperedge intersects both nodes' attribute-id sets.
  bool NodesDependent(int x, int y) const;

  /// True if any node in the subtree rooted at `u` is dependent on node `y`
  /// (`y` outside the subtree).
  bool SubtreeDependsOn(int u, int y) const;

  /// Verifies the path constraint: every pair of dependent live nodes lies
  /// along a common root-to-leaf path. Returns false on violation.
  bool SatisfiesPathConstraint() const;

  // --- structural mutations used by the f-plan operators -----------------
  // These keep `children` slot order deterministic; the corresponding data
  // transformations in core/ops mirror the same slot edits.

  /// Swap operator χ(A,B) on the tree (paper §4.2): `b` (child of `a`)
  /// takes `a`'s place; `a` becomes the last child of `b`; children of `b`
  /// whose subtrees depend on `a` move below `a` (appended after `a`'s own
  /// children); the rest stay below `b`.
  /// Returns the indices (into b's former children) that moved under `a`.
  std::vector<int> SwapUp(int b);

  /// Merge operator: sibling (or both-root) node `b` is merged into `a`:
  /// `a` absorbs `b`'s attribute class and children (appended); `b` dies.
  void MergeSiblings(int a, int b);

  /// Absorb operator: descendant node `b` is absorbed into ancestor `a`:
  /// `a` absorbs `b`'s class; `b`'s children are appended to `b`'s parent's
  /// children (replacing `b`'s slot); `b` dies.
  void AbsorbDescendant(int a, int b);

  /// Replaces the subtree rooted at `u` by fresh aggregate leaf nodes (one
  /// per label) in `u`'s slot position (first label takes the slot, the rest
  /// are appended after it). Merges all hyperedges intersecting the subtree
  /// into one per new label. Returns the new node ids.
  std::vector<int> ReplaceSubtreeWithAggregates(
      int u, std::vector<AggregateLabel> labels);

  /// Removes a leaf node (projection). Requires `u` live with no children.
  void RemoveLeaf(int u);

  /// Renames the aggregate attribute of node `u` to fresh id `new_id`.
  void RenameAggregate(int u, AttrId new_id);

  /// One deserialised node as parsed by the snapshot reader (storage/):
  /// either an aggregate (agg set) or an atomic class (attrs; empty means
  /// a tombstoned node that lost its class).
  struct RestoredNode {
    bool alive = true;
    int parent = -1;
    std::optional<AggregateLabel> agg;
    std::vector<AttrId> attrs;
    std::vector<int> children;
  };

  /// Rebuilds a forest from deserialised nodes: creates them in id order
  /// (preserving ids), restores wiring wholesale and validates it with
  /// ValidateWiring. `agg.over` sets are re-sorted defensively; tombstoned
  /// atomic nodes that lost their class get a placeholder interned in
  /// `reg` (never observed through the public API). The reader keeps its
  /// format-specific parsing and range checks; the rebuild-and-validate
  /// dance lives only here. Throws std::invalid_argument on inconsistent
  /// wiring.
  static FTree Restore(std::vector<RestoredNode> nodes,
                       std::vector<int> roots, AttributeRegistry* reg);

  /// Structural soundness check for wiring read from untrusted input:
  /// all root/child ids in range, roots live with parent -1, every child's
  /// parent field matches, each node reached at most once (no sharing, no
  /// cycles), every live node reachable from the roots, and tombstoned
  /// nodes childless. Guarantees that the traversal/ancestor walks used by
  /// the rest of the engine terminate. Returns false and fills *why on
  /// violation; never indexes out of range itself.
  bool ValidateWiring(std::string* why = nullptr) const;

  /// Renders the forest, e.g. for test diagnostics.
  std::string ToString(const AttributeRegistry& reg) const;

 private:
  void CollectSubtree(int u, std::vector<int>* out) const;

  std::vector<FTreeNode> nodes_;
  std::vector<int> roots_;
  std::vector<Hyperedge> edges_;
};

}  // namespace fdb

#endif  // FDB_CORE_FTREE_H_
