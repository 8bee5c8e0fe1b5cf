#ifndef FDB_CORE_FACT_ARENA_H_
#define FDB_CORE_FACT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fdb/relational/value_dict.h"

namespace fdb {

struct FactNode;
/// Factorised data is immutable and shared: operators build new nodes and
/// share untouched subexpressions. Nodes are plain pointers into a
/// FactArena; the owning Factorisation keeps the arena (and, transitively,
/// every arena it shares nodes with) alive via shared_ptr.
using FactPtr = const FactNode*;

/// A read-only view over the values of one union, contiguous in its arena.
struct ValueSpan {
  const ValueRef* ptr = nullptr;
  uint32_t len = 0;

  const ValueRef* begin() const { return ptr; }
  const ValueRef* end() const { return ptr + len; }
  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  const ValueRef& operator[](size_t i) const { return ptr[i]; }
  const ValueRef& front() const { return ptr[0]; }
  const ValueRef& back() const { return ptr[len - 1]; }
};

/// A read-only view over the flattened child matrix of one union.
struct ChildSpan {
  const FactNode* const* ptr = nullptr;
  uint32_t len = 0;

  const FactNode* const* begin() const { return ptr; }
  const FactNode* const* end() const { return ptr + len; }
  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  FactPtr operator[](size_t i) const { return ptr[i]; }
};

/// The factorised data attached to one f-tree node instance: the union
/// ⋃_i ⟨A:vᵢ⟩ × E_{i,0} × … × E_{i,k-1}, where k is the number of f-tree
/// children of the node and E_{i,c} is the child union for value vᵢ and
/// f-tree child slot c.
///
/// Invariants: `values` is sorted ascending with no duplicates (paper §4.1);
/// `children.size() == values.size() * k`; no child pointer is null or
/// empty (empty branches are pruned by the operators; only whole roots of a
/// Factorisation may be empty, representing ∅). The header and both arrays
/// live in one contiguous arena block.
struct FactNode {
  ValueSpan values;
  ChildSpan children;

  int size() const { return static_cast<int>(values.size()); }
  FactPtr child(int i, int k, int c) const {
    return children[static_cast<size_t>(i) * k + c];
  }
};

/// Bump-pointer storage for FactNodes. Each node is one allocation holding
/// the header, its value array and its child array back to back, so a
/// union scan touches one contiguous block instead of three heap objects.
/// Allocation never frees individually: operators append new versions and
/// whole arenas die with the last Factorisation that references them.
/// Long op/update chains reclaim dead versions via generational compaction
/// (Factorisation::Compact copies the live roots, wherever in the arena
/// chain they live, into a fresh arena).
///
/// storage::MappedArena subclasses this to serve nodes straight out of an
/// mmapped snapshot segment; new nodes allocated into such an arena (e.g.
/// by updates on an opened view) land in ordinary heap chunks as usual.
class FactArena {
 public:
  FactArena() = default;
  virtual ~FactArena() = default;
  FactArena(const FactArena&) = delete;
  FactArena& operator=(const FactArena&) = delete;

  /// Copies the given arrays into the arena and returns the new node.
  /// Returns EmptyNode() when nv == 0 && nk == 0 (no allocation).
  FactPtr NewNode(const ValueRef* vals, size_t nv, const FactPtr* kids,
                  size_t nk);

  /// Keeps `other` (and everything it adopted) alive as long as this arena
  /// lives; call when new nodes reference nodes owned by `other`. Linear in
  /// the two parent lists.
  void Adopt(const std::shared_ptr<const FactArena>& other);

  /// Number of arenas this one keeps alive: the length of the chain
  /// behind it.
  size_t num_adopted() const { return parents_.size(); }

  /// Bytes allocated by this arena and every arena it keeps alive (each
  /// adopted arena counted at its size when adopted): the memory a
  /// factorisation on this arena pins. The compaction policy measures
  /// garbage against it.
  int64_t chain_bytes() const { return bytes_ + adopted_bytes_; }

  /// True if `node`'s header lies inside memory this arena itself
  /// allocated (not its adopted parents). Subclasses with out-of-chunk
  /// node storage (MappedArena) extend the test to it. An O(#chunks)
  /// probe for the invariant checker, not a hot path.
  virtual bool OwnsNodeMemory(const FactNode* node) const;

  /// True if `node` is the canonical empty union, owned by this arena,
  /// or owned by any arena this one keeps alive — i.e. the node cannot
  /// dangle while this arena lives. The checker's reachability test for
  /// cross-arena leaks.
  bool ChainOwnsNode(FactPtr node) const;

  /// The canonical empty union (static storage; never in any arena).
  static FactPtr EmptyNode();

  /// A process-wide immortal arena backing ad-hoc nodes built without an
  /// explicit arena (MakeLeaf/MakeNode convenience constructors, tests).
  static const std::shared_ptr<FactArena>& Scratch();

  int64_t bytes_used() const { return bytes_; }
  int64_t num_nodes() const { return nodes_; }

 protected:
  // Subclasses with out-of-chunk node storage (MappedArena) account for it
  // here so bytes_used()/num_nodes() stay meaningful for stats and the
  // compaction policy.
  int64_t bytes_ = 0;
  int64_t nodes_ = 0;

 private:
  void* Allocate(size_t bytes);

  static constexpr size_t kFirstChunk = size_t{1} << 12;
  static constexpr size_t kMaxChunk = size_t{1} << 20;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<size_t> chunk_sizes_;  ///< capacity of each chunk
  std::vector<std::shared_ptr<const FactArena>> parents_;
  int64_t adopted_bytes_ = 0;  ///< sum of parents_' bytes when adopted
  size_t used_ = 0;
  size_t cap_ = 0;
};

/// Scratch vectors for assembling one union before freezing it into an
/// arena. Reusable: Finish() does not clear; call clear() between unions.
struct FactBuilder {
  std::vector<ValueRef> values;
  std::vector<FactPtr> children;

  void clear() {
    values.clear();
    children.clear();
  }
  bool empty() const { return values.empty(); }

  /// Freezes into `arena` (or returns the canonical empty node).
  FactPtr Finish(FactArena& arena) const {
    return arena.NewNode(values.data(), values.size(), children.data(),
                         children.size());
  }
};

}  // namespace fdb

#endif  // FDB_CORE_FACT_ARENA_H_
