#ifndef FDB_CORE_FACTORISATION_H_
#define FDB_CORE_FACTORISATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fdb/core/fact_arena.h"
#include "fdb/core/ftree.h"
#include "fdb/relational/relation.h"
#include "fdb/relational/value_dict.h"

namespace fdb {

/// Builds a leaf union from sorted distinct boxed values, encoding them
/// through the default dictionary into the scratch arena (convenience for
/// tests and ad-hoc construction; engine paths build into explicit arenas).
FactPtr MakeLeaf(const std::vector<Value>& values);

/// Builds a union with children; `k` children per value, flattened.
FactPtr MakeNode(const std::vector<Value>& values,
                 const std::vector<FactPtr>& children);

/// Arena variant of MakeLeaf.
FactPtr MakeLeafIn(FactArena& arena, const std::vector<Value>& values);

/// A factorised representation of a relation: an f-tree plus one union per
/// f-tree root (their product). A factorisation with `empty() == true`
/// represents the empty relation; one with zero roots represents the
/// relation {()} containing just the nullary tuple.
///
/// The data nodes live in the attached FactArena (shared between
/// factorisations that share subexpressions). Singletons are stored as
/// dictionary-encoded ValueRefs; operators compare raw codes and values are
/// rehydrated to boxed `Value`s only at the Flatten/enumeration boundary.
class Factorisation {
 public:
  Factorisation() = default;
  /// Roots built without an explicit arena (scratch-backed constructors).
  Factorisation(FTree tree, std::vector<FactPtr> roots)
      : tree_(std::move(tree)),
        roots_(std::move(roots)),
        arena_(FactArena::Scratch()) {}
  /// Takes `arena`'s chain size as the live watermark: a factorisation
  /// is built into its arena, so the arena holds no garbage yet.
  Factorisation(FTree tree, std::vector<FactPtr> roots,
                std::shared_ptr<FactArena> arena)
      : tree_(std::move(tree)),
        roots_(std::move(roots)),
        arena_(std::move(arena)),
        compacted_bytes_(arena_ == nullptr ? -1 : arena_->chain_bytes()) {}

  const FTree& tree() const { return tree_; }
  FTree& mutable_tree() { return tree_; }
  const std::vector<FactPtr>& roots() const { return roots_; }
  std::vector<FactPtr>& mutable_roots() { return roots_; }

  /// The arena holding (or keeping alive) this factorisation's nodes.
  const std::shared_ptr<FactArena>& arena() const { return arena_; }

  /// The arena for a mutating operator to allocate result nodes into.
  /// Reuses the attached arena when this factorisation is its sole owner;
  /// otherwise (the arena is shared with another factorisation, e.g. a
  /// materialised view this is a copy of) switches to a fresh arena that
  /// keeps the old one alive, so views never accumulate per-query garbage.
  FactArena& ArenaForWrite();

  /// Generational compaction: copies every node reachable from the roots
  /// into a fresh arena and drops the old one (and, transitively, every
  /// arena it kept alive), so dead node versions left behind by persistent
  /// updates and op chains stop pinning memory. DAG sharing is preserved
  /// (shared subexpressions are copied once); the represented relation is
  /// unchanged. Copies of this factorisation that share the old arena keep
  /// it alive and are unaffected. Records the fresh arena's size as the
  /// live-data watermark that MaybeCompact() measures garbage against.
  void Compact();

  /// Compacts when the whole arena chain has grown past 4x the last known
  /// live size (plus fixed slack, so small views never bother), or holds
  /// more than kMaxChainArenas arenas. The chain, not just the attached
  /// arena, is what counts: a published view is updated on a copy
  /// (Database commits), so every commit writes into a fresh arena
  /// that adopts all earlier ones. The first call on a factorisation
  /// with no watermark yet (scratch-backed) records the current size as
  /// the baseline. Returns true if it compacted. Called by the update
  /// path after each mutation.
  bool MaybeCompact();

  /// Longest arena chain MaybeCompact lets a factorisation keep. Each
  /// commit on a published view copies the chain's parent list into its
  /// fresh arena, so this bounds per-commit adopt work and the lists'
  /// memory even when commits are too small to trip the byte trigger.
  static constexpr size_t kMaxChainArenas = 256;

  /// True if this factorisation represents the empty relation.
  bool empty() const;

  /// Number of singletons (values) in the representation — the paper's
  /// measure of factorisation size.
  int64_t CountSingletons() const;

  /// Number of tuples in the represented relation (via the count algorithm,
  /// ignoring aggregate-node interpretations: each entry counts 1).
  int64_t CountTuples() const;

  /// The output schema: all attributes of all live nodes in topological
  /// order (each atomic class contributes all of its attributes; aggregate
  /// nodes contribute their result attribute).
  RelSchema OutputSchema() const;

  /// Flattens into a relation over OutputSchema() by enumeration.
  Relation Flatten() const;

  /// Structural validation against the f-tree: shape, sortedness, pruning
  /// invariants. Returns false (and fills *why) on violation.
  bool Validate(std::string* why = nullptr) const;

  /// Renders the factorised expression, e.g.
  /// "(<1>x(<2>u<3>) u <4>x(<5>))" for debugging small instances.
  std::string ToString(const AttributeRegistry& reg) const;

 private:
  FTree tree_;
  std::vector<FactPtr> roots_;
  std::shared_ptr<FactArena> arena_;
  // Live bytes at the last compaction/rebuild; -1 = never measured.
  int64_t compacted_bytes_ = -1;
};

}  // namespace fdb

#endif  // FDB_CORE_FACTORISATION_H_
