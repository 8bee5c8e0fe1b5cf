#ifndef FDB_CORE_UPDATE_H_
#define FDB_CORE_UPDATE_H_

#include "fdb/core/factorisation.h"

namespace fdb {

/// Incremental maintenance of *single-relation* factorised views (sorted
/// tries built by FactoriseRelation, e.g. the materialised orders R2/R3 of
/// Experiment 4). ApplyBatch is the one update algorithm: a batch of
/// inserts and deletes walks the root-to-leaf paths of its tuples,
/// rebuilding only the unions along them (path copying; all untouched
/// siblings stay shared). Database commits run it on a copy of each
/// affected view's current version; a one-op batch is a single-tuple
/// insert or delete.
///
/// The view's f-tree must be a single path of atomic single-attribute
/// nodes — the shape FactoriseRelation produces. Joins of several
/// relations need re-factorisation (incremental maintenance of factorised
/// join views is future work beyond the paper).

/// True if the view contains the tuple (O(depth · log union size)).
bool ContainsTuple(const Factorisation& f, const Tuple& tuple);

/// One mutation in a batch: insert (`insert == true`) or delete of `tuple`.
struct BatchOp {
  bool insert = true;
  Tuple tuple;
};

/// Applies `ops` (tuples over `f`'s OutputSchema order, i.e. the path
/// order) with sequential semantics — the result is exactly what applying
/// them one at a time would produce: inserting a present tuple or
/// deleting an absent one is a no-op, and emptied unions are pruned up
/// the path. Rebuilds each affected union once per batch instead of once
/// per op: the final membership of every key is resolved first (last op
/// wins), then one sorted merge walks the trie alongside the sorted
/// batch. A commit group of k tuples sharing a root prefix copies that
/// prefix once, not k times, and untouched subtrees keep their node
/// identity (shared with the previous version).
/// Throws std::invalid_argument on shape/arity mismatch, in which case
/// the view is unchanged (validation happens before any mutation).
void ApplyBatch(Factorisation* f, const std::vector<BatchOp>& ops);

}  // namespace fdb

#endif  // FDB_CORE_UPDATE_H_
