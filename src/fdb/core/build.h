#ifndef FDB_CORE_BUILD_H_
#define FDB_CORE_BUILD_H_

#include <vector>

#include "fdb/core/factorisation.h"
#include "fdb/relational/relation.h"

namespace fdb {

/// Builds the factorisation of the natural join of `relations` over `tree`
/// (the materialised-view construction of paper §6).
///
/// `tree` must contain only atomic nodes, its attribute classes must cover
/// exactly the attributes of the relations, and each relation's attributes
/// must lie on a single root-to-leaf path (the path constraint, Prop. 1).
/// Attributes placed in the same class are equated (both across and within
/// relations). The construction is trie-style: each relation is sorted by
/// the root-to-leaf order of its attributes, and each union is produced by a
/// k-way sorted intersection of the participating relations, with empty
/// branches pruned. Runs in time Õ(input + output singletons).
///
/// Each relation is sorted once per path order: the sorted columns are
/// memoised in the relation (Relation::FindSortedInput) and reused by
/// later builds until the relation is mutated. If `sorted_reused` is
/// non-null it receives how many of `relations` were served from their
/// memo.
///
/// Throws std::invalid_argument if `tree` does not satisfy the requirements.
Factorisation FactoriseJoin(const FTree& tree,
                            const std::vector<const Relation*>& relations,
                            int* sorted_reused = nullptr);

/// Factorises a single relation over the path f-tree A₀ → A₁ → … given by
/// `attr_order` (which must be a permutation of the relation's attributes).
/// The resulting factorisation groups by A₀, then A₁, and so on — this is
/// how FDB represents a sorted relation (Experiment 4).
Factorisation FactoriseRelation(const Relation& rel,
                                const std::vector<AttrId>& attr_order);

}  // namespace fdb

#endif  // FDB_CORE_BUILD_H_
