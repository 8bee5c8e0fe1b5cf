#ifndef FDB_CORE_STATS_H_
#define FDB_CORE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fdb/core/factorisation.h"

namespace fdb {

/// Per-f-tree-node statistics of a factorisation: how many union instances
/// the node has, how many singletons they hold, and the largest/average
/// union size. These are the exact quantities the size bounds of [22]
/// approximate, and what the cost metric (optimizer/cost.h) predicts.
struct FactNodeStats {
  int node = -1;
  int64_t unions = 0;
  int64_t singletons = 0;
  int64_t max_union = 0;
  double avg_union = 0.0;
};

/// Computes statistics for every live node, in topological order.
std::vector<FactNodeStats> ComputeFactStats(const Factorisation& f);

/// Whole-factorisation size summary for observability: distinct union
/// nodes and singletons (DAG-aware — shared subexpressions counted once),
/// the represented flat relation's tuple/value counts, the bytes its arena
/// chain pins (worker arenas a parallel build adopted included), and
/// the paper's headline compression ratio (flat values per stored
/// singleton).
struct FactFootprint {
  int64_t unions = 0;      ///< distinct union nodes reachable from the roots
  int64_t singletons = 0;  ///< distinct stored singletons (size measure)
  int64_t tuples = 0;      ///< tuples in the represented relation
  int64_t flat_values = 0; ///< tuples x output arity
  int64_t arena_bytes = 0; ///< bytes its arena chain pins (chain_bytes)

  double CompressionRatio() const {
    return singletons == 0
               ? 0.0
               : static_cast<double>(flat_values) /
                     static_cast<double>(singletons);
  }
};

FactFootprint ComputeFootprint(const Factorisation& f);

/// Renders a small table, e.g. for EXPLAIN-style diagnostics.
std::string FactStatsToString(const Factorisation& f,
                              const AttributeRegistry& reg);

}  // namespace fdb

#endif  // FDB_CORE_STATS_H_
