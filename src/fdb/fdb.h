#ifndef FDB_FDB_H_
#define FDB_FDB_H_

/// Umbrella header for the FDB library: the factorised-database query
/// engine of "Aggregation and Ordering in Factorised Databases" (VLDB
/// 2013) together with its relational baseline and tooling. Include this
/// for application code (see examples/); library-internal code includes
/// the specific headers instead.

#include "fdb/core/build.h"          // IWYU pragma: export
#include "fdb/core/enumerate.h"      // IWYU pragma: export
#include "fdb/core/factorisation.h"  // IWYU pragma: export
#include "fdb/core/ftree.h"          // IWYU pragma: export
#include "fdb/core/order.h"          // IWYU pragma: export
#include "fdb/core/ops/aggregate.h"  // IWYU pragma: export
#include "fdb/core/ops/project.h"    // IWYU pragma: export
#include "fdb/core/ops/selection.h"  // IWYU pragma: export
#include "fdb/core/ops/swap.h"       // IWYU pragma: export
#include "fdb/core/stats.h"          // IWYU pragma: export
#include "fdb/core/update.h"         // IWYU pragma: export
#include "fdb/engine/csv.h"          // IWYU pragma: export
#include "fdb/engine/database.h"     // IWYU pragma: export
#include "fdb/engine/fdb_engine.h"   // IWYU pragma: export
#include "fdb/engine/rdb_engine.h"   // IWYU pragma: export
#include "fdb/obs/metrics.h"         // IWYU pragma: export
#include "fdb/obs/trace.h"           // IWYU pragma: export
#include "fdb/optimizer/exhaustive.h"  // IWYU pragma: export
#include "fdb/optimizer/greedy.h"    // IWYU pragma: export
#include "fdb/query/parser.h"        // IWYU pragma: export
#include "fdb/relational/rdb_ops.h"  // IWYU pragma: export
#include "fdb/serve/client.h"        // IWYU pragma: export
#include "fdb/serve/server.h"        // IWYU pragma: export
#include "fdb/workload/generator.h"  // IWYU pragma: export
#include "fdb/workload/random_db.h"  // IWYU pragma: export

#endif  // FDB_FDB_H_
