#ifndef FDB_CHECK_CHECK_H_
#define FDB_CHECK_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fdb {

class Database;
class Factorisation;
class ValueDict;

namespace serve {
class AdmissionController;
}  // namespace serve

namespace check {

/// One invariant violation: which check tripped and what it saw. Check
/// names are stable identifiers (tests and triage key on them):
///
///   view-structure     Factorisation::Validate failed (shape/sortedness)
///   null-child         a union carries a null child pointer
///   node-cycle         the node graph reaches a node already on the path
///   arena-ownership    a reachable node's memory is pinned by no arena
///                      in the view's adopt chain (cross-arena leak or
///                      dangling pointer)
///   dict-rank-range    a string's rank is out of [0, #strings)
///   dict-rank-duplicate two codes share one rank
///   dict-rank-order    rank order disagrees with string order
///   admission-counters active/queued outside their configured bounds
///   chain-envelope     the base's header/table fails validation, or a
///                      `<path>.delta-1` of an older build lies beside it
///   section-crc        a base section's CRC32 does not match
///   wal-chain-stamp    the WAL header is stamped for a different base
struct Issue {
  std::string check;
  std::string detail;
};

/// The result of a validation pass: every issue found plus coverage
/// counters (so "clean" is distinguishable from "looked at nothing").
struct Report {
  std::vector<Issue> issues;
  uint64_t nodes_visited = 0;
  uint64_t views_checked = 0;
  uint64_t files_checked = 0;

  bool ok() const { return issues.empty(); }
  void Add(const std::string& check, const std::string& detail);
  std::string ToString() const;
};

/// True when deep checking is switched on: the FDB_CHECK environment
/// variable (any value but "0"), or a build compiled with -DFDB_CHECK
/// (Debug builds) unless the environment explicitly sets FDB_CHECK=0.
bool Enabled();

/// Deep-validates one factorised view: structural invariants (via
/// Factorisation::Validate), then a full node-graph walk checking for
/// null children, cycles, and nodes whose memory is not pinned by the
/// view's arena adopt chain.
void CheckView(const std::string& name, const Factorisation& f, Report* out);

/// Validates the dictionary's rank permutation: every rank in range,
/// assigned once, and ordering codes exactly like their strings.
void CheckDictionary(const ValueDict& dict, Report* out);

/// Validates the admission controller's counters against its config
/// (a drift means a lost or double Release()).
void CheckAdmission(const serve::AdmissionController& ac, Report* out);

/// Checks the files at snapshot `path`: the base's envelope and
/// per-section CRCs, no leftover delta file of an older build, and —
/// with `check_wal` — the WAL header's epoch binding to the base.
void CheckChainFiles(const std::string& path, Report* out,
                     bool check_wal = true);

/// Runs every applicable check against `db`: all views, the dictionary,
/// and — when the database has saved a base — the files at its path.
Report ValidateDatabase(const Database& db);

/// ValidateDatabase, throwing std::runtime_error with the report when it
/// is not clean. The FDB_CHECK auto-hooks (Database::Open, Checkpoint)
/// call this so corruption fails fast instead of propagating.
void ValidateDatabaseOrThrow(const Database& db);

}  // namespace check
}  // namespace fdb

#endif  // FDB_CHECK_CHECK_H_
