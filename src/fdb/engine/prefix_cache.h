#ifndef FDB_ENGINE_PREFIX_CACHE_H_
#define FDB_ENGINE_PREFIX_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "fdb/base/thread_annotations.h"
#include "fdb/core/factorisation.h"
#include "fdb/optimizer/fplan.h"

namespace fdb {

/// A byte-bounded cache of f-plan prefixes over published view versions.
/// Restructuring a factorisation (swaps, partial aggregates; paper §3,
/// §5) is the expensive part of a query over a view, and a published
/// view version never changes. So the cache maps (view, version, a
/// proper prefix of an f-plan's ops) to the factorisation that prefix
/// produces, and a statement whose plan starts with a cached prefix
/// replays only the ops after it. The plan's final op and the
/// enumeration always run: this caches restructured inputs, never
/// results.
///
/// An entry holds its version's shared_ptr. A hit requires pointer
/// equality with the caller's snapshot, and the held pointer keeps the
/// address from being reused by a later version. Entries share arenas
/// with their version and with each other; a hit hands out a copy,
/// whose next operator allocates into a fresh arena
/// (Factorisation::ArenaForWrite), so an entry is never mutated.
///
/// An entry costs the bytes its arena chain holds beyond its version's,
/// plus a fixed bookkeeping charge. Least-recently-used entries are
/// evicted while the total exceeds the budget. Thread-safe.
class PrefixCache {
 public:
  /// The byte budget of every Database's cache.
  static constexpr int64_t kBudgetBytes = int64_t{64} << 20;

  /// A budget other than kBudgetBytes exists only for tests that force
  /// eviction.
  explicit PrefixCache(int64_t budget_bytes = kBudgetBytes);

  int64_t budget() const { return budget_; }

  /// Copies the factorisation after the longest cached proper prefix of
  /// `plan` over `version` of `view` into *f and returns the prefix's
  /// length; returns 0 and leaves *f alone on a miss.
  size_t Restore(const std::string& view,
                 const std::shared_ptr<const Factorisation>& version,
                 const FPlan& plan, Factorisation* f) EXCLUDES(mu_);

  /// Caches `f` as the result of the first `len` ops of `plan` over
  /// `version` of `view`. A no-op unless `len` is a proper, non-empty
  /// prefix; also when the prefix is cached already, when Publish has
  /// superseded `version`, or when the entry alone exceeds the budget.
  void Insert(const std::string& view,
              const std::shared_ptr<const Factorisation>& version,
              const FPlan& plan, size_t len, const Factorisation& f)
      EXCLUDES(mu_);

  /// Records `version` as the current version of `view` and drops the
  /// entries of every other version of it. Only releases memory sooner:
  /// a stale entry could never hit anyway.
  void Publish(const std::string& view, const Factorisation* version)
      EXCLUDES(mu_);

  /// Drops every entry.
  void Clear() EXCLUDES(mu_);

  /// Bytes charged by the live entries.
  int64_t bytes() const EXCLUDES(mu_);
  /// Number of live entries.
  size_t size() const EXCLUDES(mu_);

 private:
  struct Entry {
    std::string view;
    std::shared_ptr<const Factorisation> version;
    FPlan prefix;
    Factorisation fact;
    size_t hash = 0;
    int64_t bytes = 0;
  };
  using Lru = std::list<Entry>;  // front = most recently used

  // Unlinks `it` from the index and moves it into `*out`, whose
  // destruction (outside mu_) releases the entry's arenas.
  void UnlinkLocked(Lru::iterator it, Lru* out) REQUIRES(mu_);

  const int64_t budget_;
  mutable base::Mutex mu_;
  Lru lru_ GUARDED_BY(mu_);
  std::unordered_multimap<size_t, Lru::iterator> index_ GUARDED_BY(mu_);
  // The version Publish last recorded per view; Insert refuses others.
  std::map<std::string, const Factorisation*> current_ GUARDED_BY(mu_);
  int64_t bytes_ GUARDED_BY(mu_) = 0;
};

}  // namespace fdb

#endif  // FDB_ENGINE_PREFIX_CACHE_H_
