#include "fdb/engine/prefix_cache.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "fdb/obs/metrics.h"

namespace fdb {
namespace {

// Charged per entry on top of its arena bytes: the key's ops, the f-tree
// and roots copies. Keeps the entry count bounded even when a prefix
// allocates no nodes (a rename, a selection on an empty view).
constexpr int64_t kEntryOverheadBytes = 1024;

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Gauge& bytes;
};

CacheMetrics& Metrics() {
  obs::Registry& r = obs::Registry::Instance();
  static CacheMetrics m{
      r.GetCounter("engine.prefix_cache.hits", "stmts",
                   "statements that resumed from a cached f-plan prefix"),
      r.GetCounter("engine.prefix_cache.misses", "stmts",
                   "cacheable statements that found no cached prefix"),
      r.GetCounter("engine.prefix_cache.evictions", "entries",
                   "prefix entries evicted by the byte budget"),
      r.GetGauge("engine.prefix_cache.bytes", "bytes",
                 "bytes charged by the prefix cache's entries")};
  return m;
}

size_t Mix(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

size_t OpHash(const FOp& op) {
  size_t h = static_cast<size_t>(op.kind);
  h = Mix(h, static_cast<size_t>(op.a));
  h = Mix(h, static_cast<size_t>(op.b));
  h = Mix(h, static_cast<size_t>(op.cmp));
  h = Mix(h, op.constant.Hash());
  for (const AggTask& t : op.tasks) {
    h = Mix(h, static_cast<size_t>(t.fn));
    h = Mix(h, static_cast<size_t>(t.source));
  }
  return Mix(h, std::hash<std::string>()(op.rename_to));
}

// hashes[len] keys the first `len` ops of `plan` over `version` of `view`,
// for every len in [0, n].
std::vector<size_t> PrefixHashes(const std::string& view,
                                 const Factorisation* version,
                                 const FPlan& plan, size_t n) {
  std::vector<size_t> hashes(n + 1);
  hashes[0] = Mix(std::hash<std::string>()(view),
                  std::hash<const Factorisation*>()(version));
  for (size_t i = 0; i < n; ++i) {
    hashes[i + 1] = Mix(hashes[i], OpHash(plan[i]));
  }
  return hashes;
}

int64_t ChainBytes(const Factorisation& f) {
  return f.arena() == nullptr ? 0 : f.arena()->chain_bytes();
}

}  // namespace

PrefixCache::PrefixCache(int64_t budget_bytes) : budget_(budget_bytes) {
  Metrics();  // registers the catalogue's names with the first database
}

size_t PrefixCache::Restore(
    const std::string& view,
    const std::shared_ptr<const Factorisation>& version, const FPlan& plan,
    Factorisation* f) {
  if (version == nullptr || plan.size() < 2) return 0;
  std::vector<size_t> hashes =
      PrefixHashes(view, version.get(), plan, plan.size() - 1);
  std::optional<Factorisation> hit;
  size_t found = 0;
  {
    base::MutexLock g(&mu_);
    for (size_t len = plan.size() - 1; len > 0 && found == 0; --len) {
      auto [lo, hi] = index_.equal_range(hashes[len]);
      for (auto it = lo; it != hi; ++it) {
        const Entry& e = *it->second;
        if (e.version == version && e.prefix.size() == len &&
            e.view == view &&
            std::equal(e.prefix.begin(), e.prefix.end(), plan.begin())) {
          lru_.splice(lru_.begin(), lru_, it->second);
          hit = e.fact;
          found = len;
          break;
        }
      }
    }
  }
  if (!hit.has_value()) {
    Metrics().misses.Inc();
    return 0;
  }
  Metrics().hits.Inc();
  *f = *std::move(hit);
  return found;
}

void PrefixCache::Insert(const std::string& view,
                         const std::shared_ptr<const Factorisation>& version,
                         const FPlan& plan, size_t len,
                         const Factorisation& f) {
  if (version == nullptr || len == 0 || len >= plan.size()) return;
  int64_t cost = kEntryOverheadBytes +
                 std::max<int64_t>(0, ChainBytes(f) - ChainBytes(*version));
  if (cost > budget_) return;
  size_t hash = PrefixHashes(view, version.get(), plan, len)[len];
  // Built (and, if refused, destroyed) outside the lock.
  Lru fresh;
  fresh.push_back(Entry{view, version, FPlan(plan.begin(), plan.begin() + len),
                        f, hash, cost});
  Lru dead;
  {
    base::MutexLock g(&mu_);
    auto cur = current_.find(view);
    if (cur != current_.end() && cur->second != version.get()) return;
    auto [lo, hi] = index_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      const Entry& e = *it->second;
      if (e.version == version && e.prefix == fresh.front().prefix &&
          e.view == view) {
        return;  // a concurrent statement cached it first
      }
    }
    lru_.splice(lru_.begin(), fresh);
    index_.emplace(hash, lru_.begin());
    bytes_ += cost;
    while (bytes_ > budget_) {
      UnlinkLocked(std::prev(lru_.end()), &dead);
      Metrics().evictions.Inc();
    }
    Metrics().bytes.Set(bytes_);
  }
}

void PrefixCache::Publish(const std::string& view,
                          const Factorisation* version) {
  Lru dead;
  base::MutexLock g(&mu_);
  current_[view] = version;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->view == view && it->version.get() != version) {
      UnlinkLocked(it, &dead);
    }
    it = next;
  }
  Metrics().bytes.Set(bytes_);
}

void PrefixCache::Clear() {
  Lru dead;
  {
    base::MutexLock g(&mu_);
    current_.clear();
    index_.clear();
    dead.swap(lru_);
    bytes_ = 0;
    Metrics().bytes.Set(0);
  }
}

int64_t PrefixCache::bytes() const {
  base::MutexLock g(&mu_);
  return bytes_;
}

size_t PrefixCache::size() const {
  base::MutexLock g(&mu_);
  return lru_.size();
}

void PrefixCache::UnlinkLocked(Lru::iterator it, Lru* out) {
  auto [lo, hi] = index_.equal_range(it->hash);
  for (auto i = lo; i != hi; ++i) {
    if (i->second == it) {
      index_.erase(i);
      break;
    }
  }
  bytes_ -= it->bytes;
  out->splice(out->end(), lru_, it);
}

}  // namespace fdb
