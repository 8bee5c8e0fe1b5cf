#include "fdb/engine/database.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "fdb/core/update.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/obs/sampler.h"
#include "fdb/relational/value_dict.h"
#include "fdb/storage/snapshot.h"
#include "fdb/storage/wal.h"

namespace fdb {

// Copies do not share checkpoint state (persist_) or the WAL: two
// databases appending to one log would corrupt it. A copy writes a base
// on its first Checkpoint and logs nothing until EnableWal.
Database::Database(const Database& other)
    : reg_(other.reg_),
      relations_(other.relations_),
      changes_(other.changes_.load()),
      snapshot_(other.snapshot_),
      prefix_cache_(other.prefix_cache_.budget()) {
  base::MutexLock g(&other.mu_);
  views_ = other.views_;
}

Database::Database(Database&& other) noexcept
    : reg_(std::move(other.reg_)),
      relations_(std::move(other.relations_)),
      changes_(other.changes_.load()),
      snapshot_(std::move(other.snapshot_)),
      prefix_cache_(other.prefix_cache_.budget()) {
  {
    base::MutexLock g(&other.txn_mu_);
    persist_ = std::exchange(other.persist_, std::nullopt);
    wal_ = std::move(other.wal_);
    wal_base_ = std::exchange(other.wal_base_, {});
    in_txn_ = std::exchange(other.in_txn_, false);
    pending_ = std::move(other.pending_);
    other.pending_.clear();
  }
  {
    base::MutexLock g(&other.sampler_mu_);
    sampler_ = std::move(other.sampler_);
  }
  other.prefix_cache_.Clear();
  base::MutexLock g(&other.mu_);
  views_ = std::exchange(other.views_,
                         std::make_shared<const ViewMap>());
}

void Database::AddRelation(const std::string& name, Relation rel) {
  // Bulk-intern incoming string cells in sorted order so dictionary codes
  // stay (mostly) rank-append-only when views are factorised later.
  std::vector<std::string_view> strs;
  for (const Tuple& row : rel.rows()) {
    for (const Value& v : row) {
      if (v.is_string()) strs.push_back(v.as_string());
    }
  }
  if (!strs.empty()) ValueDict::Default().InternBulk(std::move(strs));
  relations_.insert_or_assign(name, std::move(rel));
  ++changes_;
}

const Relation* Database::relation(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

void Database::PublishView(const std::string& name,
                           std::shared_ptr<const Factorisation> fp) {
  const Factorisation* version = fp.get();
  {
    base::MutexLock g(&mu_);
    auto next = std::make_shared<ViewMap>(*views_);
    (*next)[name] = std::move(fp);
    views_ = std::move(next);
  }
  // After the swap: a Checkpoint that reads the new count also sees the
  // version it counts.
  ++changes_;
  prefix_cache_.Publish(name, version);
}

void Database::AddView(const std::string& name, Factorisation f) {
  auto fp = std::make_shared<const Factorisation>(std::move(f));
  base::MutexLock t(&txn_mu_);
  PublishView(name, std::move(fp));
}

std::shared_ptr<const Factorisation> Database::FindOrAdmit(
    const std::string& name) const {
  std::shared_ptr<const ViewMap> epoch;
  {
    base::MutexLock g(&mu_);
    epoch = views_;
  }
  auto it = epoch->find(name);
  if (it != epoch->end()) return it->second;
  if (snapshot_ == nullptr) return nullptr;
  // Lazy snapshot admission. The materialisation pass runs *outside*
  // mu_ (snapshot_->mu serialises the one-time segment fix-up), so
  // readers of other views never stall behind it; mu_ is retaken only
  // to publish, and a racing admitter's copy wins harmlessly.
  std::optional<Factorisation> f =
      storage::MaterialiseSnapshotView(*snapshot_, name);
  if (!f.has_value()) return nullptr;
  auto fp = std::make_shared<const Factorisation>(*std::move(f));
  base::MutexLock g(&mu_);
  it = views_->find(name);
  if (it != views_->end()) return it->second;
  auto next = std::make_shared<ViewMap>(*views_);
  next->emplace(name, fp);
  views_ = std::move(next);
  return fp;
}

const Factorisation* Database::view(const std::string& name) const {
  return FindOrAdmit(name).get();
}

std::shared_ptr<const Factorisation> Database::ViewSnapshot(
    const std::string& name) const {
  return FindOrAdmit(name);
}

// --- transactions / write-ahead logging -----------------------------------

void Database::EnableWal(const std::string& raw_path) {
  std::string path = storage::CanonicalSnapshotPath(raw_path);
  base::MutexLock t(&txn_mu_);
  if (in_txn_) {
    throw std::invalid_argument(
        "txn: cannot enable the WAL inside an open transaction");
  }
  // Save the current state (including anything a previous log replay
  // contributed) as a base first, so the fresh log applies on top of
  // exactly what is durable. Never a kNoop: that would stamp the log
  // with the epoch this database last wrote, which another writer may
  // have replaced on disk since.
  uint64_t epoch = SaveLocked(path);
  wal_ = storage::Wal::Create(path, epoch);
  wal_base_ = path;
}

void Database::DisableWal() {
  base::MutexLock t(&txn_mu_);
  if (in_txn_) {
    throw std::invalid_argument(
        "txn: cannot disable the WAL inside an open transaction");
  }
  if (wal_ == nullptr) return;
  // Capture outstanding groups in a base; after that the log holds
  // nothing the base does not, so the file can go.
  CheckpointLocked(wal_base_);
  std::string wp = wal_->path();
  wal_.reset();
  wal_base_.clear();
  std::remove(wp.c_str());
}

bool Database::wal_enabled() const {
  base::MutexLock t(&txn_mu_);
  return wal_ != nullptr;
}

storage::WalStatus Database::WalStatus() const {
  base::MutexLock t(&txn_mu_);
  storage::WalStatus s;
  s.enabled = wal_ != nullptr;
  s.in_txn = in_txn_;
  if (wal_ != nullptr) {
    s.broken = wal_->broken();
    s.path = wal_->path();
    s.committed_groups = wal_->last_seq();
    s.wal_bytes = wal_->bytes();
  }
  s.pending_ops = pending_.size();
  s.pending_bytes = storage::Wal::PayloadBytes(pending_);
  return s;
}

std::optional<storage::PersistState> Database::PersistSnapshot() const {
  base::MutexLock t(&txn_mu_);
  return persist_;
}

void Database::Begin() {
  base::MutexLock t(&txn_mu_);
  if (in_txn_) {
    throw std::invalid_argument("txn: a transaction is already open");
  }
  in_txn_ = true;
}

uint64_t Database::Commit() {
  base::MutexLock t(&txn_mu_);
  if (!in_txn_) throw std::invalid_argument("txn: no open transaction");
  uint64_t seq = CommitGroupLocked(&pending_);  // throws → txn stays open
  in_txn_ = false;
  return seq;
}

void Database::Rollback() {
  base::MutexLock t(&txn_mu_);
  if (!in_txn_) throw std::invalid_argument("txn: no open transaction");
  pending_.clear();
  in_txn_ = false;
}

void Database::Insert(const std::string& view, const Tuple& tuple) {
  base::MutexLock t(&txn_mu_);
  BufferOpLocked(storage::WalOp{storage::WalOp::kInsert, view, tuple});
}

void Database::Delete(const std::string& view, const Tuple& tuple) {
  base::MutexLock t(&txn_mu_);
  BufferOpLocked(storage::WalOp{storage::WalOp::kDelete, view, tuple});
}

uint64_t Database::Commit(std::vector<storage::WalOp> ops) {
  base::MutexLock t(&txn_mu_);
  for (const storage::WalOp& op : ops) ValidateOp(op);
  return CommitGroupLocked(&ops);
}

void Database::ValidateOp(const storage::WalOp& op) const {
  std::shared_ptr<const Factorisation> f = ViewSnapshot(op.view);
  if (f == nullptr) {
    throw std::invalid_argument("txn: no view named '" + op.view + "'");
  }
  // Shape/arity validation up front, so Commit's apply cannot fail after
  // the group is already durable in the log.
  ContainsTuple(*f, op.tuple);
}

void Database::BufferOpLocked(storage::WalOp op) {
  ValidateOp(op);
  if (in_txn_) {
    pending_.push_back(std::move(op));
    return;
  }
  std::vector<storage::WalOp> one;
  one.push_back(std::move(op));
  CommitGroupLocked(&one);  // autocommit: a one-op durable group
}

uint64_t Database::CommitGroupLocked(std::vector<storage::WalOp>* ops) {
  if (ops->empty()) return 0;
  static obs::Counter& commit_groups = obs::Registry::Instance().GetCounter(
      "wal.commit_groups", "groups", "commit groups applied");
  static obs::Histogram& group_ops = obs::Registry::Instance().GetHistogram(
      "wal.commit_group_ops", "ops", "operations per commit group");
  static obs::Histogram& append_hist = obs::Registry::Instance().GetHistogram(
      "wal.append_ns", "ns", "WAL frame append+fsync wall time");
  commit_groups.Inc();
  group_ops.Record(ops->size());
  // Durable first: the group is acknowledged only once its frame is
  // fsync'd. A log failure throws here, before any in-memory change.
  uint64_t seq = 0;
  if (wal_ != nullptr) {
    // Timed only when the event log is live — the latency histogram has
    // its own clock reads inside ScopedLatency, and the common disabled
    // path must stay clock-free beyond those.
    int64_t t0 = obs::LogEnabled() ? obs::NowNs() : -1;
    {
      obs::ScopedLatency latency(append_hist);
      seq = wal_->Append(*ops);
    }
    if (t0 >= 0) {
      int64_t dur = obs::NowNs() - t0;
      obs::EventLog& log = obs::EventLog::Instance();
      if (dur >= log.wal_stall_ns()) {
        log.Emit(obs::EventType::kWalStall,
                 {obs::F("seq", seq), obs::F("ops", ops->size()),
                  obs::F("stall_ms", static_cast<double>(dur) / 1e6)});
      }
    }
  }
  // Every op was validated, so each view exists.
  ApplyOpsLocked(std::move(*ops));
  ops->clear();
  return seq;
}

std::optional<std::string> Database::ApplyOpsLocked(
    std::vector<storage::WalOp> ops) {
  // One batch per affected view: each union along the touched paths is
  // rebuilt once per group, not once per tuple.
  std::map<std::string, std::vector<BatchOp>> per_view;
  for (storage::WalOp& op : ops) {
    per_view[op.view].push_back(
        BatchOp{op.kind == storage::WalOp::kInsert, std::move(op.tuple)});
  }
  for (const auto& [name, batch] : per_view) {
    std::shared_ptr<const Factorisation> cur = FindOrAdmit(name);
    if (cur == nullptr) return name;
    // Built off-line on a private copy: the copy shares the current
    // arenas, and ApplyBatch allocates through ArenaForWrite into a fresh
    // one that adopts them — readers of `cur` are never touched.
    Factorisation next = *cur;
    ApplyBatch(&next, batch);
    PublishView(name, std::make_shared<const Factorisation>(std::move(next)));
  }
  return std::nullopt;
}

void Database::StartMetricsSampler(int64_t interval_ms) {
  obs::MetricsSampler::Options opts;
  opts.interval_ms = interval_ms;
  auto sampler = std::make_shared<obs::MetricsSampler>(opts);
  sampler->Start();
  std::shared_ptr<obs::MetricsSampler> old;
  {
    base::MutexLock g(&sampler_mu_);
    old = std::exchange(sampler_, std::move(sampler));
  }
  // The old sampler (if any) stops and joins here, outside the lock.
  if (old != nullptr) old->Stop();
}

void Database::StopMetricsSampler() {
  std::shared_ptr<obs::MetricsSampler> s;
  {
    base::MutexLock g(&sampler_mu_);
    s = std::move(sampler_);
  }
  if (s != nullptr) s->Stop();
}

std::shared_ptr<obs::MetricsSampler> Database::metrics_sampler() const {
  base::MutexLock g(&sampler_mu_);
  return sampler_;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> out;
  for (const auto& [name, rel] : relations_) out.push_back(name);
  return out;
}

std::vector<std::string> Database::ViewNames() const {
  std::shared_ptr<const ViewMap> epoch;
  {
    base::MutexLock g(&mu_);
    epoch = views_;
  }
  std::vector<std::string> out;
  for (const auto& [name, f] : *epoch) out.push_back(name);
  if (snapshot_ != nullptr) {
    for (const auto& [name, desc] : snapshot_->views) {
      if (epoch->find(name) == epoch->end()) out.push_back(name);
    }
    std::sort(out.begin(), out.end());
  }
  return out;
}

namespace {

// Recursively builds the subtree for the attribute set `attrs`, whose
// members are mutually connected only through `relations`.
void BuildComponent(FTree* tree, int parent, std::vector<AttrId> attrs,
                    const std::vector<const Relation*>& relations) {
  if (attrs.empty()) return;

  // Pick the attribute shared by the most relations as the component root;
  // ties broken by smaller id for determinism.
  auto degree = [&](AttrId a) {
    int d = 0;
    for (const Relation* r : relations) {
      if (r->schema().Contains(a)) ++d;
    }
    return d;
  };
  AttrId best = attrs[0];
  for (AttrId a : attrs) {
    if (degree(a) > degree(best) || (degree(a) == degree(best) && a < best)) {
      best = a;
    }
  }
  int node = tree->AddNode({best}, parent);

  // Partition the remaining attributes into connected components of the
  // "co-occur in some relation" graph restricted to them; each component is
  // independent of the others given the ancestors, so they become siblings.
  std::vector<AttrId> rest;
  for (AttrId a : attrs) {
    if (a != best) rest.push_back(a);
  }
  std::unordered_map<AttrId, int> comp;
  int ncomp = 0;
  for (AttrId a : rest) {
    if (comp.count(a)) continue;
    // BFS over co-occurrence.
    std::vector<AttrId> frontier = {a};
    comp[a] = ncomp;
    while (!frontier.empty()) {
      AttrId x = frontier.back();
      frontier.pop_back();
      for (const Relation* r : relations) {
        if (!r->schema().Contains(x)) continue;
        for (AttrId y : r->schema().attrs()) {
          if (comp.count(y) ||
              std::find(rest.begin(), rest.end(), y) == rest.end()) {
            continue;
          }
          comp[y] = ncomp;
          frontier.push_back(y);
        }
      }
    }
    ++ncomp;
  }
  for (int c = 0; c < ncomp; ++c) {
    std::vector<AttrId> sub;
    for (AttrId a : rest) {
      if (comp[a] == c) sub.push_back(a);
    }
    BuildComponent(tree, node, std::move(sub), relations);
  }
}

}  // namespace

FTree ChooseFTree(const std::vector<const Relation*>& relations) {
  FTree tree;
  std::vector<AttrId> all;
  for (const Relation* r : relations) {
    for (AttrId a : r->schema().attrs()) {
      if (std::find(all.begin(), all.end(), a) == all.end()) all.push_back(a);
    }
  }
  // Top-level components become separate trees of the forest.
  std::unordered_map<AttrId, int> comp;
  int ncomp = 0;
  for (AttrId a : all) {
    if (comp.count(a)) continue;
    std::vector<AttrId> frontier = {a};
    comp[a] = ncomp;
    while (!frontier.empty()) {
      AttrId x = frontier.back();
      frontier.pop_back();
      for (const Relation* r : relations) {
        if (!r->schema().Contains(x)) continue;
        for (AttrId y : r->schema().attrs()) {
          if (!comp.count(y)) {
            comp[y] = ncomp;
            frontier.push_back(y);
          }
        }
      }
    }
    ++ncomp;
  }
  for (int c = 0; c < ncomp; ++c) {
    std::vector<AttrId> sub;
    for (AttrId a : all) {
      if (comp[a] == c) sub.push_back(a);
    }
    BuildComponent(&tree, -1, std::move(sub), relations);
  }
  for (size_t i = 0; i < relations.size(); ++i) {
    Hyperedge e;
    e.attrs = relations[i]->schema().attrs();
    std::sort(e.attrs.begin(), e.attrs.end());
    e.attrs.erase(std::unique(e.attrs.begin(), e.attrs.end()), e.attrs.end());
    e.weight = static_cast<double>(std::max<int64_t>(1, relations[i]->size()));
    e.name = "R" + std::to_string(i);
    tree.AddEdge(std::move(e));
  }
  return tree;
}

}  // namespace fdb
