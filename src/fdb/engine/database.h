#ifndef FDB_ENGINE_DATABASE_H_
#define FDB_ENGINE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fdb/base/thread_annotations.h"
#include "fdb/core/factorisation.h"
#include "fdb/engine/prefix_cache.h"
#include "fdb/relational/relation.h"
#include "fdb/storage/snapshot.h"
#include "fdb/storage/wal.h"

namespace fdb {

namespace obs {
class MetricsSampler;
}  // namespace obs

namespace storage {
class SnapshotMapping;
struct SnapshotState;
}  // namespace storage

/// A database: an attribute registry shared by all relations, flat base
/// relations, and materialised views stored as factorisations (the
/// read-optimised scenario of §1/§6). Names are case-sensitive.
///
/// Databases persist as single-file binary snapshots (storage/): Save()
/// writes the whole database, Open() mmaps a snapshot and materialises
/// views lazily and zero-copy on first access. A Database can be copy-
/// or move-constructed but not assigned. A copy is cheap: factorisations
/// share their arenas and an opened database's copies share the snapshot
/// mapping (each copy materialises views independently). A view opened
/// from a snapshot keeps the mapping alive through its arena, and
/// operators that derive new factorisations from it adopt that arena —
/// so results of ops on mapped views stay valid after the Database (and
/// the last mapped view) are gone.
///
/// Concurrency: views live in an epoch-style versioned map. The map is an
/// immutable std::map published through a shared_ptr; readers grab the
/// current epoch (ViewSnapshot / view) with one brief pointer-copy lock
/// and then never block, no matter how long they enumerate. Writers
/// (AddView, and commits through Commit) build the new factorisation
/// off-line, copy the map, and swap the pointer. Commits apply their
/// group with ApplyBatch to a copy of each affected view's current
/// version; they and AddView take turns on the transaction lock, so a
/// commit never overwrites a concurrent AddView or vice versa. Queries
/// running against older epochs keep their Factorisation (and, through
/// its arena chain, every node they can reach) alive until they drop
/// it, so updates and generational compaction proceed without ever
/// invalidating an in-flight reader.
/// Many threads may query one Database while one or more threads update
/// its views. Base relations and the registry are not versioned: load
/// them before spinning up concurrent readers (AddRelation concurrent
/// with queries on the *same relation name* is not supported). Queries
/// over base relations share each relation's sorted-input memo
/// (Relation::FindSortedInput), which is safe under concurrent readers;
/// AddRelation replaces a relation together with its memo.
class Database {
 public:
  Database() = default;
  /// A database whose f-plan prefix cache holds at most `prefix_cache_bytes`
  /// instead of PrefixCache::kBudgetBytes: for tests that force eviction.
  explicit Database(int64_t prefix_cache_bytes)
      : prefix_cache_(prefix_cache_bytes) {}
  /// Copy and move construction only; both start with an empty prefix
  /// cache of the same budget. To replace a database, construct a new one
  /// (e.g. from Open()) in its place.
  Database(const Database& other);
  Database(Database&& other) noexcept;
  Database& operator=(const Database&) = delete;
  Database& operator=(Database&&) = delete;

  AttributeRegistry& registry() { return reg_; }
  const AttributeRegistry& registry() const { return reg_; }

  /// Interns `name` in the registry (convenience).
  AttrId Attr(const std::string& name) { return reg_.Intern(name); }

  void AddRelation(const std::string& name, Relation rel);
  /// The named base relation, or nullptr.
  const Relation* relation(const std::string& name) const;

  /// Publishes `f` as the new version of view `name` (a new epoch of the
  /// view map). Readers holding the previous version keep it alive. Not
  /// logged: checkpoint after it on a database with a WAL. Takes the
  /// transaction lock, so it waits for a running commit or Save.
  void AddView(const std::string& name, Factorisation f) EXCLUDES(txn_mu_);
  /// The named factorised view, or nullptr. On a database opened from a
  /// snapshot this materialises the view on first access (one fix-up pass
  /// over the mapped segment; value data is served from the mapping).
  /// The pointer stays valid until this name is re-published (AddView or
  /// a commit) — concurrent readers should hold a ViewSnapshot instead.
  const Factorisation* view(const std::string& name) const;

  /// The current version of view `name` as a shared snapshot (nullptr if
  /// absent): never blocks on writers, and keeps that version — arenas,
  /// nodes, mapped segments — alive for as long as the caller holds it,
  /// across any number of subsequent updates, swaps and compactions.
  std::shared_ptr<const Factorisation> ViewSnapshot(
      const std::string& name) const;

  /// The factorisations FdbEngine reached after f-plan prefixes over the
  /// current view versions (see PrefixCache). Publishing a view version
  /// drops the entries of its older versions.
  PrefixCache& prefix_cache() { return prefix_cache_; }

  std::vector<std::string> RelationNames() const;
  std::vector<std::string> ViewNames() const;

  /// Writes the database as a binary snapshot (*.fdbs): registry, value
  /// dictionary, flat relations and all views. View segments contain only
  /// nodes reachable from the roots — saved data is always compacted.
  /// Streams with bounded buffers (peak memory is the writer's node
  /// bookkeeping, not the file size) and publishes crash-safely:
  /// write-to-temp, fsync, rename, fsync the directory. A WAL bound to
  /// `path` restarts empty under the new base. Holds the transaction
  /// lock while writing, so commits wait for it. Throws
  /// std::invalid_argument on I/O failure.
  void Save(const std::string& path) const;

  /// Save(path), unless nothing changed since this Database last saved
  /// `path`: no view or relation was published and the registry did not
  /// grow. Then it writes nothing and returns kNoop. Every other call
  /// writes a full base (kBase) — O(database), not O(changes). Throws
  /// std::invalid_argument on I/O failure.
  storage::CheckpointInfo Checkpoint(const std::string& path) const;

  // --- durability: write-ahead logging and transactions ------------------
  //
  // EnableWal(path) binds a write-ahead log (`<path>.wal`) to the
  // snapshot at `path`: the current state is saved as a base there, and
  // every committed mutation is then made durable by a single appended,
  // CRC32-framed log record (one write + one fsync per commit group)
  // before it is applied in memory. Open(path) opens the base and then
  // replays the log, so a crash loses at most the in-flight commit and
  // never an acknowledged one. A Save, or a Checkpoint that writes, of
  // `path` captures the logged groups in a new base and resets the log.
  //
  // Scope: the log records view tuple mutations (Insert/Delete) only.
  // Schema changes — AddRelation, AddView, a view's shape — are not
  // logged; checkpoint after DDL, and only mutate views that exist in
  // the base. Commit groups are durably atomic; concurrent readers see
  // each view's update as it is published (per-view visibility).

  /// Binds the WAL as described above. Saves a base to `path` first —
  /// always, so the log is stamped for the base on disk even when
  /// another writer replaced it (throws on I/O failure, leaving
  /// durability as it was). Must not be called inside an open
  /// transaction.
  void EnableWal(const std::string& path);
  /// Checkpoints any logged groups into the base, then unbinds and
  /// removes the (now empty) log file.
  void DisableWal();
  bool wal_enabled() const;
  /// Transaction/log state (pending ops, durable groups, log size).
  storage::WalStatus WalStatus() const;

  /// Commits a caller-owned list of ops as one group — the write path
  /// of serve sessions. Validates every op (throws std::invalid_argument
  /// if a view does not exist or a tuple does not fit its shape; nothing
  /// applied), makes the group durable (one WAL frame, one fsync), then
  /// applies it — each affected view updated in a single batch.
  /// Independent of the Begin/Commit() transaction below: it neither
  /// joins nor disturbs one that is open. Returns the group's log
  /// sequence number (0 when `ops` is empty or no WAL is bound); on a log
  /// I/O failure throws, nothing applied.
  uint64_t Commit(std::vector<storage::WalOp> ops);

  // Legacy transaction seam: Begin / Insert / Delete / Commit() /
  // Rollback buffer ops into one group that ends in the same log-then-
  // apply step as Commit(ops). It exists for the e2e benchmark's write
  // replay (ReplayTxn in bench/e2e/fdb_bench.cc), which the benchmark
  // must run unchanged; the shell's local mode and some tests use it
  // too. New code should call Commit(ops).

  /// Opens a transaction: subsequent Insert/Delete calls buffer into one
  /// commit group. Throws if one is already open (no nesting).
  void Begin();
  /// Commits the buffered group like Commit(ops). On a log I/O failure
  /// throws and leaves the transaction open, nothing applied: retry
  /// Commit() or Rollback().
  uint64_t Commit();
  /// Discards the buffered group.
  void Rollback();

  /// Inserts `tuple` into view `view` — buffered if a transaction is
  /// open, otherwise an autocommitted single-op group. Validates
  /// eagerly: throws std::invalid_argument if the view does not exist or
  /// the tuple does not fit its shape (so Commit cannot fail on apply).
  /// Inserting an existing tuple is a no-op.
  void Insert(const std::string& view, const Tuple& tuple);
  /// Deletes `tuple` from view `view`; same buffering and validation as
  /// Insert. Deleting an absent tuple is a no-op.
  void Delete(const std::string& view, const Tuple& tuple);

  /// Opens a snapshot written by Save(): mmaps the file, decodes catalog,
  /// registry, dictionary and flat relations eagerly, and defers view
  /// data to first access. Then replays the WAL (committed groups only —
  /// recovery is prefix-consistent). Throws std::invalid_argument on
  /// corrupt input, and when a `<path>.delta-1` file of an older build's
  /// checkpoint chain lies beside the base.
  static Database Open(const std::string& path);

  /// Open() on an already-constructed mapping (tests, in-memory buffers).
  static Database OpenSnapshot(
      std::shared_ptr<storage::SnapshotMapping> mapping);

  /// What this Database remembers of the last base it wrote, or nullopt
  /// before any Save/Checkpoint. The deep invariant checker (fdb/check)
  /// validates the files at its path.
  std::optional<storage::PersistState> PersistSnapshot() const
      EXCLUDES(txn_mu_);

  // --- queryable introspection -------------------------------------------
  //
  // Virtual system tables under the reserved "fdb." prefix surface the
  // process-wide observability state (statement statistics, the event
  // log, sampled metrics history) to ordinary SELECTs on either engine.
  // Each table is materialised fresh per query — a consistent snapshot
  // of the store at resolution time, never a live reference.

  /// True when `name` names a system table (fdb.statements, fdb.events,
  /// fdb.metrics_history).
  static bool IsSystemTable(const std::string& name);
  /// Materialises the named system table (interning its column names in
  /// this database's registry), or nullopt if `name` is not one.
  std::optional<Relation> SystemTable(const std::string& name);

  /// Starts the background metrics-history sampler feeding
  /// fdb.metrics_history (idempotent; restarts with the new interval if
  /// already running). The sampler is owned by this Database and joined
  /// on destruction — no leaked thread.
  void StartMetricsSampler(int64_t interval_ms = 1000);
  /// Stops and joins the sampler (no-op when not running).
  void StopMetricsSampler();
  /// The sampler, if one was started (shared so shell/tests can poke it).
  std::shared_ptr<obs::MetricsSampler> metrics_sampler() const;

 private:
  // One epoch of the versioned view map: an immutable name → version
  // mapping. Epochs share the Factorisation objects of untouched views.
  using ViewMap = std::map<std::string, std::shared_ptr<const Factorisation>>;

  // Finds the current version, lazily admitting snapshot views
  // (materialised outside mu_, published under it); shared by view(),
  // ViewSnapshot() and ApplyOpsLocked().
  std::shared_ptr<const Factorisation> FindOrAdmit(
      const std::string& name) const;

  // Swaps `fp` in as the new epoch's version of `name`, counts the change
  // and retires the prefix-cache entries of the older ones. txn_mu_ keeps
  // writers from publishing over each other's read-modify-publish.
  void PublishView(const std::string& name,
                   std::shared_ptr<const Factorisation> fp)
      REQUIRES(txn_mu_);
  // Applies `ops` as one group: one ApplyBatch per affected view, on a
  // copy of its current version, then publishes each copy. Returns the
  // name of the first view that does not exist (views before it are
  // already published), or nullopt. CommitGroupLocked runs it after the
  // log append, Open's WAL replay for every logged group.
  std::optional<std::string> ApplyOpsLocked(std::vector<storage::WalOp> ops)
      REQUIRES(txn_mu_);

  // Throws std::invalid_argument unless `op`'s view exists and its tuple
  // fits the view's shape.
  void ValidateOp(const storage::WalOp& op) const;
  // Validates `op`, then buffers it into the open transaction or
  // autocommits it as a one-op group.
  void BufferOpLocked(storage::WalOp op) REQUIRES(txn_mu_);
  // Appends `ops` as one WAL frame (when a log is bound) and applies
  // them with ApplyOpsLocked; clears `ops`. Throws without applying if
  // the log append fails.
  uint64_t CommitGroupLocked(std::vector<storage::WalOp>* ops)
      REQUIRES(txn_mu_);
  // Save/Checkpoint internals, callable with txn_mu_ already held
  // (EnableWal and DisableWal write under it). SaveLocked writes the base,
  // records it in persist_, re-stamps a WAL bound to `path` and returns
  // the new epoch.
  uint64_t SaveLocked(const std::string& path,
                      storage::SaveStats* stats = nullptr) const
      REQUIRES(txn_mu_);
  storage::CheckpointInfo CheckpointLocked(const std::string& path) const
      REQUIRES(txn_mu_);

  AttributeRegistry reg_;
  std::map<std::string, Relation> relations_;
  // Counts AddRelation calls and view publications (not lazy snapshot
  // admissions): Checkpoint compares it with the count its last base
  // covered to detect an idle database.
  std::atomic<uint64_t> changes_{0};
  // Guards the views_ pointer (epoch swaps, snapshot admissions). Held
  // only for pointer copies and map clones — never across query work.
  mutable base::Mutex mu_ ACQUIRED_AFTER(txn_mu_);
  // Current epoch; mutable so view() can lazily admit snapshot views.
  mutable std::shared_ptr<const ViewMap> views_ GUARDED_BY(mu_) =
      std::make_shared<const ViewMap>();
  // Set when this database was opened from a snapshot; shared with copies.
  std::shared_ptr<storage::SnapshotState> snapshot_;
  // Restructured intermediates of FdbEngine statements over views_'s
  // versions. Not shared with copies: entries are a cache, and each
  // Database publishes its own versions.
  PrefixCache prefix_cache_;
  // Transaction/WAL state. txn_mu_ serialises every writer of views_ —
  // AddView and commits (Commit(ops), Begin/Commit/Rollback,
  // autocommits) — with EnableWal/DisableWal and the public
  // Save/Checkpoint (a base must not interleave with a commit's log
  // append). Lock order: txn_mu_ → mu_. The log itself
  // is mutable because a (const) Save/Checkpoint re-stamps it — like
  // persist_, it is durability bookkeeping, not logical state. Not
  // copied (two databases appending to one log would corrupt it); moves
  // transfer it.
  mutable base::Mutex txn_mu_;
  // The last base Save/Checkpoint wrote. Not shared with copies: each
  // Database tracks its own saves.
  mutable std::optional<storage::PersistState> persist_ GUARDED_BY(txn_mu_);
  mutable std::unique_ptr<storage::Wal> wal_ GUARDED_BY(txn_mu_);
  /// Canonical snapshot path the log is bound to.
  std::string wal_base_ GUARDED_BY(txn_mu_);
  bool in_txn_ GUARDED_BY(txn_mu_) = false;
  std::vector<storage::WalOp> pending_ GUARDED_BY(txn_mu_);
  // Metrics-history sampler (StartMetricsSampler). The shared_ptr's
  // destructor stops and joins the thread, so dropping the last owner —
  // including Database destruction — shuts it down cleanly. Not copied
  // (a copy can start its own); moves transfer it.
  mutable base::Mutex sampler_mu_;
  std::shared_ptr<obs::MetricsSampler> sampler_ GUARDED_BY(sampler_mu_);
};

/// Chooses an f-tree for the natural join of `relations` (used when a query
/// runs on flat input and FDB must factorise it first, Experiment 2). The
/// tree is built recursively: attributes are split into independent
/// components (no relation spans two components), each component is rooted
/// at its most-shared attribute, giving branching wherever the join
/// structure allows it. Always satisfies the path constraint. Each
/// relation contributes one dependency hyperedge weighted by its size.
FTree ChooseFTree(const std::vector<const Relation*>& relations);

}  // namespace fdb

#endif  // FDB_ENGINE_DATABASE_H_
