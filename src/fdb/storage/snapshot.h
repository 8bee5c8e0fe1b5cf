#ifndef FDB_STORAGE_SNAPSHOT_H_
#define FDB_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fdb/base/thread_annotations.h"
#include "fdb/core/ftree.h"
#include "fdb/storage/mapped_arena.h"

namespace fdb {

class Database;
class Factorisation;

namespace storage {

/// Instrumentation for one Save/Checkpoint: how many bytes reached the
/// sink and the writer's peak transient allocation (node index + emission
/// order + write buffer — the value and child pools are streamed and
/// never materialise). The old build-then-write path peaked at roughly
/// 3x the file size; the streaming writer's peak is bounded by the
/// largest view's node bookkeeping.
struct SaveStats {
  uint64_t bytes_written = 0;
  uint64_t peak_transient_bytes = 0;
};

/// The delta file `seq` (1-based) belonging to the base snapshot at
/// `path`: `<path>.delta-<seq>`.
std::string DeltaPath(const std::string& path, uint64_t seq);

/// Canonicalises `path` so chain-identity checks (checkpoint retention,
/// WAL binding) cannot be fooled by alias spellings ("db.fdbs" vs
/// "./db.fdbs" vs a symlinked directory). Falls back to the raw string
/// when resolution fails (e.g. a parent that does not exist yet; the
/// subsequent open() reports the real error).
std::string CanonicalSnapshotPath(const std::string& path);

/// Checkpoint folds the chain into a fresh base once it reaches this
/// many deltas (or once cumulative delta bytes exceed half the base).
inline constexpr uint64_t kMaxDeltaChain = 8;

/// Open-addressed pointer -> dense-id map used by the segment writer
/// (12 bytes per slot in parallel arrays; an unordered_map would
/// several-fold the writer's peak transient memory, which this map
/// dominates). Also the retained per-view index that makes incremental
/// checkpoints possible.
class PtrIdMap {
 public:
  /// The id of `p`, or -1 if absent.
  int64_t Find(const void* p) const;
  /// Inserts p -> id (p must be absent and non-null).
  void Insert(const void* p, uint32_t id);
  size_t size() const { return size_; }
  uint64_t MemoryBytes() const {
    return keys_.capacity() * sizeof(const void*) +
           vals_.capacity() * sizeof(uint32_t);
  }

 private:
  void Grow();

  std::vector<const void*> keys_;  ///< nullptr = empty slot
  std::vector<uint32_t> vals_;
  size_t size_ = 0;
};

/// Everything Database::Checkpoint retains between checkpoints so it can
/// write O(changes) deltas instead of O(database) bases: watermarks into
/// the append-only dictionary and registry, per-relation versions, and
/// per view the pinned last-persisted version plus the node -> global-id
/// index. Pinning the Factorisation keeps every indexed node's arena
/// alive, so index keys can never dangle or be reused (ABA) while the
/// live view moves on — the deliberate memory cost of incremental
/// checkpointing, reclaimed at the next base fold.
struct PersistState {
  std::string path;
  uint64_t epoch = 0;       ///< stamp of the base file, echoed by deltas
  uint64_t next_seq = 1;    ///< next delta file index
  uint64_t base_bytes = 0;  ///< size of the base file
  uint64_t delta_bytes = 0; ///< cumulative delta bytes since the base

  // Dictionary / registry watermarks. Snapshot-string-ids are base ranks
  // for codes below base_strings and the code itself from there up, so
  // the only retained table is the base-save rank permutation.
  std::vector<uint32_t> base_rank;  ///< code -> rank at base save
  uint64_t base_strings = 0;        ///< codes covered by the base
  uint64_t string_watermark = 0;    ///< codes covered by base + deltas
  uint64_t bigint_watermark = 0;
  uint64_t attr_watermark = 0;
  std::map<std::string, uint64_t> relation_versions;

  struct ViewBase {
    std::shared_ptr<const Factorisation> pinned;  ///< last persisted version
    PtrIdMap index;      ///< node -> global id across base + deltas
    uint64_t num_nodes = 0;  ///< global ids assigned so far
    uint64_t rebuild_gen = 0;  ///< Factorisation::rebuild_generation() then
    std::string tree_blob;     ///< serialised f-tree for change detection
  };
  std::map<std::string, ViewBase> views;
};

/// What one Database::Checkpoint call actually wrote.
struct CheckpointInfo {
  enum Kind {
    kBase,   ///< a fresh base (first checkpoint, or the fold threshold)
    kDelta,  ///< an incremental delta file
    kNoop,   ///< nothing changed since the last checkpoint; no file
  };
  Kind kind = kNoop;
  uint64_t bytes = 0;  ///< bytes written by this call
  uint64_t seq = 0;    ///< delta sequence number (0 for base/noop)
};

/// Serialises the whole database — registry, value dictionary, flat
/// relations, and every factorised view — into the snapshot format
/// (storage/format.h), returned as one in-memory buffer (tests and
/// in-memory round trips; Save streams to disk instead). View segments
/// contain exactly the nodes reachable from the roots, so a snapshot is
/// always compacted regardless of how much garbage the in-memory arenas
/// carry.
std::string SerialiseDatabase(const Database& db);

/// Streams the database to `path` with bounded buffers: sections are
/// written directly to a temp file (header and section table patched once
/// offsets are known), the temp file is fsync'd, atomically renamed over
/// `path`, and the parent directory fsync'd — a crash can never leave a
/// truncated or missing snapshot where a good one used to be. Stale delta
/// files of `path` are removed afterwards (a new base supersedes them).
/// When `retain` is non-null it is filled so subsequent checkpoints can
/// write deltas against this base. Throws std::invalid_argument if the
/// file cannot be written.
void SaveSnapshot(const Database& db, const std::string& path,
                  SaveStats* stats = nullptr, PersistState* retain = nullptr);

/// Appends one delta file capturing everything that changed since
/// `state` (which a prior SaveSnapshot(..., retain) or AppendCheckpoint
/// call produced), updating `state` on success. On failure `state` is
/// poisoned and must be discarded (the caller falls back to a fresh
/// base). Returns kNoop without writing when nothing changed.
CheckpointInfo AppendCheckpoint(const Database& db, PersistState* state,
                                SaveStats* stats = nullptr);

/// Everything an opened Database shares with the views it has yet to
/// materialise. Held by shared_ptr: copies of the Database share the
/// mappings and the dictionary remap tables, and each copy materialises
/// views independently (the one-time value-pool remap is guarded by the
/// shared per-view flag).
struct SnapshotState {
  std::shared_ptr<SnapshotMapping> mapping;  ///< the base file

  // Snapshot-local string ids are base-save ranks below base_strings and
  // delta append ids from there up; pooled-int ids are save-time slots.
  // These tables take them to codes/slots of the live process dictionary;
  // when they are the identity (e.g. opening in a fresh process) the
  // value pools are served without a single write.
  std::vector<uint32_t> string_codes;
  std::vector<uint32_t> bigint_slots;
  bool strings_identity = true;
  bool bigints_identity = true;

  uint64_t epoch = 0;       ///< base epoch
  uint64_t deltas_replayed = 0;

  /// One relocatable data segment (base or delta) of a view. Offsets are
  /// into `mapping`; `first_node` is the segment's base in the view's
  /// global node id space.
  struct SegDesc {
    std::shared_ptr<SnapshotMapping> mapping;
    uint64_t nodes_off = 0;
    uint64_t roots_off = 0;
    uint64_t values_off = 0;
    uint64_t children_off = 0;
    uint64_t num_nodes = 0;
    uint64_t num_values = 0;
    uint64_t num_children = 0;
    uint64_t num_roots = 0;
    uint64_t first_node = 0;
  };
  struct ViewDesc {
    FTree tree;
    std::vector<SegDesc> segs;  ///< base (or full replacement) + deltas;
                                ///< the last segment's roots are current
    bool fixed_up = false;  ///< value pools validated and remapped once
  };
  // Guarded by `mu` once the state is published (the single-threaded
  // Parse*Snapshot construction phase writes it lock-free).
  std::map<std::string, ViewDesc> views;

  // Serialises MaterialiseSnapshotView across Database copies sharing
  // this state (each copy also admits under its own view-map lock, but
  // the fixed_up remap pass must be once-only process-wide).
  base::Mutex mu;
};

/// Parses the snapshot in `mapping` eagerly up to the view catalog:
/// registry and dictionary are interned into the process state, flat
/// relations are decoded, f-trees are rebuilt and validated. View data
/// segments are only range-checked; their nodes materialise lazily via
/// MaterialiseSnapshotView. Throws std::invalid_argument on any corrupt
/// or truncated input.
std::shared_ptr<SnapshotState> ParseSnapshot(
    std::shared_ptr<SnapshotMapping> mapping, Database* db);

/// Replays one delta file (sequence `seq`, 1-based) on top of `state`:
/// interns appended registry/dictionary entries, re-decodes changed
/// relations, and records view delta segments for lazy materialisation.
/// Returns false — leaving everything untouched — when the delta belongs
/// to a different base epoch (a stale leftover from a crashed fold) or
/// carries the wrong sequence number. Throws std::invalid_argument on
/// corrupt input.
bool ParseDeltaSnapshot(std::shared_ptr<SnapshotMapping> mapping,
                        Database* db, SnapshotState* state, uint64_t seq);

/// Materialises one view out of the snapshot: a single fix-up pass turns
/// the segment chain's node records into FactNodes (value spans zero-copy
/// into the owning mappings, child offsets widened to pointers) backed by
/// a MappedArena that keeps the mappings alive. Returns std::nullopt if
/// the snapshot has no view of that name.
std::optional<Factorisation> MaterialiseSnapshotView(SnapshotState& state,
                                                     const std::string& name);

}  // namespace storage
}  // namespace fdb

#endif  // FDB_STORAGE_SNAPSHOT_H_
