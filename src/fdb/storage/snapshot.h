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

/// Canonicalises `path` so identity checks (the kNoop checkpoint, WAL
/// binding) cannot be fooled by alias spellings ("db.fdbs" vs
/// "./db.fdbs" vs a symlinked directory). Falls back to the raw string
/// when resolution fails (e.g. a parent that does not exist yet; the
/// subsequent open() reports the real error).
std::string CanonicalSnapshotPath(const std::string& path);

/// What a Database remembers about the last base it wrote: enough for
/// Checkpoint to skip an idle database (kNoop) and for the checker to
/// find the file.
struct PersistState {
  std::string path;      ///< canonical path of the base
  uint64_t epoch = 0;    ///< the base's epoch stamp, echoed by the WAL
  uint64_t changes = 0;  ///< Database publish count the base covers
  uint64_t attrs = 0;    ///< registry size the base covers
};

/// What one Database::Checkpoint call actually wrote.
struct CheckpointInfo {
  enum Kind {
    kBase,  ///< a fresh base
    kNoop,  ///< nothing changed since the last base of this path; no file
  };
  Kind kind = kNoop;
  uint64_t bytes = 0;  ///< bytes written by this call
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
/// truncated or missing snapshot where a good one used to be. Then
/// removes the checkpoint deltas an older build may have left beside
/// `path`, which the new base supersedes. Returns the epoch stamped into
/// the file. Throws std::invalid_argument if the
/// file cannot be written.
uint64_t SaveSnapshot(const Database& db, const std::string& path,
                      SaveStats* stats = nullptr);

/// Everything an opened Database shares with the views it has yet to
/// materialise. Held by shared_ptr: copies of the Database share the
/// mapping and the dictionary remap tables, and each copy materialises
/// views independently (the one-time value-pool remap is guarded by the
/// shared per-view flag).
struct SnapshotState {
  std::shared_ptr<SnapshotMapping> mapping;  ///< the base file

  // Snapshot-local string ids are save-time ranks; pooled-int ids are
  // save-time slots. These tables take them to codes/slots of the live
  // process dictionary; when they are the identity (e.g. opening in a
  // fresh process) the value pools are served without a single write.
  std::vector<uint32_t> string_codes;
  std::vector<uint32_t> bigint_slots;
  bool strings_identity = true;
  bool bigints_identity = true;

  uint64_t epoch = 0;  ///< base epoch

  /// One view: its f-tree and the layout of its data segment (offsets
  /// into `mapping`).
  struct ViewDesc {
    FTree tree;
    uint64_t nodes_off = 0;
    uint64_t roots_off = 0;
    uint64_t values_off = 0;
    uint64_t children_off = 0;
    uint64_t num_nodes = 0;
    uint64_t num_values = 0;
    uint64_t num_children = 0;
    uint64_t num_roots = 0;
    bool fixed_up = false;  ///< value pool validated and remapped once
  };
  // Guarded by `mu` once the state is published (the single-threaded
  // ParseSnapshot construction phase writes it lock-free).
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

/// Materialises one view out of the snapshot: a single fix-up pass turns
/// the segment's node records into FactNodes (value spans zero-copy into
/// the mapping, child offsets widened to pointers) backed by a
/// MappedArena that keeps the mapping alive. Returns std::nullopt if
/// the snapshot has no view of that name.
std::optional<Factorisation> MaterialiseSnapshotView(SnapshotState& state,
                                                     const std::string& name);

}  // namespace storage
}  // namespace fdb

#endif  // FDB_STORAGE_SNAPSHOT_H_
