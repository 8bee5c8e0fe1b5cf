#ifndef FDB_STORAGE_MAPPED_ARENA_H_
#define FDB_STORAGE_MAPPED_ARENA_H_

#include <cstddef>
#include <memory>
#include <string>

#include "fdb/core/fact_arena.h"

namespace fdb {
namespace storage {

/// Owns the bytes of one snapshot: either a private (copy-on-write) mmap
/// of the file or, for tests and in-memory round trips, a heap copy.
/// Writable: the reader remaps dictionary codes in place; with a
/// MAP_PRIVATE mapping those writes dirty only the touched pages and
/// never reach the file, while untouched pages stay file-backed and page
/// in (and out) on demand — this is what lets views larger than RAM open.
///
/// Shared by everything materialised out of the snapshot: the Database,
/// every MappedArena, and (via arena adopt-chaining) every factorisation
/// derived from a mapped view, so the mapping lives exactly as long as
/// the last node pointing into it.
class SnapshotMapping {
 public:
  /// Maps `path` (PROT_READ|PROT_WRITE, MAP_PRIVATE). Throws
  /// std::invalid_argument if the file cannot be opened or mapped.
  static std::shared_ptr<SnapshotMapping> FromFile(const std::string& path);

  /// Copies `size` bytes into an owned, 8-aligned heap buffer.
  static std::shared_ptr<SnapshotMapping> FromBuffer(const void* data,
                                                     size_t size);

  ~SnapshotMapping();
  SnapshotMapping(const SnapshotMapping&) = delete;
  SnapshotMapping& operator=(const SnapshotMapping&) = delete;

  const std::byte* data() const { return data_; }
  std::byte* mutable_data() { return data_; }
  size_t size() const { return size_; }
  /// Where the bytes came from: the file path, or "<memory>" for
  /// FromBuffer. Parse errors cite it so corrupt-file triage names the
  /// actual file.
  const std::string& source() const { return source_; }

 private:
  SnapshotMapping() = default;

  std::byte* data_ = nullptr;
  size_t size_ = 0;
  std::string source_ = "<memory>";
  bool mapped_ = false;                  // true: munmap on destruction
  std::unique_ptr<std::byte[]> owned_;   // FromBuffer storage
};

/// The arena behind a view materialised from a snapshot. Node headers and
/// the widened child-pointer array live in memory (built by the reader's
/// fix-up pass); the value spans point straight into the snapshot
/// mapping, which this arena keeps alive. It is a fully functional
/// FactArena: operators that write into it (updates on an opened view)
/// allocate ordinary heap chunks, and operators that switch to a fresh
/// arena adopt this one, chaining the mapping's lifetime to their
/// results.
class MappedArena : public FactArena {
 public:
  MappedArena(std::shared_ptr<SnapshotMapping> mapping,
              std::unique_ptr<FactNode[]> nodes, int64_t num_nodes,
              std::unique_ptr<FactPtr[]> children, int64_t mapped_bytes)
      : mapping_(std::move(mapping)),
        nodes_mem_(std::move(nodes)),
        child_mem_(std::move(children)),
        mapped_nodes_(num_nodes) {
    bytes_ = mapped_bytes;
    nodes_ = num_nodes;
  }

  /// Extends the heap-chunk test to the materialised node array (nodes_
  /// counts heap-allocated nodes too after updates, so the fixed-up
  /// count is kept separately).
  bool OwnsNodeMemory(const FactNode* node) const override {
    if (node >= nodes_mem_.get() && node < nodes_mem_.get() + mapped_nodes_) {
      return true;
    }
    return FactArena::OwnsNodeMemory(node);
  }

 private:
  std::shared_ptr<SnapshotMapping> mapping_;
  std::unique_ptr<FactNode[]> nodes_mem_;
  std::unique_ptr<FactPtr[]> child_mem_;
  int64_t mapped_nodes_ = 0;
};

}  // namespace storage
}  // namespace fdb

#endif  // FDB_STORAGE_MAPPED_ARENA_H_
