#ifndef FDB_STORAGE_FORMAT_H_
#define FDB_STORAGE_FORMAT_H_

#include <cstdint>

namespace fdb {
namespace storage {

/// On-disk layout of a database snapshot (`*.fdbs`).
///
/// A snapshot is one *base* file holding the whole database; the
/// write-ahead log `<path>.wal` (storage/wal.h) carries the commits made
/// since it was written. The file is a fixed header, a section table,
/// then the sections themselves, each 8-byte aligned. All multi-byte
/// fields are in the writing machine's byte order; the header carries an
/// endianness probe and readers reject a mismatch rather than byte-swap
/// (snapshots are a storage format, not a wire format).
///
///   FileHeader
///   SectionEntry[section_count]
///   sections...
///
/// Sections (one of each, in this order):
///   registry      attribute names; position = AttrId used everywhere else
///   dict strings  dictionary strings in *rank* (sorted) order; a string
///                 ref's payload in any value pool is its rank at save
///                 time, remapped to a live dictionary code on open
///   dict bigints  the big-integer pool in slot order; pooled-int refs
///                 carry the save-time slot
///   relations     flat base relations, row-major, self-contained values
///   views         per view: name, f-tree, then a relocatable data
///                 segment (see SegmentHeader)
///   meta          the base epoch stamp the WAL must echo to be replayed
///
/// A view data segment stores the factorised data with 32-bit
/// intra-segment offsets instead of pointers, nodes in children-first
/// order, sharing (DAG edges) preserved:
///
///   SegmentHeader
///   NodeRec[num_nodes]        16 bytes each
///   int64 roots[num_roots]    node index; -1 encodes the empty union
///   uint64 values[num_values] raw ValueRef bits, 8-aligned (served
///                             zero-copy straight from the mapping)
///   uint32 children[num_children]  node indices, each below its parent's
///
/// Opening a segment performs one fix-up pass: node records become
/// in-memory FactNodes whose value spans point into the file's mapping
/// and whose child spans point into one materialised pointer array. Only
/// the value pools may be rewritten in place (dictionary id remapping, on
/// the MAP_PRIVATE copy-on-write mapping) — when the live dictionary
/// already agrees with the snapshot, the pools' pages stay clean and page
/// in on demand.
///
/// Each SectionEntry's `crc32` carries the CRC32 of the section's payload
/// bytes; readers verify every section up front. Only kVersion is read or
/// written: a file with any other header version is rejected.

inline constexpr char kMagic[8] = {'F', 'D', 'B', 'S', 'N', 'A', 'P', '1'};
inline constexpr uint32_t kVersion = 3;
inline constexpr uint32_t kEndianProbe = 0x01020304;

enum SectionKind : uint32_t {
  kSectionRegistry = 1,
  kSectionDictStrings = 2,
  kSectionDictBigInts = 3,
  kSectionRelations = 4,
  kSectionViews = 5,
  kSectionMeta = 6,
  kSectionKindMax = kSectionMeta,
};

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t file_size;
  uint64_t section_count;  ///< SectionEntry table follows immediately
};

struct SectionEntry {
  uint32_t kind;   ///< SectionKind
  uint32_t crc32;  ///< CRC32 of the section's payload bytes
  uint64_t offset;  ///< absolute file offset, 8-aligned
  uint64_t size;    ///< bytes
};

struct SegmentHeader {
  uint64_t num_nodes;
  uint64_t num_values;    ///< ValueRefs in the value pool
  uint64_t num_children;  ///< entries in the child pool
  uint64_t num_roots;
};

/// One union: values are pool[value_off, value_off + num_values), the
/// flattened child matrix is children[child_off, child_off + num_children).
/// 32-bit offsets keep records at 16 bytes and cap a single view segment
/// at 2^32 singletons (32 GiB of value data) — plenty per view; larger
/// databases split across views.
struct NodeRec {
  uint32_t value_off;
  uint32_t num_values;
  uint32_t child_off;
  uint32_t num_children;
};

static_assert(sizeof(FileHeader) == 32);
static_assert(sizeof(SectionEntry) == 24);
static_assert(sizeof(SegmentHeader) == 32);
static_assert(sizeof(NodeRec) == 16);

/// Value encoding tags for flat relation cells (self-contained; strings
/// are stored inline, not via the dictionary).
enum ValueTag : uint8_t {
  kValNull = 0,
  kValInt = 1,
  kValDouble = 2,
  kValString = 3,
};

}  // namespace storage
}  // namespace fdb

#endif  // FDB_STORAGE_FORMAT_H_
