#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "fdb/check/check.h"
#include "fdb/core/factorisation.h"
#include "fdb/engine/database.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/storage/format.h"
#include "fdb/storage/io_env.h"
#include "fdb/storage/snapshot.h"
#include "fdb/storage/wal.h"

namespace fdb {
namespace storage {
namespace {

[[noreturn]] void TooLarge(const std::string& what) {
  throw std::invalid_argument("snapshot: " + what +
                              " exceeds the 32-bit segment limit");
}

[[noreturn]] void IoError(const std::string& what, const std::string& path) {
  throw std::invalid_argument("snapshot: " + what + " " + path + ": " +
                              std::strerror(errno));
}

/// Byte destination of the writer. The writer streams sections in file
/// order with a bounded buffer and patches the few spots whose content
/// is only known after the fact (header, section table, segment
/// headers) — so serialising never builds the file in memory.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void Write(const void* p, size_t n) = 0;
  virtual void PatchAt(uint64_t off, const void* p, size_t n) = 0;
  /// Reads back `n` already-written bytes at `off` (the CRC stamping
  /// pass; sections are streamed, so their bytes only exist here).
  virtual void ReadBack(uint64_t off, void* p, size_t n) = 0;
  /// Bytes of transient buffering this sink holds (stats).
  virtual uint64_t buffer_bytes() const = 0;
};

/// In-memory sink for SerialiseDatabase (tests, in-memory round trips).
class BufferSink : public Sink {
 public:
  void Write(const void* p, size_t n) override {
    b_.append(static_cast<const char*>(p), n);
  }
  void PatchAt(uint64_t off, const void* p, size_t n) override {
    std::memcpy(b_.data() + off, p, n);
  }
  void ReadBack(uint64_t off, void* p, size_t n) override {
    std::memcpy(p, b_.data() + off, n);
  }
  uint64_t buffer_bytes() const override { return b_.size(); }
  std::string Take() { return std::move(b_); }

 private:
  std::string b_;
};

/// Buffered fd sink over the fault-injectable IoEnv (sites
/// "snapshot_open", "snapshot_write", "snapshot_fsync",
/// "snapshot_close"). Close() flushes, fsyncs and verifies every write —
/// success is only declared once the bytes are durably on disk, so the
/// caller's rename can never publish a short or cached-only file.
class FileSink : public Sink {
 public:
  explicit FileSink(const std::string& path) : path_(path) {
    fd_ = IoEnv::Instance().Open("snapshot_open", path.c_str(),
                                 O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                                 0644);
    if (fd_ < 0) {
      throw std::invalid_argument("snapshot: cannot open " + path +
                                  " for writing");
    }
    buf_.reserve(kBufCap);
  }
  ~FileSink() override {
    if (fd_ >= 0) IoEnv::Instance().Close("snapshot_close", fd_);
  }

  void Write(const void* p, size_t n) override {
    const char* c = static_cast<const char*>(p);
    while (n > 0) {
      size_t take = std::min(n, kBufCap - buf_.size());
      buf_.append(c, take);
      c += take;
      n -= take;
      if (buf_.size() == kBufCap) Flush();
    }
  }

  void PatchAt(uint64_t off, const void* p, size_t n) override {
    Flush();
    IoEnv& io = IoEnv::Instance();
    const char* c = static_cast<const char*>(p);
    while (n > 0) {
      ssize_t w = io.Pwrite("snapshot_write", fd_, c, n,
                            static_cast<int64_t>(off));
      if (w < 0) {
        if (errno == EINTR) continue;
        IoError("write to", path_);
      }
      c += w;
      off += static_cast<uint64_t>(w);
      n -= static_cast<size_t>(w);
    }
  }

  void ReadBack(uint64_t off, void* p, size_t n) override {
    Flush();
    IoEnv& io = IoEnv::Instance();
    char* c = static_cast<char*>(p);
    while (n > 0) {
      ssize_t r = io.Pread("snapshot_read", fd_, c, n,
                           static_cast<int64_t>(off));
      if (r < 0) {
        if (errno == EINTR) continue;
        IoError("read back from", path_);
      }
      if (r == 0) IoError("short read back from", path_);
      c += r;
      off += static_cast<uint64_t>(r);
      n -= static_cast<size_t>(r);
    }
  }

  /// Flush + fsync + close; throws if any byte may not have reached disk.
  void Close() {
    Flush();
    IoEnv& io = IoEnv::Instance();
    if (io.Fsync("snapshot_fsync", fd_) != 0) IoError("fsync of", path_);
    int fd = fd_;
    fd_ = -1;
    if (io.Close("snapshot_close", fd) != 0) IoError("close of", path_);
  }

  uint64_t buffer_bytes() const override { return kBufCap; }

 private:
  void Flush() {
    IoEnv& io = IoEnv::Instance();
    const char* c = buf_.data();
    size_t n = buf_.size();
    while (n > 0) {
      ssize_t w = io.Write("snapshot_write", fd_, c, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        IoError("write to", path_);
      }
      c += w;
      n -= static_cast<size_t>(w);
    }
    buf_.clear();
  }

  static constexpr size_t kBufCap = size_t{64} << 10;

  std::string path_;
  std::string buf_;
  int fd_ = -1;
};

/// Typed little writer over a Sink, tracking the file offset.
class Out {
 public:
  explicit Out(Sink* sink) : sink_(sink) {}

  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(T));
  }
  void U8(uint8_t v) { Pod(v); }
  void U32(uint32_t v) { Pod(v); }
  void U64(uint64_t v) { Pod(v); }
  void I32(int32_t v) { Pod(v); }
  void I64(int64_t v) { Pod(v); }
  void F64(double v) { Pod(v); }
  void Str32(const std::string& s) {
    if (s.size() > std::numeric_limits<uint32_t>::max()) TooLarge("string");
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Bytes(const void* p, size_t n) {
    sink_->Write(p, n);
    pos_ += n;
  }
  void Align8() {
    static const char kZeros[8] = {};
    Bytes(kZeros, (8 - pos_ % 8) % 8);
  }
  template <typename T>
  void PatchAt(uint64_t off, const T& v) {
    sink_->PatchAt(off, &v, sizeof(T));
  }
  uint64_t pos() const { return pos_; }
  Sink* sink() const { return sink_; }

 private:
  Sink* sink_;
  uint64_t pos_ = 0;
};

uint64_t NewEpoch() {
  static std::atomic<uint64_t> counter{0};
  std::random_device rd;
  uint64_t e = (uint64_t{rd()} << 32) ^ rd() ^
               (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  return e == 0 ? 1 : e;
}

void WriteValueCell(Out* out, const Value& v) {
  if (v.is_null()) {
    out->U8(kValNull);
  } else if (v.is_int()) {
    out->U8(kValInt);
    out->I64(v.as_int());
  } else if (v.is_double()) {
    out->U8(kValDouble);
    out->F64(v.as_double());
  } else {
    out->U8(kValString);
    out->Str32(v.as_string());
  }
}

void WriteFTree(Out* out, const FTree& tree) {
  out->U32(static_cast<uint32_t>(tree.num_nodes()));
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const FTreeNode& n = tree.node(i);
    out->U8(n.alive ? 1 : 0);
    out->U8(n.is_aggregate() ? 1 : 0);
    out->I32(n.parent);
    if (n.is_aggregate()) {
      out->U8(static_cast<uint8_t>(n.agg->fn));
      out->I32(n.agg->source);
      out->I32(n.agg->id);
      out->U32(static_cast<uint32_t>(n.agg->over.size()));
      for (AttrId a : n.agg->over) out->I32(a);
    } else {
      out->U32(static_cast<uint32_t>(n.attrs.size()));
      for (AttrId a : n.attrs) out->I32(a);
    }
    out->U32(static_cast<uint32_t>(n.children.size()));
    for (int c : n.children) out->I32(c);
  }
  out->U32(static_cast<uint32_t>(tree.roots().size()));
  for (int r : tree.roots()) out->I32(r);
  out->U32(static_cast<uint32_t>(tree.edges().size()));
  for (const Hyperedge& e : tree.edges()) {
    out->F64(e.weight);
    out->U32(static_cast<uint32_t>(e.attrs.size()));
    for (AttrId a : e.attrs) out->I32(a);
    out->Str32(e.name);
  }
}

std::string SerialiseFTree(const FTree& tree) {
  BufferSink sink;
  Out out(&sink);
  WriteFTree(&out, tree);
  return sink.Take();
}

/// Streams one view data segment — base or incremental delta — in write
/// order: a placeholder SegmentHeader, node records emitted as the
/// children-first reachability walk finalises each new node, the root id
/// array, then the value and child pools re-derived from the emission
/// order. The pools never materialise in memory; the only transient
/// state is the node -> id index and the emission order (O(nodes), not
/// O(values + children + file)).
///
/// `index` maps nodes persisted by earlier segments (base + prior
/// deltas) to their global ids and receives the new nodes; new ids start
/// at `first_id`. `string_id` maps a live dictionary code to its
/// snapshot-local string id.
class SegmentStreamer {
 public:
  SegmentStreamer(Out* out, PtrIdMap* index, uint64_t first_id,
                  std::function<uint32_t(uint32_t)> string_id)
      : out_(out),
        index_(index),
        first_id_(first_id),
        string_id_(std::move(string_id)) {}

  /// Writes the whole segment for `roots`; call exactly once.
  void WriteSegment(const std::vector<FactPtr>& roots) {
    out_->Align8();
    uint64_t header_at = out_->pos();
    SegmentHeader h{};
    out_->Pod(h);  // placeholder, patched below

    // Node records stream during the walk (children-first: every record
    // is complete — offsets and counts known — the moment it is written).
    std::vector<int64_t> root_ids;
    root_ids.reserve(roots.size());
    for (FactPtr r : roots) {
      if (r == nullptr || (r->values.empty() && r->children.empty())) {
        root_ids.push_back(-1);
      } else {
        root_ids.push_back(Emit(r));
      }
    }
    out_->Bytes(root_ids.data(), root_ids.size() * sizeof(int64_t));

    // Value pool: remap string refs to snapshot-local ids on the fly.
    for (FactPtr n : order_) {
      for (const ValueRef& v : n->values) {
        ValueRef stored = v;
        if (v.is_string()) {
          stored = ValueRef::StringRef(string_id_(v.string_code()));
        }
        out_->U64(stored.bits());
      }
    }
    // Child pool: global ids via the index.
    for (FactPtr n : order_) {
      for (FactPtr c : n->children) {
        int64_t id = index_->Find(c);
        if (id < 0) throw std::logic_error("snapshot: child not emitted");
        out_->U32(static_cast<uint32_t>(id));
      }
    }
    out_->Align8();

    h.num_nodes = order_.size();
    h.num_values = num_values_;
    h.num_children = num_children_;
    h.num_roots = root_ids.size();
    out_->PatchAt(header_at, h);
  }

  uint64_t new_nodes() const { return order_.size(); }
  uint64_t transient_bytes() const {
    return index_->MemoryBytes() + order_.capacity() * sizeof(FactPtr);
  }

 private:
  int64_t Emit(FactPtr n) {
    int64_t got = index_->Find(n);
    if (got >= 0) return got;
    for (FactPtr c : n->children) Emit(c);

    if (num_values_ > std::numeric_limits<uint32_t>::max() ||
        num_children_ > std::numeric_limits<uint32_t>::max()) {
      TooLarge("view data");
    }
    NodeRec rec;
    rec.value_off = static_cast<uint32_t>(num_values_);
    rec.num_values = static_cast<uint32_t>(n->values.size());
    rec.child_off = static_cast<uint32_t>(num_children_);
    rec.num_children = static_cast<uint32_t>(n->children.size());
    out_->Pod(rec);
    num_values_ += n->values.size();
    num_children_ += n->children.size();

    uint64_t id = first_id_ + order_.size();
    if (id > std::numeric_limits<uint32_t>::max()) TooLarge("node count");
    index_->Insert(n, static_cast<uint32_t>(id));
    order_.push_back(n);
    return static_cast<int64_t>(id);
  }

  Out* out_;
  PtrIdMap* index_;
  uint64_t first_id_;
  std::function<uint32_t(uint32_t)> string_id_;
  std::vector<FactPtr> order_;  ///< newly emitted nodes, id order
  uint64_t num_values_ = 0;
  uint64_t num_children_ = 0;
};

/// Starts a file: header + zeroed section table. Returns the table
/// offset for PatchSections.
uint64_t BeginFile(Out* out, size_t section_count) {
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.endian = kEndianProbe;
  header.section_count = section_count;
  out->Pod(header);
  uint64_t table_at = out->pos();
  for (size_t s = 0; s < section_count; ++s) {
    SectionEntry e{0, 0, 0, 0};
    out->Pod(e);
  }
  return table_at;
}

/// Stamps each entry's CRC32 by re-reading its payload off the sink.
/// Runs after the last section is written: every payload byte is final
/// by then (segment headers are back-patched within their section), and
/// only the header and section table — covered by no section — remain
/// to patch.
void FillSectionCrcs(Out* out, std::vector<SectionEntry>* entries) {
  std::vector<char> buf(size_t{64} << 10);
  for (SectionEntry& e : *entries) {
    uint32_t crc = 0;
    uint64_t off = e.offset;
    uint64_t left = e.size;
    while (left > 0) {
      size_t take = static_cast<size_t>(
          std::min<uint64_t>(left, buf.size()));
      out->sink()->ReadBack(off, buf.data(), take);
      crc = Crc32(buf.data(), take, crc);
      off += take;
      left -= take;
    }
    e.crc32 = crc;
  }
}

/// Patches the section table and the header's file size once all
/// sections are written.
void FinishFile(Out* out, uint64_t table_at,
                const std::vector<SectionEntry>& entries) {
  for (size_t s = 0; s < entries.size(); ++s) {
    out->PatchAt(table_at + s * sizeof(SectionEntry), entries[s]);
  }
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.endian = kEndianProbe;
  header.file_size = out->pos();
  header.section_count = entries.size();
  out->PatchAt(0, header);
}

void WriteRegistryRange(Out* out, const AttributeRegistry& reg, AttrId first) {
  out->U64(static_cast<uint64_t>(first));
  out->U64(static_cast<uint64_t>(reg.size() - first));
  for (AttrId id = first; id < reg.size(); ++id) out->Str32(reg.Name(id));
}

void WriteRelation(Out* out, const std::string& name, const Relation& rel) {
  out->Str32(name);
  out->U64(static_cast<uint64_t>(rel.schema().arity()));
  for (AttrId a : rel.schema().attrs()) out->I32(a);
  out->U64(static_cast<uint64_t>(rel.size()));
  for (const Tuple& row : rel.rows()) {
    for (const Value& v : row) WriteValueCell(out, v);
  }
}

void UpdatePeak(SaveStats* stats, uint64_t transient) {
  if (stats != nullptr && transient > stats->peak_transient_bytes) {
    stats->peak_transient_bytes = transient;
  }
}

/// The base writer, shared by SerialiseDatabase (BufferSink) and
/// SaveSnapshot (FileSink).
void WriteBase(Out* out, const Database& db, SaveStats* stats,
               PersistState* retain) {
  const ValueDict& dict = db.dict();
  // Interning — and with it rank shifts and new codes — is frozen for
  // the whole serialisation: the rank-ordered string table, the
  // rank-encoded refs in every view segment, and the big-int pool must
  // all describe one consistent dictionary state even while concurrent
  // updates intern (shared mode: readers are unaffected; nothing below
  // interns).
  auto frozen = dict.FreezeRanks();
  uint64_t epoch = NewEpoch();

  std::vector<uint32_t> kinds = {kSectionRegistry, kSectionDictStrings,
                                 kSectionDictBigInts, kSectionRelations,
                                 kSectionViews, kSectionMeta};
  uint64_t table_at = BeginFile(out, kinds.size());
  std::vector<SectionEntry> entries;

  for (uint32_t kind : kinds) {
    out->Align8();
    uint64_t begin = out->pos();
    switch (kind) {
      case kSectionRegistry:
        // The base "range" is the whole registry: ids from 0.
        out->U64(static_cast<uint64_t>(db.registry().size()));
        for (AttrId id = 0; id < db.registry().size(); ++id) {
          out->Str32(db.registry().Name(id));
        }
        break;
      case kSectionDictStrings: {
        // In rank order: the snapshot-local id of a string is its rank.
        size_t n = dict.num_strings();
        std::vector<uint32_t> by_rank(n);
        for (uint32_t code = 0; code < n; ++code) {
          by_rank[dict.rank(code)] = code;
        }
        UpdatePeak(stats, by_rank.size() * sizeof(uint32_t) +
                              out->sink()->buffer_bytes());
        out->U64(n);
        for (uint32_t code : by_rank) out->Str32(dict.str(code));
        break;
      }
      case kSectionDictBigInts:
        out->U64(dict.num_big_ints());
        for (uint32_t i = 0; i < dict.num_big_ints(); ++i) {
          out->I64(dict.big_int(i));
        }
        break;
      case kSectionRelations: {
        std::vector<std::string> names = db.RelationNames();
        out->U64(names.size());
        for (const std::string& name : names) {
          WriteRelation(out, name, *db.relation(name));
        }
        break;
      }
      case kSectionViews: {
        std::vector<std::string> names = db.ViewNames();
        out->U64(names.size());
        for (const std::string& name : names) {
          // Hold the version across serialisation: a concurrent view
          // swap must not retire these nodes mid-walk.
          std::shared_ptr<const Factorisation> f = db.ViewSnapshot(name);
          out->Str32(name);
          std::string tree_blob = SerialiseFTree(f->tree());
          out->Bytes(tree_blob.data(), tree_blob.size());
          PtrIdMap local_index;
          PtrIdMap* index = &local_index;
          if (retain != nullptr) {
            index = &retain->views[name].index;
          }
          SegmentStreamer seg(out, index, 0, [&dict](uint32_t code) {
            return dict.rank(code);
          });
          seg.WriteSegment(f->roots());
          UpdatePeak(stats, seg.transient_bytes() +
                                out->sink()->buffer_bytes());
          if (retain != nullptr) {
            PersistState::ViewBase& vb = retain->views[name];
            vb.pinned = std::move(f);
            vb.num_nodes = seg.new_nodes();
            vb.rebuild_gen = vb.pinned->rebuild_generation();
            vb.tree_blob = std::move(tree_blob);
          }
        }
        break;
      }
      case kSectionMeta:
        out->U64(epoch);
        break;
    }
    entries.push_back(SectionEntry{kind, 0, begin, out->pos() - begin});
  }
  FillSectionCrcs(out, &entries);
  FinishFile(out, table_at, entries);

  if (stats != nullptr) stats->bytes_written = out->pos();
  if (retain != nullptr) {
    retain->epoch = epoch;
    retain->next_seq = 1;
    retain->base_bytes = out->pos();
    retain->delta_bytes = 0;
    retain->base_strings = dict.num_strings();
    retain->string_watermark = dict.num_strings();
    retain->base_rank.resize(dict.num_strings());
    for (uint32_t code = 0; code < retain->base_strings; ++code) {
      retain->base_rank[code] = dict.rank(code);
    }
    retain->bigint_watermark = dict.num_big_ints();
    retain->attr_watermark = static_cast<uint64_t>(db.registry().size());
    retain->relation_versions.clear();
    for (const std::string& name : db.RelationNames()) {
      retain->relation_versions[name] = db.relation_version(name);
    }
  }
}

/// Removes every delta file (and stray delta temp file) of `path`. A
/// freshly written base supersedes them all; epoch stamps additionally
/// protect readers against any leftover this cleanup misses. Probes past
/// gaps up to twice the chain bound so a crash mid-cleanup (delta-1
/// gone, delta-2 stranded) cannot leak files across the next fold.
void RemoveStaleDeltas(const std::string& path) {
  for (uint64_t seq = 1;; ++seq) {
    std::string dp = DeltaPath(path, seq);
    bool had = std::remove(dp.c_str()) == 0;
    bool had_tmp = std::remove((dp + ".tmp").c_str()) == 0;
    if (!had && !had_tmp && seq > 2 * kMaxDeltaChain) break;
  }
}

/// True when a delta written now would carry anything — cheap watermark,
/// version and pin comparisons, no serialisation. Lets Checkpoint report
/// kNoop on an idle database even when the fold threshold has tripped
/// (a fold that writes nothing new is pure wasted I/O).
bool HasChangesSince(const Database& db, const PersistState& st) {
  const ValueDict& dict = db.dict();
  if (static_cast<uint64_t>(db.registry().size()) != st.attr_watermark ||
      dict.num_strings() != st.string_watermark ||
      dict.num_big_ints() != st.bigint_watermark) {
    return true;
  }
  for (const std::string& name : db.RelationNames()) {
    auto it = st.relation_versions.find(name);
    if (it == st.relation_versions.end() ||
        it->second != db.relation_version(name)) {
      return true;
    }
  }
  for (const std::string& name : db.ViewNames()) {
    auto it = st.views.find(name);
    if (it == st.views.end() || it->second.pinned != db.ViewSnapshot(name)) {
      return true;
    }
  }
  return false;
}

void FsyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  IoEnv& io = IoEnv::Instance();
  int fd = io.Open("dir_open", dir.c_str(),
                   O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
  if (fd < 0) IoError("open of directory", dir);
  if (io.Fsync("dir_fsync", fd) != 0) {
    int saved = errno;
    io.Close("dir_close", fd);
    errno = saved;
    IoError("fsync of directory", dir);
  }
  io.Close("dir_close", fd);
}

/// Streams `write` into `path + ".tmp"`, fsyncs, atomically renames over
/// `path`, then fsyncs the parent directory — the crash-safe publish
/// used by base saves and delta appends alike.
void WriteFileAtomically(const std::string& path,
                         const std::function<void(Out*)>& write) {
  std::string tmp = path + ".tmp";
  try {
    FileSink sink(tmp);
    Out out(&sink);
    write(&out);
    sink.Close();
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (IoEnv::Instance().Rename("snapshot_rename", tmp.c_str(),
                               path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::invalid_argument("snapshot: cannot replace " + path + ": " +
                                std::strerror(errno));
  }
  FsyncParentDir(path);
}

/// The epoch stamp of the base file at `path`, or nullopt if the file is
/// missing, unreadable, of another format version, or has no meta
/// section. Checkpoint reads it before appending a delta: if another
/// writer re-based the path since this chain started, appending would
/// stamp the delta with a dead epoch — reported as success but skipped
/// forever at Open. A mismatch forces a rebase instead.
std::optional<uint64_t> ReadBaseEpoch(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FileHeader h;
  if (!in.read(reinterpret_cast<char*>(&h), sizeof(h))) return std::nullopt;
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0 ||
      h.endian != kEndianProbe || h.version != kVersion ||
      h.section_count > 64) {
    return std::nullopt;
  }
  for (uint64_t s = 0; s < h.section_count; ++s) {
    SectionEntry e;
    if (!in.read(reinterpret_cast<char*>(&e), sizeof(e))) return std::nullopt;
    if (e.kind == kSectionMeta && e.size >= sizeof(uint64_t)) {
      uint64_t epoch = 0;
      if (!in.seekg(static_cast<std::streamoff>(e.offset)) ||
          !in.read(reinterpret_cast<char*>(&epoch), sizeof(epoch))) {
        return std::nullopt;
      }
      return epoch;
    }
  }
  return std::nullopt;
}

}  // namespace

std::string DeltaPath(const std::string& path, uint64_t seq) {
  return path + ".delta-" + std::to_string(seq);
}

std::string CanonicalSnapshotPath(const std::string& path) {
  std::error_code ec;
  std::filesystem::path canon = std::filesystem::weakly_canonical(path, ec);
  return ec ? path : canon.string();
}

int64_t PtrIdMap::Find(const void* p) const {
  if (keys_.empty()) return -1;
  size_t mask = keys_.size() - 1;
  size_t i = (reinterpret_cast<uintptr_t>(p) >> 4) & mask;
  while (keys_[i] != nullptr) {
    if (keys_[i] == p) return vals_[i];
    i = (i + 1) & mask;
  }
  return -1;
}

void PtrIdMap::Insert(const void* p, uint32_t id) {
  if (keys_.empty() || size_ * 4 >= keys_.size() * 3) Grow();
  size_t mask = keys_.size() - 1;
  size_t i = (reinterpret_cast<uintptr_t>(p) >> 4) & mask;
  while (keys_[i] != nullptr) i = (i + 1) & mask;
  keys_[i] = p;
  vals_[i] = id;
  ++size_;
}

void PtrIdMap::Grow() {
  std::vector<const void*> old_keys = std::move(keys_);
  std::vector<uint32_t> old_vals = std::move(vals_);
  size_t cap = old_keys.empty() ? 1024 : old_keys.size() * 2;
  keys_.assign(cap, nullptr);
  vals_.assign(cap, 0);
  size_t mask = cap - 1;
  for (size_t s = 0; s < old_keys.size(); ++s) {
    if (old_keys[s] == nullptr) continue;
    size_t i = (reinterpret_cast<uintptr_t>(old_keys[s]) >> 4) & mask;
    while (keys_[i] != nullptr) i = (i + 1) & mask;
    keys_[i] = old_keys[s];
    vals_[i] = old_vals[s];
  }
}

std::string SerialiseDatabase(const Database& db) {
  BufferSink sink;
  Out out(&sink);
  WriteBase(&out, db, nullptr, nullptr);
  return sink.Take();
}

void SaveSnapshot(const Database& db, const std::string& path,
                  SaveStats* stats, PersistState* retain) {
  WriteFileAtomically(path, [&](Out* out) {
    WriteBase(out, db, stats, retain);
  });
  if (retain != nullptr) retain->path = path;
  RemoveStaleDeltas(path);
}

CheckpointInfo AppendCheckpoint(const Database& db, PersistState* st,
                                SaveStats* stats) {
  const ValueDict& dict = db.dict();
  const AttributeRegistry& reg = db.registry();
  auto frozen = dict.FreezeRanks();

  // --- what changed since the last checkpoint ------------------------------
  uint64_t new_attrs = static_cast<uint64_t>(reg.size()) - st->attr_watermark;
  uint64_t new_strings = dict.num_strings() - st->string_watermark;
  uint64_t new_bigints = dict.num_big_ints() - st->bigint_watermark;

  std::vector<std::string> changed_rels;
  for (const std::string& name : db.RelationNames()) {
    auto it = st->relation_versions.find(name);
    if (it == st->relation_versions.end() ||
        it->second != db.relation_version(name)) {
      changed_rels.push_back(name);
    }
  }
  struct ChangedView {
    std::string name;
    std::shared_ptr<const Factorisation> cur;
    bool full = false;
    std::string tree_blob;
  };
  std::vector<ChangedView> changed_views;
  for (const std::string& name : db.ViewNames()) {
    std::shared_ptr<const Factorisation> cur = db.ViewSnapshot(name);
    auto it = st->views.find(name);
    if (it != st->views.end() && it->second.pinned == cur) continue;
    std::string tree_blob = SerialiseFTree(cur->tree());
    // Incremental only when the persisted nodes are provably still
    // alive: the current version's arena chain must keep the pinned
    // version's arena (updates adopt it; a rebuild — Compact,
    // CompressInPlace, or an AddView of a from-scratch factorisation —
    // breaks the chain, and a freed node's address could alias a new
    // node in the retained index). The rebuild generation catches
    // adopt-preserving rebuilds whose node identities changed anyway.
    bool full = it == st->views.end() ||
                it->second.rebuild_gen != cur->rebuild_generation() ||
                !cur->arena()->KeepsAlive(it->second.pinned->arena().get()) ||
                it->second.tree_blob != tree_blob;
    changed_views.push_back({name, std::move(cur), full,
                             std::move(tree_blob)});
  }

  if (new_attrs == 0 && new_strings == 0 && new_bigints == 0 &&
      changed_rels.empty() && changed_views.empty()) {
    return CheckpointInfo{CheckpointInfo::kNoop, 0, 0};
  }

  // --- write the delta file ------------------------------------------------
  uint64_t seq = st->next_seq;
  std::string path = DeltaPath(st->path, seq);
  uint64_t bytes = 0;
  WriteFileAtomically(path, [&](Out* out) {
    const uint32_t kinds[6] = {kSectionDeltaManifest, kSectionRegistryDelta,
                               kSectionDictStringsDelta,
                               kSectionDictBigIntsDelta,
                               kSectionRelationsDelta, kSectionViewDeltas};
    uint64_t table_at = BeginFile(out, 6);
    std::vector<SectionEntry> entries;
    for (uint32_t kind : kinds) {
      out->Align8();
      uint64_t begin = out->pos();
      switch (kind) {
        case kSectionDeltaManifest:
          out->U64(st->epoch);
          out->U64(seq);
          break;
        case kSectionRegistryDelta:
          WriteRegistryRange(out, reg,
                             static_cast<AttrId>(st->attr_watermark));
          break;
        case kSectionDictStringsDelta:
          // In code (append) order: the snapshot-string-id of code c is c
          // itself once c is past the base (base ids 0..B-1 are ranks).
          out->U64(st->string_watermark);
          out->U64(new_strings);
          for (uint64_t c = st->string_watermark; c < dict.num_strings();
               ++c) {
            out->Str32(dict.str(static_cast<uint32_t>(c)));
          }
          break;
        case kSectionDictBigIntsDelta:
          out->U64(st->bigint_watermark);
          out->U64(new_bigints);
          for (uint64_t s = st->bigint_watermark; s < dict.num_big_ints();
               ++s) {
            out->I64(dict.big_int(static_cast<uint32_t>(s)));
          }
          break;
        case kSectionRelationsDelta:
          out->U64(changed_rels.size());
          for (const std::string& name : changed_rels) {
            WriteRelation(out, name, *db.relation(name));
          }
          break;
        case kSectionViewDeltas: {
          out->U64(changed_views.size());
          auto string_id = [st, &dict](uint32_t code) {
            return code < st->base_strings ? st->base_rank[code] : code;
          };
          for (ChangedView& cv : changed_views) {
            out->Str32(cv.name);
            PersistState::ViewBase& vb = st->views[cv.name];
            if (cv.full) {
              out->U8(kViewDeltaFull);
              out->Bytes(cv.tree_blob.data(), cv.tree_blob.size());
              vb.index = PtrIdMap();  // supersedes base + prior deltas
              SegmentStreamer seg(out, &vb.index, 0, string_id);
              seg.WriteSegment(cv.cur->roots());
              vb.num_nodes = seg.new_nodes();
              vb.tree_blob = std::move(cv.tree_blob);
              UpdatePeak(stats, seg.transient_bytes() +
                                    out->sink()->buffer_bytes());
            } else {
              out->U8(kViewDeltaIncremental);
              out->U64(vb.num_nodes);
              SegmentStreamer seg(out, &vb.index, vb.num_nodes, string_id);
              seg.WriteSegment(cv.cur->roots());
              vb.num_nodes += seg.new_nodes();
              UpdatePeak(stats, seg.transient_bytes() +
                                    out->sink()->buffer_bytes());
            }
            vb.rebuild_gen = cv.cur->rebuild_generation();
            vb.pinned = std::move(cv.cur);
          }
          break;
        }
      }
      entries.push_back(SectionEntry{kind, 0, begin, out->pos() - begin});
    }
    FillSectionCrcs(out, &entries);
    FinishFile(out, table_at, entries);
    bytes = out->pos();
  });

  // --- commit the new watermarks -------------------------------------------
  st->attr_watermark = static_cast<uint64_t>(reg.size());
  st->string_watermark = dict.num_strings();
  st->bigint_watermark = dict.num_big_ints();
  for (const std::string& name : changed_rels) {
    st->relation_versions[name] = db.relation_version(name);
  }
  st->next_seq = seq + 1;
  st->delta_bytes += bytes;
  if (stats != nullptr) stats->bytes_written = bytes;
  return CheckpointInfo{CheckpointInfo::kDelta, bytes, seq};
}

}  // namespace storage

// Public Save/Checkpoint take txn_mu_ first (a fold must not interleave
// with a commit's log append, and the *Locked internals let EnableWal
// checkpoint while already holding txn_mu_), then reset a bound WAL once
// the chain durably holds everything the log did.

void Database::Save(const std::string& raw_path) const {
  static obs::Histogram& save_hist = obs::Registry::Instance().GetHistogram(
      "storage.save_ns", "ns", "Database::Save wall time");
  static obs::Counter& save_bytes = obs::Registry::Instance().GetCounter(
      "storage.save_bytes", "bytes", "snapshot bytes written by Save");
  obs::ScopedLatency latency(save_hist);
  std::string path = storage::CanonicalSnapshotPath(raw_path);
  {
    base::MutexLock t(&txn_mu_);
    storage::SaveStats stats;
    SaveLocked(path, &stats);
    save_bytes.Inc(stats.bytes_written);
    if (obs::LogEnabled()) {
      obs::EventLog::Instance().Emit(
          obs::EventType::kSave,
          {obs::F("path", path), obs::F("bytes", stats.bytes_written)});
    }
    ResetWalAfterFoldLocked(path);
  }
  // Deep-validate after the fold, outside txn_mu_ (the checker takes the
  // view-map and persist locks itself).
  if (check::Enabled()) check::ValidateDatabaseOrThrow(*this);
}

storage::CheckpointInfo Database::Checkpoint(
    const std::string& raw_path) const {
  static obs::Histogram& ckpt_hist = obs::Registry::Instance().GetHistogram(
      "storage.checkpoint_ns", "ns", "Database::Checkpoint wall time");
  static obs::Histogram& ckpt_bytes = obs::Registry::Instance().GetHistogram(
      "storage.checkpoint_bytes", "bytes",
      "bytes written per checkpoint (base or delta)");
  static obs::Counter& ckpt_base = obs::Registry::Instance().GetCounter(
      "storage.checkpoint_base", "checkpoints", "base snapshots written");
  static obs::Counter& ckpt_delta = obs::Registry::Instance().GetCounter(
      "storage.checkpoint_delta", "checkpoints", "delta appends written");
  static obs::Counter& ckpt_noop = obs::Registry::Instance().GetCounter(
      "storage.checkpoint_noop", "checkpoints",
      "checkpoints skipped (no changes)");
  obs::ScopedLatency latency(ckpt_hist);
  std::string path = storage::CanonicalSnapshotPath(raw_path);
  storage::CheckpointInfo info;
  {
    base::MutexLock t(&txn_mu_);
    info = CheckpointLocked(path);
    // On kNoop the log is necessarily empty and still correctly stamped
    // (every committed group makes HasChangesSince true until folded), so
    // only an actual write needs the reset. It must happen under the same
    // txn_mu_ hold as the fold: a commit interleaving between them would
    // be wiped from the log without ever reaching the chain.
    if (info.kind != storage::CheckpointInfo::kNoop) {
      ResetWalAfterFoldLocked(path);
    }
  }
  switch (info.kind) {
    case storage::CheckpointInfo::kBase:
      ckpt_base.Inc();
      ckpt_bytes.Record(info.bytes);
      break;
    case storage::CheckpointInfo::kDelta:
      ckpt_delta.Inc();
      ckpt_bytes.Record(info.bytes);
      break;
    case storage::CheckpointInfo::kNoop:
      ckpt_noop.Inc();
      break;
  }
  if (obs::LogEnabled()) {
    const char* kind = info.kind == storage::CheckpointInfo::kBase ? "base"
                       : info.kind == storage::CheckpointInfo::kDelta
                           ? "delta"
                           : "noop";
    obs::EventLog::Instance().Emit(
        obs::EventType::kCheckpoint,
        {obs::F("path", path), obs::F("kind", kind),
         obs::F("bytes", info.bytes), obs::F("seq", info.seq)});
  }
  // On kNoop the chain and the live state were just proven in sync, so
  // the deep check is only worth its cost when something was written.
  if (info.kind != storage::CheckpointInfo::kNoop && check::Enabled()) {
    check::ValidateDatabaseOrThrow(*this);
  }
  return info;
}

// Re-stamps a WAL bound to `path` after the chain at `path` was rewritten
// or extended: everything the log held is now durable in the chain, so
// the log restarts empty at the new (epoch, chain position). Requires
// txn_mu_. A failed reset marks the log broken — durability is unaffected
// (the chain already has it all), the next Commit reports it, and
// EnableWal recovers — so the fold's success is not retracted.
void Database::ResetWalAfterFoldLocked(const std::string& path) const {
  if (wal_ == nullptr || wal_base_ != path) return;
  uint64_t epoch = 0;
  uint64_t chain_pos = 0;
  {
    base::MutexLock g(&persist_mu_);
    if (persist_ == nullptr) return;  // checkpoint failed; stamp still valid
    epoch = persist_->epoch;
    chain_pos = persist_->next_seq - 1;
  }
  try {
    wal_->Reset(epoch, chain_pos);
  } catch (const std::exception&) {
    // wal_->broken() is now set; surfaced by WalStatus and the next Commit.
  }
}

void Database::SaveLocked(const std::string& path,
                          storage::SaveStats* stats) const {
  base::MutexLock g(&persist_mu_);
  if ((persist_ != nullptr && persist_->path == path) ||
      (wal_ != nullptr && wal_base_ == path)) {
    // Rewriting the base a checkpoint chain (or WAL) hangs off: fold —
    // refresh the retained state against the new base (the old deltas
    // are removed), so the caller can re-stamp the log.
    auto fresh = std::make_shared<storage::PersistState>();
    persist_.reset();
    storage::SaveSnapshot(*this, path, stats, fresh.get());
    persist_ = std::move(fresh);
  } else {
    storage::SaveSnapshot(*this, path, stats);
  }
}

storage::CheckpointInfo Database::CheckpointLocked(
    const std::string& path) const {
  base::MutexLock g(&persist_mu_);
  if (persist_ != nullptr && persist_->path == path &&
      !storage::HasChangesSince(*this, *persist_)) {
    return {storage::CheckpointInfo::kNoop, 0, 0};
  }
  bool rebase = persist_ == nullptr || persist_->path != path ||
                persist_->next_seq > storage::kMaxDeltaChain ||
                persist_->delta_bytes * 2 > persist_->base_bytes;
  if (!rebase) {
    // The base on disk must still be the one this chain hangs off —
    // another writer (a Database copy, another process) may have
    // re-based the path, and a delta stamped with the dead epoch would
    // be silently skipped at Open.
    std::optional<uint64_t> disk = storage::ReadBaseEpoch(path);
    rebase = !disk.has_value() || *disk != persist_->epoch;
  }
  if (rebase) {
    auto fresh = std::make_shared<storage::PersistState>();
    persist_.reset();
    storage::SaveStats stats;
    storage::SaveSnapshot(*this, path, &stats, fresh.get());
    persist_ = std::move(fresh);
    return {storage::CheckpointInfo::kBase, stats.bytes_written, 0};
  }
  try {
    return storage::AppendCheckpoint(*this, persist_.get());
  } catch (...) {
    // The retained index may be half-updated: drop it so the next
    // checkpoint writes a fresh base instead of a wrong delta.
    persist_.reset();
    throw;
  }
}

}  // namespace fdb
