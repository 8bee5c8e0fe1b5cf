#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
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

/// Open-addressed pointer -> dense-id map of the segment writer (12
/// bytes per slot in parallel arrays; an unordered_map would several-fold
/// the writer's peak transient memory, which this map dominates).
class PtrIdMap {
 public:
  /// The id of `p`, or -1 if absent.
  int64_t Find(const void* p) const {
    if (keys_.empty()) return -1;
    size_t mask = keys_.size() - 1;
    size_t i = (reinterpret_cast<uintptr_t>(p) >> 4) & mask;
    while (keys_[i] != nullptr) {
      if (keys_[i] == p) return vals_[i];
      i = (i + 1) & mask;
    }
    return -1;
  }

  /// Inserts p -> id (p must be absent and non-null).
  void Insert(const void* p, uint32_t id) {
    if (keys_.empty() || size_ * 4 >= keys_.size() * 3) Grow();
    size_t mask = keys_.size() - 1;
    size_t i = (reinterpret_cast<uintptr_t>(p) >> 4) & mask;
    while (keys_[i] != nullptr) i = (i + 1) & mask;
    keys_[i] = p;
    vals_[i] = id;
    ++size_;
  }

  uint64_t MemoryBytes() const {
    return keys_.capacity() * sizeof(const void*) +
           vals_.capacity() * sizeof(uint32_t);
  }

 private:
  void Grow() {
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

  std::vector<const void*> keys_;  ///< nullptr = empty slot
  std::vector<uint32_t> vals_;
  size_t size_ = 0;
};

/// Streams one view data segment in write order: a placeholder
/// SegmentHeader, node records emitted as the children-first
/// reachability walk finalises each node, the root id array, then the
/// value and child pools re-derived from the emission order. The pools
/// never materialise in memory; the only transient state is the
/// node -> id index and the emission order (O(nodes), not
/// O(values + children + file)). String refs are stored as their rank
/// in `dict` (the snapshot-local string id).
class SegmentStreamer {
 public:
  SegmentStreamer(Out* out, const ValueDict& dict) : out_(out), dict_(dict) {}

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
          stored = ValueRef::StringRef(dict_.rank(v.string_code()));
        }
        out_->U64(stored.bits());
      }
    }
    // Child pool: node ids via the index.
    for (FactPtr n : order_) {
      for (FactPtr c : n->children) {
        int64_t id = index_.Find(c);
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

  uint64_t transient_bytes() const {
    return index_.MemoryBytes() + order_.capacity() * sizeof(FactPtr);
  }

 private:
  int64_t Emit(FactPtr n) {
    int64_t got = index_.Find(n);
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

    uint64_t id = order_.size();
    if (id > std::numeric_limits<uint32_t>::max()) TooLarge("node count");
    index_.Insert(n, static_cast<uint32_t>(id));
    order_.push_back(n);
    return static_cast<int64_t>(id);
  }

  Out* out_;
  const ValueDict& dict_;
  PtrIdMap index_;
  std::vector<FactPtr> order_;  ///< emitted nodes, id order
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
/// SaveSnapshot (FileSink). Returns the epoch stamped into the file.
uint64_t WriteBase(Out* out, const Database& db, SaveStats* stats) {
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
          WriteFTree(out, f->tree());
          SegmentStreamer seg(out, dict);
          seg.WriteSegment(f->roots());
          UpdatePeak(stats, seg.transient_bytes() +
                                out->sink()->buffer_bytes());
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
  return epoch;
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

}  // namespace

std::string CanonicalSnapshotPath(const std::string& path) {
  std::error_code ec;
  std::filesystem::path canon = std::filesystem::weakly_canonical(path, ec);
  return ec ? path : canon.string();
}

std::string SerialiseDatabase(const Database& db) {
  BufferSink sink;
  Out out(&sink);
  WriteBase(&out, db, nullptr);
  return sink.Take();
}

uint64_t SaveSnapshot(const Database& db, const std::string& path,
                      SaveStats* stats) {
  // Stream into `path.tmp`, fsync, atomically rename over `path`, then
  // fsync the parent directory.
  std::string tmp = path + ".tmp";
  uint64_t epoch = 0;
  try {
    FileSink sink(tmp);
    Out out(&sink);
    epoch = WriteBase(&out, db, stats);
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
  // Older builds appended checkpoint deltas `<path>.delta-1`, `-2`, ...;
  // the base just written supersedes them, and Open refuses a base with
  // one beside it.
  for (int seq = 1;
       std::remove((path + ".delta-" + std::to_string(seq)).c_str()) == 0;
       ++seq) {
  }
  return epoch;
}

}  // namespace storage

// Public Save/Checkpoint take txn_mu_: a base must not interleave with a
// commit's log append, and the *Locked internals let EnableWal and
// DisableWal write one while already holding txn_mu_.

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
  }
  // Deep-validate outside txn_mu_ (the checker takes it to read persist_).
  if (check::Enabled()) check::ValidateDatabaseOrThrow(*this);
}

storage::CheckpointInfo Database::Checkpoint(
    const std::string& raw_path) const {
  static obs::Histogram& ckpt_hist = obs::Registry::Instance().GetHistogram(
      "storage.checkpoint_ns", "ns", "Database::Checkpoint wall time");
  static obs::Histogram& ckpt_bytes = obs::Registry::Instance().GetHistogram(
      "storage.checkpoint_bytes", "bytes", "bytes written per checkpoint");
  static obs::Counter& ckpt_base = obs::Registry::Instance().GetCounter(
      "storage.checkpoint_base", "checkpoints", "base snapshots written");
  static obs::Counter& ckpt_noop = obs::Registry::Instance().GetCounter(
      "storage.checkpoint_noop", "checkpoints",
      "checkpoints skipped (no changes)");
  obs::ScopedLatency latency(ckpt_hist);
  std::string path = storage::CanonicalSnapshotPath(raw_path);
  storage::CheckpointInfo info;
  {
    base::MutexLock t(&txn_mu_);
    info = CheckpointLocked(path);
  }
  bool wrote = info.kind == storage::CheckpointInfo::kBase;
  if (wrote) {
    ckpt_base.Inc();
    ckpt_bytes.Record(info.bytes);
  } else {
    ckpt_noop.Inc();
  }
  if (obs::LogEnabled()) {
    obs::EventLog::Instance().Emit(
        obs::EventType::kCheckpoint,
        {obs::F("path", path), obs::F("kind", wrote ? "base" : "noop"),
         obs::F("bytes", info.bytes)});
  }
  // On kNoop the base and the live state were just proven in sync, so
  // the deep check is only worth its cost when something was written.
  if (wrote && check::Enabled()) check::ValidateDatabaseOrThrow(*this);
  return info;
}

uint64_t Database::SaveLocked(const std::string& path,
                              storage::SaveStats* stats) const {
  // Read before writing: a view published while the base streams may be
  // missing from it, so it must keep the next Checkpoint from a kNoop.
  storage::PersistState saved{path, 0, changes_.load(),
                              static_cast<uint64_t>(reg_.size())};
  // Forgotten until the new base is durable: after a failure the next
  // Checkpoint of `path` writes again, whatever reached the disk.
  persist_.reset();
  try {
    saved.epoch = storage::SaveSnapshot(*this, path, stats);
  } catch (...) {
    // The failure may have come after the new base replaced the one a
    // log bound to `path` is stamped for (a failed directory fsync).
    if (wal_ != nullptr && wal_base_ == path) wal_->MarkBroken();
    throw;
  }
  persist_ = saved;
  // Everything a log bound to `path` held is now in the base: restart it
  // empty under the new epoch. A failed reset marks the log broken —
  // durability is unaffected (the base has it all), the next Commit
  // reports it, and EnableWal recovers — so the save still succeeded.
  if (wal_ != nullptr && wal_base_ == path) {
    try {
      wal_->Reset(saved.epoch);
    } catch (const std::exception&) {
      // wal_->broken() is now set; surfaced by WalStatus and the next Commit.
    }
  }
  return saved.epoch;
}

storage::CheckpointInfo Database::CheckpointLocked(
    const std::string& path) const {
  // On kNoop a log bound to `path` is necessarily empty and correctly
  // stamped: every commit publishes a view, which bumps changes_.
  if (persist_.has_value() && persist_->path == path &&
      persist_->changes == changes_.load() &&
      persist_->attrs == static_cast<uint64_t>(reg_.size())) {
    return {storage::CheckpointInfo::kNoop, 0};
  }
  storage::SaveStats stats;
  SaveLocked(path, &stats);
  return {storage::CheckpointInfo::kBase, stats.bytes_written};
}

}  // namespace fdb
