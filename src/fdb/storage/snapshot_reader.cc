#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "fdb/check/check.h"
#include "fdb/core/factorisation.h"
#include "fdb/engine/database.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/storage/format.h"
#include "fdb/storage/snapshot.h"
#include "fdb/storage/wal.h"

namespace fdb {
namespace storage {
namespace {

// The file (or "<memory>") the current parse reads from, so every
// rejection names its source — corrupt-file triage should never have to
// guess which file is damaged. Thread-local because
// parses of different snapshots may run concurrently.
thread_local const std::string* g_parse_source = nullptr;

struct ParseSourceScope {
  explicit ParseSourceScope(const std::string& source)
      : prev(g_parse_source) {
    g_parse_source = &source;
  }
  ~ParseSourceScope() { g_parse_source = prev; }
  const std::string* prev;
};

[[noreturn]] void Corrupt(const std::string& what) {
  std::string msg = "snapshot: ";
  if (g_parse_source != nullptr) msg += *g_parse_source + ": ";
  msg += what;
  throw std::invalid_argument(msg);
}

[[noreturn]] void CorruptAt(uint64_t off, const std::string& what) {
  Corrupt("at byte " + std::to_string(off) + ": " + what);
}

/// Bounds-checked cursor over a byte range of the mapping. Every read is
/// a memcpy load, so nothing here requires alignment; alignment only
/// matters for the value pools served in place, which the section
/// parsers check explicitly.
class Reader {
 public:
  Reader(const std::byte* base, size_t begin, size_t end)
      : base_(base), pos_(begin), end_(end) {
    if (begin > end) Corrupt("section range inverted");
  }

  template <typename T>
  T Pod() {
    Require(sizeof(T));
    T v;
    std::memcpy(&v, base_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  uint8_t U8() { return Pod<uint8_t>(); }
  uint32_t U32() { return Pod<uint32_t>(); }
  uint64_t U64() { return Pod<uint64_t>(); }
  int32_t I32() { return Pod<int32_t>(); }
  int64_t I64() { return Pod<int64_t>(); }
  double F64() { return Pod<double>(); }

  std::string Str32() {
    uint32_t len = U32();
    Require(len);
    std::string s(reinterpret_cast<const char*>(base_ + pos_), len);
    pos_ += len;
    return s;
  }

  void Skip(uint64_t n) {
    Require(n);
    pos_ += static_cast<size_t>(n);
  }
  void Align8() {
    size_t pad = (8 - pos_ % 8) % 8;
    Require(pad);
    pos_ += pad;
  }
  size_t pos() const { return pos_; }
  uint64_t remaining() const { return end_ - pos_; }

  void Require(uint64_t n) const {
    if (n > end_ - pos_) {
      CorruptAt(pos_, "truncated input (need " + std::to_string(n) +
                          " more bytes, section ends at " +
                          std::to_string(end_) + ")");
    }
  }

 private:
  const std::byte* base_;
  size_t pos_;
  size_t end_;
};

FTree ReadFTreeBlob(Reader* in, AttributeRegistry* reg, int num_attrs) {
  uint32_t num_nodes = in->U32();
  // Each node record is at least 12 bytes; bound the count up front so a
  // corrupt header cannot demand RawNode storage far beyond the section.
  if (num_nodes > in->remaining() / 12) Corrupt("f-tree node table too large");
  auto check_attr = [&](int32_t a, bool allow_invalid) {
    if (a == kInvalidAttr && allow_invalid) return;
    if (a < 0 || a >= num_attrs) Corrupt("attribute id out of range");
  };

  std::vector<FTree::RestoredNode> raw;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    FTree::RestoredNode& n = raw.emplace_back();
    n.alive = in->U8() != 0;
    bool is_agg = in->U8() != 0;
    int32_t parent = in->I32();
    if (parent < -1 || parent >= static_cast<int32_t>(num_nodes)) {
      Corrupt("f-tree parent out of range");
    }
    n.parent = parent;
    if (is_agg) {
      AggregateLabel& agg = n.agg.emplace();
      uint8_t fn = in->U8();
      if (fn > static_cast<uint8_t>(AggFn::kMax)) {
        Corrupt("unknown aggregate function");
      }
      agg.fn = static_cast<AggFn>(fn);
      int32_t source = in->I32();
      check_attr(source, /*allow_invalid=*/true);
      agg.source = source;
      int32_t id = in->I32();
      check_attr(id, /*allow_invalid=*/false);
      agg.id = id;
      uint32_t nover = in->U32();
      for (uint32_t k = 0; k < nover; ++k) {
        int32_t a = in->I32();
        check_attr(a, /*allow_invalid=*/false);
        agg.over.push_back(a);
      }
    } else {
      uint32_t nattrs = in->U32();
      for (uint32_t k = 0; k < nattrs; ++k) {
        int32_t a = in->I32();
        check_attr(a, /*allow_invalid=*/false);
        n.attrs.push_back(a);
      }
      // FTree::Restore rejects a live atomic node without attributes.
    }
    uint32_t nchildren = in->U32();
    for (uint32_t k = 0; k < nchildren; ++k) {
      int32_t c = in->I32();
      if (c < 0 || c >= static_cast<int32_t>(num_nodes)) {
        Corrupt("f-tree child out of range");
      }
      n.children.push_back(c);
    }
  }
  uint32_t nroots = in->U32();
  std::vector<int> roots;
  for (uint32_t k = 0; k < nroots; ++k) {
    int32_t r = in->I32();
    if (r < 0 || r >= static_cast<int32_t>(num_nodes)) {
      Corrupt("f-tree root out of range");
    }
    roots.push_back(r);
  }

  FTree tree = FTree::Restore(std::move(raw), std::move(roots), reg);

  uint32_t nedges = in->U32();
  for (uint32_t e = 0; e < nedges; ++e) {
    Hyperedge edge;
    edge.weight = in->F64();
    uint32_t nattrs = in->U32();
    for (uint32_t k = 0; k < nattrs; ++k) {
      int32_t a = in->I32();
      check_attr(a, /*allow_invalid=*/false);
      edge.attrs.push_back(a);
    }
    edge.name = in->Str32();
    tree.AddEdge(std::move(edge));
  }
  return tree;
}

Value ReadValueCell(Reader* in) {
  uint8_t tag = in->U8();
  switch (tag) {
    case kValNull:
      return Value();
    case kValInt:
      return Value(in->I64());
    case kValDouble:
      return Value(in->F64());
    case kValString:
      return Value(in->Str32());
    default:
      Corrupt("unknown value tag");
  }
}

struct Section {
  size_t begin = 0;
  size_t end = 0;
  bool present = false;
};

/// Validates the file envelope and fills the per-kind section ranges;
/// every section must be present once. Every section's payload CRC is
/// verified.
void ReadEnvelope(const SnapshotMapping& mapping, Section* sections) {
  const std::byte* base = mapping.data();
  size_t size = mapping.size();
  if (size < sizeof(FileHeader)) Corrupt("file shorter than its header");
  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    Corrupt("bad magic");
  }
  if (header.endian != kEndianProbe) {
    Corrupt("endianness mismatch (snapshot written on a foreign machine)");
  }
  if (header.version != kVersion) {
    Corrupt("unsupported version");
  }
  if (header.file_size != size) Corrupt("header size disagrees with file");
  if (header.section_count > 64) Corrupt("implausible section count");

  Reader table(base, sizeof(FileHeader), size);
  for (uint64_t s = 0; s < header.section_count; ++s) {
    SectionEntry e = table.Pod<SectionEntry>();
    if (e.kind < kSectionRegistry || e.kind > kSectionKindMax) {
      Corrupt("unknown section kind");
    }
    Section& sec = sections[e.kind];
    if (sec.present) Corrupt("duplicate section");
    if (e.offset % 8 != 0 || e.offset > size || e.size > size - e.offset) {
      Corrupt("section out of range");
    }
    // Verify every section's payload CRC up front, before any
    // value-pool remap dirties the copy-on-write pages. Untouched pages
    // stay clean and evictable — this is one extra sequential read of
    // the file, not a copy.
    if (Crc32(base + e.offset, e.size) != e.crc32) {
      Corrupt("section crc mismatch (kind " + std::to_string(e.kind) + ")");
    }
    sec.begin = e.offset;
    sec.end = e.offset + e.size;
    sec.present = true;
  }
  for (uint32_t k = kSectionRegistry; k <= kSectionKindMax; ++k) {
    if (!sections[k].present) Corrupt("missing section");
  }
}

/// Range-checks one view data segment starting at the reader's position
/// and records its layout in `desc` (the reader is advanced past it).
void ReadSegmentDesc(Reader* in, SnapshotState::ViewDesc* desc_out) {
  SnapshotState::ViewDesc& desc = *desc_out;
  in->Align8();
  SegmentHeader seg = in->Pod<SegmentHeader>();
  desc.num_nodes = seg.num_nodes;
  desc.num_values = seg.num_values;
  desc.num_children = seg.num_children;
  desc.num_roots = seg.num_roots;
  if (seg.num_nodes > uint64_t{1} << 32) Corrupt("node count out of range");
  if (seg.num_nodes > in->remaining() / sizeof(NodeRec)) {
    Corrupt("node table out of range");
  }
  desc.nodes_off = in->pos();
  in->Skip(seg.num_nodes * sizeof(NodeRec));
  if (seg.num_roots > in->remaining() / sizeof(int64_t)) {
    Corrupt("root table out of range");
  }
  desc.roots_off = in->pos();
  in->Skip(seg.num_roots * sizeof(int64_t));
  if (seg.num_values > in->remaining() / sizeof(uint64_t)) {
    Corrupt("value pool out of range");
  }
  desc.values_off = in->pos();
  if (desc.values_off % 8 != 0) Corrupt("misaligned value pool");
  in->Skip(seg.num_values * sizeof(uint64_t));
  if (seg.num_children > in->remaining() / sizeof(uint32_t)) {
    Corrupt("child pool out of range");
  }
  desc.children_off = in->pos();
  in->Skip(seg.num_children * sizeof(uint32_t));
  in->Align8();
}

}  // namespace

std::shared_ptr<SnapshotState> ParseSnapshot(
    std::shared_ptr<SnapshotMapping> mapping, Database* db) {
  ParseSourceScope src(mapping->source());
  const std::byte* base = mapping->data();
  Section sections[kSectionKindMax + 1];
  ReadEnvelope(*mapping, sections);

  auto state = std::make_shared<SnapshotState>();
  state->mapping = mapping;
  state->epoch =
      Reader(base, sections[kSectionMeta].begin, sections[kSectionMeta].end)
          .U64();

  // --- registry: interning names in id order reproduces the saved ids in
  // the opened database's fresh registry.
  int num_attrs = 0;
  {
    Reader in(base, sections[kSectionRegistry].begin,
              sections[kSectionRegistry].end);
    uint64_t count = in.U64();
    for (uint64_t i = 0; i < count; ++i) {
      AttrId id = db->registry().Intern(in.Str32());
      if (id != static_cast<AttrId>(i)) {
        Corrupt("duplicate attribute name in registry");
      }
    }
    num_attrs = static_cast<int>(count);
  }

  // --- dictionary: bulk-intern the snapshot strings (stored in rank
  // order, so an empty live dictionary assigns code == snapshot id and
  // the value pools need no rewriting at all).
  {
    Reader in(base, sections[kSectionDictStrings].begin,
              sections[kSectionDictStrings].end);
    uint64_t count = in.U64();
    std::vector<std::string> strings;
    strings.reserve(static_cast<size_t>(count < 4096 ? count : 4096));
    for (uint64_t i = 0; i < count; ++i) strings.push_back(in.Str32());
    ValueDict& dict = ValueDict::Default();
    {
      std::vector<std::string_view> views(strings.begin(), strings.end());
      dict.InternBulk(std::move(views));
    }
    state->string_codes.reserve(strings.size());
    for (size_t i = 0; i < strings.size(); ++i) {
      std::optional<uint32_t> code = dict.Find(strings[i]);
      if (!code.has_value()) Corrupt("dictionary intern failed");
      state->string_codes.push_back(*code);
      if (*code != i) state->strings_identity = false;
    }
  }
  {
    Reader in(base, sections[kSectionDictBigInts].begin,
              sections[kSectionDictBigInts].end);
    uint64_t count = in.U64();
    if (count > in.remaining() / sizeof(int64_t)) {
      Corrupt("big-int pool out of range");
    }
    ValueDict& dict = ValueDict::Default();
    state->bigint_slots.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t slot = dict.InternBigInt(in.I64());
      state->bigint_slots.push_back(slot);
      if (slot != i) state->bigints_identity = false;
    }
  }

  // --- flat relations, decoded eagerly (they are the write-optimised
  // side; only factorised views open lazily).
  {
    Reader in(base, sections[kSectionRelations].begin,
              sections[kSectionRelations].end);
    uint64_t count = in.U64();
    for (uint64_t r = 0; r < count; ++r) {
      std::string name = in.Str32();
      uint64_t arity = in.U64();
      if (arity > 65535) Corrupt("implausible relation arity");
      std::vector<AttrId> attrs;
      for (uint64_t a = 0; a < arity; ++a) {
        int32_t id = in.I32();
        if (id < 0 || id >= num_attrs) Corrupt("attribute id out of range");
        attrs.push_back(id);
      }
      uint64_t rows = in.U64();
      // Every cell carries at least a tag byte, so the row count cannot
      // exceed the bytes left — reject before accumulating tuples.
      if (rows > in.remaining()) Corrupt("row count out of range");
      Relation rel{RelSchema(std::move(attrs))};
      for (uint64_t i = 0; i < rows; ++i) {
        Tuple t;
        t.reserve(arity);
        for (uint64_t a = 0; a < arity; ++a) t.push_back(ReadValueCell(&in));
        rel.Add(std::move(t));
      }
      db->AddRelation(name, std::move(rel));
    }
  }

  // --- view catalog: f-trees eagerly (cheap), data segments lazily.
  {
    Reader in(base, sections[kSectionViews].begin, sections[kSectionViews].end);
    uint64_t count = in.U64();
    for (uint64_t v = 0; v < count; ++v) {
      std::string name = in.Str32();
      SnapshotState::ViewDesc desc;
      desc.tree = ReadFTreeBlob(&in, &db->registry(), num_attrs);
      ReadSegmentDesc(&in, &desc);
      if (!state->views.emplace(std::move(name), std::move(desc)).second) {
        Corrupt("duplicate view name");
      }
    }
  }
  return state;
}

std::optional<Factorisation> MaterialiseSnapshotView(SnapshotState& state,
                                                     const std::string& name) {
  base::MutexLock g(&state.mu);
  auto it = state.views.find(name);
  if (it == state.views.end()) return std::nullopt;
  SnapshotState::ViewDesc& d = it->second;
  ParseSourceScope src(state.mapping->source());
  const std::byte* base = state.mapping->data();

  // Pass 1 (once per view, shared across Database copies): validate
  // every dictionary payload in the value pool, then remap snapshot-local
  // ids to live codes. Validation completes before the first write, so a
  // corrupt pool throws without leaving a half-remapped segment behind.
  // With identity maps nothing is written and the pool's pages stay
  // clean, file-backed, and demand-paged.
  if (!d.fixed_up) {
    const ValueRef* ro = reinterpret_cast<const ValueRef*>(base + d.values_off);
    for (uint64_t i = 0; i < d.num_values; ++i) {
      if (ro[i].is_string()) {
        if (ro[i].string_code() >= state.string_codes.size()) {
          Corrupt("string id out of range");
        }
      } else if (ro[i].is_big_int()) {
        if (ro[i].big_int_slot() >= state.bigint_slots.size()) {
          Corrupt("big-int slot out of range");
        }
      }
    }
    if (!state.strings_identity || !state.bigints_identity) {
      ValueRef* pool = reinterpret_cast<ValueRef*>(
          state.mapping->mutable_data() + d.values_off);
      for (uint64_t i = 0; i < d.num_values; ++i) {
        ValueRef v = pool[i];
        // Per-kind guards: an identity kind is not stored back, so its
        // (byte-identical) writes don't COW-dirty otherwise clean pages.
        if (v.is_string() && !state.strings_identity) {
          pool[i] = ValueRef::StringRef(state.string_codes[v.string_code()]);
        } else if (v.is_big_int() && !state.bigints_identity) {
          pool[i] = ValueRef::BigIntRef(state.bigint_slots[v.big_int_slot()]);
        }
      }
    }
    d.fixed_up = true;
  }

  // Pass 2: offsets -> pointers. Node headers and the widened child
  // pointer array are the only per-open allocations; value spans point
  // into the mapping. Children-first order: every child id is below its
  // parent's.
  auto nodes = std::make_unique<FactNode[]>(d.num_nodes);
  auto kids = std::make_unique<FactPtr[]>(d.num_children);
  const ValueRef* vpool =
      reinterpret_cast<const ValueRef*>(base + d.values_off);
  Reader recs(base, d.nodes_off, d.nodes_off + d.num_nodes * sizeof(NodeRec));
  for (uint64_t n = 0; n < d.num_nodes; ++n) {
    NodeRec rec = recs.Pod<NodeRec>();
    if (uint64_t{rec.value_off} + rec.num_values > d.num_values) {
      Corrupt("value span out of range");
    }
    if (uint64_t{rec.child_off} + rec.num_children > d.num_children) {
      Corrupt("child span out of range");
    }
    const ValueRef* vals = vpool + rec.value_off;
    for (uint32_t i = 1; i < rec.num_values; ++i) {
      if (!(vals[i - 1] < vals[i])) Corrupt("union not strictly sorted");
    }
    nodes[n].values = {vals, rec.num_values};
    nodes[n].children = {kids.get() + rec.child_off, rec.num_children};
    const uint32_t* span = reinterpret_cast<const uint32_t*>(
        base + d.children_off + uint64_t{rec.child_off} * sizeof(uint32_t));
    for (uint32_t i = 0; i < rec.num_children; ++i) {
      uint32_t idx;
      std::memcpy(&idx, span + i, sizeof(idx));
      // Children-first order makes cycles unrepresentable.
      if (idx >= n) Corrupt("child index not below parent");
      kids[rec.child_off + i] = &nodes[idx];
    }
  }

  // Roots, then a memoised shape check against the f-tree: every (data
  // node, f-tree node) pair is visited once, so DAG sharing cannot blow
  // this up, and enumeration/ops can trust child-matrix extents.
  std::vector<FactPtr> roots;
  std::vector<std::pair<uint64_t, int>> work;
  {
    Reader rr(base, d.roots_off, d.roots_off + d.num_roots * sizeof(int64_t));
    if (d.num_roots != d.tree.roots().size()) {
      Corrupt("root count disagrees with f-tree");
    }
    for (uint64_t r = 0; r < d.num_roots; ++r) {
      int64_t idx = rr.I64();
      if (idx == -1) {
        roots.push_back(FactArena::EmptyNode());
        continue;
      }
      if (idx < 0 || static_cast<uint64_t>(idx) >= d.num_nodes) {
        Corrupt("root index out of range");
      }
      roots.push_back(&nodes[idx]);
      work.emplace_back(static_cast<uint64_t>(idx),
                        d.tree.roots()[static_cast<size_t>(r)]);
    }
  }
  {
    std::unordered_set<uint64_t> seen;
    while (!work.empty()) {
      auto [n, tn] = work.back();
      work.pop_back();
      if (!seen.insert(n << 32 | static_cast<uint64_t>(tn)).second) continue;
      const FactNode& node = nodes[n];
      size_t k = d.tree.children(tn).size();
      if (node.children.size() != node.values.size() * k) {
        Corrupt("child matrix disagrees with f-tree fan-out");
      }
      for (size_t i = 0; i < node.values.size(); ++i) {
        for (size_t c = 0; c < k; ++c) {
          FactPtr child = node.children[i * k + c];
          uint64_t idx = static_cast<uint64_t>(child - nodes.get());
          if (child->values.empty()) {
            Corrupt("unpruned empty child union");
          }
          work.emplace_back(idx, d.tree.children(tn)[c]);
        }
      }
    }
  }

  int64_t mapped_bytes = static_cast<int64_t>(
      d.num_nodes * sizeof(NodeRec) + d.num_roots * sizeof(int64_t) +
      d.num_values * sizeof(uint64_t) + d.num_children * sizeof(uint32_t));
  auto arena = std::make_shared<MappedArena>(
      state.mapping, std::move(nodes), static_cast<int64_t>(d.num_nodes),
      std::move(kids), mapped_bytes);
  return Factorisation(d.tree, std::move(roots), std::move(arena));
}

}  // namespace storage

Database Database::OpenSnapshot(
    std::shared_ptr<storage::SnapshotMapping> mapping) {
  Database db;
  db.snapshot_ = storage::ParseSnapshot(std::move(mapping), &db);
  return db;
}

Database Database::Open(const std::string& path) {
  static obs::Histogram& open_hist = obs::Registry::Instance().GetHistogram(
      "storage.open_ns", "ns", "Database::Open wall time (base + WAL)");
  static obs::Counter& wal_groups_replayed =
      obs::Registry::Instance().GetCounter(
          "storage.open_wal_groups_replayed", "groups",
          "WAL commit groups replayed during Open");
  obs::ScopedLatency latency(open_hist);
  // Older builds appended checkpoint deltas (`<path>.delta-N`) and stamped
  // the WAL to follow them. Opening the base alone would silently drop
  // their changes and the log, so refuse instead. (A base this build
  // writes removes them.)
  std::string leftover = path + ".delta-1";
  if (::access(leftover.c_str(), F_OK) == 0) {
    throw std::invalid_argument(
        "snapshot: " + leftover +
        ": checkpoint delta of an older build; open and Save the database "
        "with that build first");
  }
  Database db = OpenSnapshot(storage::SnapshotMapping::FromFile(path));
  // Then the write-ahead log: committed groups only (ReadWal dropped any
  // torn tail), applied in commit order, and only when the log's epoch
  // stamp matches the base just opened — a mismatched log predates a
  // checkpoint that already captured it.
  std::optional<storage::WalRecovery> rec =
      storage::ReadWal(path, db.snapshot_->epoch);
  uint64_t my_groups = 0;
  if (rec.has_value()) {
    my_groups = rec->groups.size();
    base::MutexLock t(&db.txn_mu_);
    for (std::vector<storage::WalOp>& group : rec->groups) {
      wal_groups_replayed.Inc();
      if (std::optional<std::string> missing =
              db.ApplyOpsLocked(std::move(group))) {
        // Commits only ever log existing views, and EnableWal wrote them
        // into the base — a missing one is damage.
        throw std::invalid_argument("wal: " + storage::WalPath(path) +
                                    ": log references unknown view '" +
                                    *missing + "'");
      }
    }
  }
  if (obs::LogEnabled()) {
    // Post-crash forensics: what this Open actually replayed, including
    // whether a torn WAL tail was truncated and at which byte offset.
    obs::EventLog::Instance().Emit(
        obs::EventType::kRecovery,
        {obs::F("path", path), obs::F("epoch", db.snapshot_->epoch),
         obs::F("wal_groups_replayed", my_groups),
         obs::F("wal_valid_bytes",
                rec.has_value() ? rec->valid_bytes : uint64_t{0}),
         obs::F("wal_truncated_tail",
                rec.has_value() ? rec->truncated_tail : false)});
  }
  // With FDB_CHECK on, an Open that replayed a corrupt base or WAL fails
  // here, before the database is handed to anyone.
  if (check::Enabled()) check::ValidateDatabaseOrThrow(db);
  return db;
}

}  // namespace fdb
