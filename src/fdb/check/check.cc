#include "fdb/check/check.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "fdb/core/factorisation.h"
#include "fdb/engine/database.h"
#include "fdb/obs/metrics.h"
#include "fdb/relational/value_dict.h"
#include "fdb/serve/admission.h"
#include "fdb/storage/format.h"
#include "fdb/storage/snapshot.h"
#include "fdb/storage/wal.h"

namespace fdb {
namespace check {

namespace {

obs::Counter& RunsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "check.runs", "runs", "deep invariant validation passes");
  return c;
}

obs::Counter& IssuesCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "check.issues", "issues", "invariant violations found by the checker");
  return c;
}

obs::Counter& NodesCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "check.nodes_visited", "nodes", "fact nodes walked by the checker");
  return c;
}

}  // namespace

void Report::Add(const std::string& check, const std::string& detail) {
  issues.push_back(Issue{check, detail});
}

std::string Report::ToString() const {
  std::string out;
  if (ok()) {
    out = "check: OK (" + std::to_string(views_checked) + " views, " +
          std::to_string(nodes_visited) + " nodes, " +
          std::to_string(files_checked) + " files)\n";
    return out;
  }
  out = "check: " + std::to_string(issues.size()) + " issue(s)\n";
  for (const Issue& i : issues) {
    out += "  [" + i.check + "] " + i.detail + "\n";
  }
  return out;
}

bool Enabled() {
  const char* env = std::getenv("FDB_CHECK");
  if (env != nullptr && env[0] != '\0') {
    return std::strcmp(env, "0") != 0;
  }
#ifdef FDB_CHECK
  return true;
#else
  return false;
#endif
}

// --- views -----------------------------------------------------------------

void CheckView(const std::string& name, const Factorisation& f, Report* out) {
  ++out->views_checked;
  const FactArena* arena = f.arena().get();

  // Walk the node graph first: ownership, null children, cycles. The
  // cycle check must precede Factorisation::Validate — a cyclic graph
  // would not terminate under its recursive walk.
  bool cyclic = false;
  std::unordered_set<FactPtr> done;     // fully explored
  std::unordered_set<FactPtr> on_path;  // ancestors of the current node
  struct Frame {
    FactPtr node;
    size_t next_child = 0;
  };
  std::vector<Frame> stack;
  for (FactPtr root : f.roots()) {
    if (root == nullptr) {
      out->Add("null-child", "view '" + name + "': null root pointer");
      continue;
    }
    if (done.count(root) != 0) continue;
    if (arena != nullptr && !arena->ChainOwnsNode(root)) {
      out->Add("arena-ownership",
               "view '" + name + "': root not pinned by the arena chain");
      continue;
    }
    stack.push_back(Frame{root});
    on_path.insert(root);
    ++out->nodes_visited;
    while (!stack.empty()) {
      Frame& fr = stack.back();
      if (fr.next_child >= fr.node->children.size()) {
        on_path.erase(fr.node);
        done.insert(fr.node);
        stack.pop_back();
        continue;
      }
      FactPtr child = fr.node->children[fr.next_child++];
      if (child == nullptr) {
        out->Add("null-child", "view '" + name + "': null child pointer");
        continue;
      }
      if (on_path.count(child) != 0) {
        out->Add("node-cycle",
                 "view '" + name + "': node graph reaches an ancestor");
        cyclic = true;
        continue;  // do not descend into the cycle
      }
      if (done.count(child) != 0) continue;
      if (arena != nullptr && !arena->ChainOwnsNode(child)) {
        out->Add("arena-ownership",
                 "view '" + name +
                     "': reachable node not pinned by the arena chain");
        continue;  // foreign memory; do not dereference further
      }
      stack.push_back(Frame{child});
      on_path.insert(child);
      ++out->nodes_visited;
    }
  }

  if (!cyclic) {
    std::string why;
    if (!f.Validate(&why)) {
      out->Add("view-structure", "view '" + name + "': " + why);
    }
  }
}

// --- dictionary ------------------------------------------------------------

void CheckDictionary(const ValueDict& dict, Report* out) {
  // Freeze interning so the rank permutation cannot shift mid-walk.
  auto frozen = dict.FreezeRanks();
  size_t n = dict.num_strings();
  std::vector<uint32_t> by_rank(n, UINT32_MAX);
  for (uint32_t code = 0; code < n; ++code) {
    uint32_t r = dict.rank(code);
    if (r >= n) {
      out->Add("dict-rank-range",
               "code " + std::to_string(code) + " has rank " +
                   std::to_string(r) + " >= " + std::to_string(n));
      continue;
    }
    if (by_rank[r] != UINT32_MAX) {
      out->Add("dict-rank-duplicate",
               "codes " + std::to_string(by_rank[r]) + " and " +
                   std::to_string(code) + " share rank " + std::to_string(r));
      continue;
    }
    by_rank[r] = code;
  }
  for (size_t r = 1; r < n; ++r) {
    if (by_rank[r - 1] == UINT32_MAX || by_rank[r] == UINT32_MAX) continue;
    if (!(dict.str(by_rank[r - 1]) < dict.str(by_rank[r]))) {
      out->Add("dict-rank-order",
               "ranks " + std::to_string(r - 1) + " and " + std::to_string(r) +
                   " are not in string order");
    }
  }
}

// --- admission -------------------------------------------------------------

void CheckAdmission(const serve::AdmissionController& ac, Report* out) {
  const serve::AdmissionConfig& cfg = ac.config();
  int active = ac.active();
  int queued = ac.queued();
  if (active < 0 || active > cfg.max_concurrent) {
    out->Add("admission-counters",
             "active " + std::to_string(active) + " outside [0, " +
                 std::to_string(cfg.max_concurrent) +
                 "] (lost or double Release)");
  }
  if (queued < 0 || queued > cfg.max_queue) {
    out->Add("admission-counters",
             "queued " + std::to_string(queued) + " outside [0, " +
                 std::to_string(cfg.max_queue) + "]");
  }
}

// --- on-disk files ---------------------------------------------------------

namespace {

struct FileEnvelope {
  std::vector<storage::SectionEntry> entries;
  std::string bytes;
};

/// Reads and validates the base file's envelope and verifies every
/// section's CRC. Returns nullopt (with issues) on damage.
std::optional<FileEnvelope> ReadFileEnvelope(const std::string& path,
                                             Report* out) {
  using namespace storage;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out->Add("chain-envelope", path + ": cannot open");
    return std::nullopt;
  }
  FileEnvelope env;
  env.bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  ++out->files_checked;
  if (env.bytes.size() < sizeof(FileHeader)) {
    out->Add("chain-envelope", path + ": shorter than its header");
    return std::nullopt;
  }
  FileHeader h;
  std::memcpy(&h, env.bytes.data(), sizeof(FileHeader));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0 ||
      h.endian != kEndianProbe || h.version != kVersion) {
    out->Add("chain-envelope", path + ": bad magic/version/endianness");
    return std::nullopt;
  }
  if (h.file_size != env.bytes.size()) {
    out->Add("chain-envelope", path + ": header size disagrees with file");
    return std::nullopt;
  }
  if (h.section_count > 64 ||
      sizeof(FileHeader) + h.section_count * sizeof(SectionEntry) >
          env.bytes.size()) {
    out->Add("chain-envelope", path + ": implausible section table");
    return std::nullopt;
  }
  for (uint64_t s = 0; s < h.section_count; ++s) {
    SectionEntry e;
    std::memcpy(&e, env.bytes.data() + sizeof(FileHeader) +
                        s * sizeof(SectionEntry),
                sizeof(e));
    if (e.offset > env.bytes.size() ||
        e.size > env.bytes.size() - e.offset) {
      out->Add("chain-envelope",
               path + ": section " + std::to_string(e.kind) + " out of range");
      return std::nullopt;
    }
    if (Crc32(env.bytes.data() + e.offset, e.size) != e.crc32) {
      out->Add("section-crc", path + ": section " + std::to_string(e.kind) +
                                  " payload crc mismatch");
    }
    env.entries.push_back(e);
  }
  return env;
}

const storage::SectionEntry* FindSection(const FileEnvelope& env,
                                         uint32_t kind) {
  for (const storage::SectionEntry& e : env.entries) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

uint64_t ReadU64(const FileEnvelope& env, uint64_t off) {
  uint64_t v = 0;
  std::memcpy(&v, env.bytes.data() + off, sizeof(v));
  return v;
}

}  // namespace

void CheckChainFiles(const std::string& path, Report* out, bool check_wal) {
  using namespace storage;
  std::optional<FileEnvelope> base = ReadFileEnvelope(path, out);
  if (!base.has_value()) return;

  const SectionEntry* meta = FindSection(*base, kSectionMeta);
  if (meta == nullptr || meta->size < sizeof(uint64_t)) {
    out->Add("chain-envelope", path + ": missing meta section");
    return;
  }
  uint64_t base_epoch = ReadU64(*base, meta->offset);

  // Open refuses a base with an older build's checkpoint delta beside it.
  std::string leftover = path + ".delta-1";
  if (std::ifstream(leftover, std::ios::binary)) {
    out->Add("chain-envelope",
             leftover + ": checkpoint delta of an older build beside the "
                        "base; Open refuses it");
  }

  // The WAL, when present, must be stamped for this base; any other
  // stamp means Open will silently discard it.
  if (!check_wal) return;
  std::ifstream wal(WalPath(path), std::ios::binary);
  if (wal) {
    WalHeader wh;
    if (wal.read(reinterpret_cast<char*>(&wh), sizeof(wh)) &&
        std::memcmp(wh.magic, kWalMagic, sizeof(kWalMagic)) == 0 &&
        wh.epoch != base_epoch) {
      out->Add("wal-chain-stamp",
               WalPath(path) + ": log epoch " + std::to_string(wh.epoch) +
                   " does not match base epoch " +
                   std::to_string(base_epoch));
    }
  }
}

// --- whole database --------------------------------------------------------

Report ValidateDatabase(const Database& db) {
  Report report;
  RunsCounter().Inc();
  for (const std::string& name : db.ViewNames()) {
    std::shared_ptr<const Factorisation> f = db.ViewSnapshot(name);
    if (f == nullptr) continue;
    CheckView(name, *f, &report);
  }
  CheckDictionary(ValueDict::Default(), &report);
  if (std::optional<storage::PersistState> ps = db.PersistSnapshot();
      ps.has_value()) {
    // A log whose reset failed after a base was written keeps its old
    // stamp, but nothing acknowledged can be lost through it: it refuses
    // commits until EnableWal re-creates it, and Open skips it.
    CheckChainFiles(ps->path, &report, !db.WalStatus().broken);
  }
  NodesCounter().Inc(report.nodes_visited);
  if (!report.ok()) IssuesCounter().Inc(report.issues.size());
  return report;
}

void ValidateDatabaseOrThrow(const Database& db) {
  Report report = ValidateDatabase(db);
  if (!report.ok()) {
    throw std::runtime_error("FDB_CHECK failed:\n" + report.ToString());
  }
}

}  // namespace check
}  // namespace fdb
