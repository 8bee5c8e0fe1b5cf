// Regenerates the committed seed corpora under fuzz/corpus/ using the
// real encoders, so every seed is a valid (or near-valid) input the
// fuzzer mutates from. Run manually after a format change:
//
//   make_fuzz_corpus <repo>/fuzz/corpus
//
// Corpora are committed; CI replays them through the standalone drivers
// (ctest) and uses them as libFuzzer seeds in the fuzz-smoke job.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/engine/database.h"
#include "fdb/relational/relation.h"
#include "fdb/serve/wire.h"
#include "fdb/storage/wal.h"

namespace {

void Put(const std::filesystem::path& dir, const std::string& name,
         const void* data, size_t n) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out.good()) {
    std::cerr << "make_fuzz_corpus: cannot write " << (dir / name) << "\n";
    std::exit(2);
  }
}

void Put(const std::filesystem::path& dir, const std::string& name,
         const std::vector<uint8_t>& bytes) {
  Put(dir, name, bytes.data(), bytes.size());
}

std::vector<uint8_t> OneFrame(fdb::serve::FrameType type,
                              const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  fdb::serve::AppendFrame(&out, type, payload.data(), payload.size());
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A small database with one two-attribute view "V".
fdb::Database SmallDb() {
  fdb::Database db;
  fdb::AttrId a = db.Attr("fz_a"), b = db.Attr("fz_b");
  fdb::Relation r{fdb::RelSchema({a, b})};
  for (int64_t x = 0; x < 20; ++x) {
    r.Add({fdb::Value(x / 4), fdb::Value(x)});
  }
  db.AddView("V", fdb::FactoriseRelation(r, {a, b}));
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_fuzz_corpus <corpus-dir>\n";
    return 2;
  }
  std::filesystem::path root = argv[1];
  std::filesystem::path tmp =
      std::filesystem::temp_directory_path() / "fdb_make_corpus";
  std::filesystem::create_directories(tmp);

  // --- fuzz_wire: one valid frame of every type, and a response ----------
  using namespace fdb::serve;
  Put(root / "fuzz_wire", "hello.bin",
      OneFrame(FrameType::kHello, EncodeHello()));
  Put(root / "fuzz_wire", "schema.bin",
      OneFrame(FrameType::kSchema, EncodeSchema({"a", "b", "c"})));
  Put(root / "fuzz_wire", "row.bin",
      OneFrame(FrameType::kRow,
               EncodeRow({fdb::Value(static_cast<int64_t>(9)),
                          fdb::Value(2.5), fdb::Value("str"), fdb::Value()})));
  Put(root / "fuzz_wire", "done.bin",
      OneFrame(FrameType::kDone, EncodeDone(DoneStats{5, 6, 7, 8})));
  Put(root / "fuzz_wire", "error.bin",
      OneFrame(FrameType::kError, EncodeError(ErrorInfo{kErrParse, "p"})));
  Put(root / "fuzz_wire", "retry.bin",
      OneFrame(FrameType::kRetry, EncodeRetry(RetryInfo{99, "later"})));
  {
    // A whole multi-row response, the stream a client decodes in place.
    std::vector<uint8_t> resp =
        OneFrame(FrameType::kSchema, EncodeSchema({"a", "b", "c", "d"}));
    for (int64_t i = 0; i < 3; ++i) {
      AppendRowFrame(&resp, {fdb::Value(i), fdb::Value(0.5 * i),
                             fdb::Value(std::string(i, 's')), fdb::Value()});
    }
    std::vector<uint8_t> done =
        OneFrame(FrameType::kDone, EncodeDone(DoneStats{3, 6, 7, 8}));
    resp.insert(resp.end(), done.begin(), done.end());
    Put(root / "fuzz_wire", "response.bin", resp);
  }
  {
    std::string q = "SELECT a FROM V";
    Put(root / "fuzz_wire", "query.bin",
        OneFrame(FrameType::kQuery,
                 std::vector<uint8_t>(q.begin(), q.end())));
  }

  // --- fuzz_sql: statement text -----------------------------------------
  const char* stmts[] = {
      "SELECT a, b FROM V WHERE a = 1 ORDER BY b",
      "SELECT COUNT(*) FROM V GROUP BY a",
      "SELECT SUM(b), a FROM V WHERE b < 10 AND a >= 0 GROUP BY a",
      "SELECT x FROM R1 WHERE name = 'widget' OR price > 2.5",
      "INSERT INTO V VALUES (1, -2.5e3, 'it''s', NULL);",
      "delete from V values (+7, .5)",
      "BEGIN",
      "COMMIT",
  };
  int n = 0;
  for (const char* s : stmts) {
    Put(root / "fuzz_sql", "stmt" + std::to_string(n++) + ".sql", s,
        std::strlen(s));
  }

  // --- fuzz_snapshot: a real base snapshot ------------------------------
  {
    fdb::Database db = SmallDb();
    std::string path = (tmp / "seed.fdbs").string();
    db.Save(path);
    std::string bytes = ReadFile(path);
    Put(root / "fuzz_snapshot", "base.fdbs", bytes.data(), bytes.size());
  }

  // --- fuzz_wal: epoch prefix + a real log -------------------------------
  {
    fdb::Database db = SmallDb();
    std::string path = (tmp / "seed_wal.fdbs").string();
    db.EnableWal(path);
    db.Begin();
    db.Insert("V", {fdb::Value(int64_t{100}), fdb::Value(int64_t{1000})});
    db.Delete("V", {fdb::Value(int64_t{0}), fdb::Value(int64_t{0})});
    db.Commit();
    db.Insert("V", {fdb::Value(int64_t{101}), fdb::Value(int64_t{1001})});
    std::string wal = ReadFile(fdb::storage::WalPath(path));
    // The harness reads the epoch prefix the log must validate against;
    // lift the real one out of the WalHeader (epoch at byte 16).
    std::vector<uint8_t> seed(8 + wal.size());
    std::memcpy(seed.data(), wal.data() + 16, 8);
    std::memcpy(seed.data() + 8, wal.data(), wal.size());
    Put(root / "fuzz_wal", "log.bin", seed);
  }

  std::filesystem::remove_all(tmp);
  std::cout << "make_fuzz_corpus: wrote corpora under " << root << "\n";
  return 0;
}
